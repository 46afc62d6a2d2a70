package fabric

import (
	"perfq/internal/compiler"
	"perfq/internal/fold"
	"perfq/internal/trace"
)

// MergeMode classifies how one switch-resident stage's per-switch states
// reconcile into a network-wide table.
type MergeMode uint8

// Merge modes, from strongest to weakest guarantee.
const (
	// ModeUnion: the GROUPBY key includes the switch dimension (qid or
	// switch), so per-switch key sets are disjoint and the network table
	// is their union — exact for every fold.
	ModeUnion MergeMode = iota
	// ModeAdd: the fold's linear update has identity A and packet-pure B
	// (COUNT, SUM, AVG), so states from arbitrarily interleaved
	// sub-streams merge by summing per-switch deltas.
	ModeAdd
	// ModeAssoc: the fold is a commutative monoid (MAX/MIN); states
	// combine directly.
	ModeAssoc
	// ModeEpoch: no sound spatial merge exists; keys observed by more
	// than one switch are dropped from the network table and counted
	// against spatial accuracy (§3.2's epoch semantics, in space).
	ModeEpoch
)

// String names the mode as used in reports.
func (m MergeMode) String() string {
	switch m {
	case ModeUnion:
		return "union"
	case ModeAdd:
		return "add"
	case ModeAssoc:
		return "assoc"
	default:
		return "epoch"
	}
}

// Exact reports whether the mode loses no keys network-wide.
func (m MergeMode) Exact() bool { return m != ModeEpoch }

// ModeOf classifies a switch-resident group stage.
func ModeOf(st *compiler.Stage) MergeMode {
	if keyHasSwitch(st.Key) {
		return ModeUnion
	}
	switch st.Fold.Merge {
	case fold.MergeAssoc:
		if st.Fold.Combine != nil {
			return ModeAssoc
		}
	case fold.MergeLinear:
		if st.Fold.Linear != nil && st.Fold.Linear.IsCommutative() {
			return ModeAdd
		}
	}
	return ModeEpoch
}

// keyHasSwitch reports whether a grouping key pins each key value to one
// switch. qid encodes the switch in its upper half; the bare queue index
// does not.
func keyHasSwitch(k *compiler.KeySpec) bool {
	for _, f := range k.Fields {
		if f == trace.FieldQID || f == trace.FieldSwitch {
			return true
		}
	}
	return false
}

// NetworkExact reports whether every switch-resident stage of the plan
// reconciles without dropping keys (no ModeEpoch member) — the condition
// under which the fabric's network-wide tables cover exactly the key set
// a single network-wide datapath would produce.
func NetworkExact(plan *compiler.Plan) bool {
	for _, sp := range plan.Programs {
		for _, st := range sp.Members {
			if ModeOf(st) == ModeEpoch {
				return false
			}
		}
	}
	return true
}

// mergeOf is the reconcile's reducer for a stage: how the states two
// switches hold for one key combine, in switch-ID order. Union keys
// cannot collide (the key pins the switch) and epoch folds have no sound
// merge, so both return nil — the reconcile then drops a key held by
// more than one switch rather than emit a wrong row.
func mergeOf(st *compiler.Stage) func(dst, src []float64) {
	switch ModeOf(st) {
	case ModeAdd:
		s0 := make([]float64, st.Fold.StateLen())
		st.Fold.Init(s0)
		return func(dst, src []float64) {
			for i := range dst {
				dst[i] += src[i] - s0[i]
			}
		}
	case ModeAssoc:
		return st.Fold.Combine
	}
	return nil
}
