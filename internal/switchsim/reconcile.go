package switchsim

import (
	"encoding/binary"
	"slices"

	"perfq/internal/compiler"
	"perfq/internal/exec"
	"perfq/internal/packet"
)

// This file is the one materializer: every table of a switch-resident
// stage — a shard's, a datapath's, a switch's view, the fabric's
// network-wide result, the fabric ground truth — is a reconcile over
// state sources. Per group stage: gather every source's keys, sort by
// packed key with ties in source order, reduce each run of equal keys
// into one state, and project it into a row carved from the table's
// slab. Shards of one partition hold disjoint keys, so an unpartitioned
// datapath never finds a run longer than one: the reduce is a no-op and
// each row is projected straight from the gather. Sources of different
// partitions can share a key, and how their states combine is the
// caller's merge (the fabric's merge-mode table, see internal/fabric).

// StateSource is one store's worth of per-member state: a shard of a
// datapath, or an unbounded exec engine standing in for one (ground
// truth).
type StateSource interface {
	// Keys bounds how many keys RangeMember yields for a member of
	// program pi.
	Keys(pi int) int
	// RangeMember yields every key of program pi's member mi once, in
	// any order: the 128-bit store key, the key component values, the
	// member's state, and whether that state is trustworthy for the full
	// window (false for a multi-epoch key of a non-mergeable fold, whose
	// state must then be ignored). Keys the member never saw are skipped.
	// keyVals is only valid during the call; state is only read, and only
	// until the source next changes.
	RangeMember(pi, mi int, fn func(key packet.Key128, keyVals, state []float64, valid bool))
	// SelectRows returns the mirrored rows of a select-over-T stage (a
	// multiset; Reconcile sorts after concatenating).
	SelectRows(st *compiler.Stage) [][]float64
}

// Keys implements StateSource.
func (sh *shardState) Keys(pi int) int { return sh.progs[pi].store.Len() }

// RangeMember implements StateSource over the shard's backing store.
func (sh *shardState) RangeMember(pi, mi int, fn func(key packet.Key128, keyVals, state []float64, valid bool)) {
	ps := sh.progs[pi]
	sp := ps.sp
	m := sp.Members[mi].Fold.StateLen()
	off, pidx := sp.Offsets[mi], sp.PresIdx[mi]
	nk := sp.Key.NumComponents()
	ps.store.RangeAll(func(key packet.Key128, state []float64, valid bool) bool {
		if valid {
			if pidx >= 0 && state[pidx] <= 0 {
				return true // no record of this member's query saw the key
			}
			state = state[off : off+m]
		}
		// Shard-owned scratch: a stack array would escape through fn and
		// cost one allocation per key.
		kv := sh.scratch.kv[:nk]
		if ps.keyVals != nil {
			copy(kv, ps.keyVals[key])
		} else {
			sp.Key.Unpack(key, kv)
		}
		fn(key, kv, state, valid)
		return true
	})
}

// SelectRows implements StateSource.
func (sh *shardState) SelectRows(st *compiler.Stage) [][]float64 {
	return sh.selRows[slices.Index(sh.selStgs, st)]
}

// Reconcile materializes every switch-resident stage of the plan from
// srcs, returning the tables and, per program, how many keys were
// emitted out of how many were seen (Acc.Valid / Acc.Total, summed over
// the program's members).
//
// Select-over-T stages are per-record mirrors and every record is owned
// by exactly one source, so their table is the concatenation, sorted —
// exact for every query. Group stages reduce the sources' states per
// key. merge == nil promises that no two sources hold the same key.
// Otherwise merge(st) is how two sources' states for one key of stage st
// combine (dst ← dst ⊕ src, applied in srcs order, so float association
// order is the caller's source order), or nil if they cannot: such a key
// is dropped and counted against accuracy, as is a key any source holds
// an untrustworthy value for.
func Reconcile(plan *compiler.Plan, srcs []StateSource, merge func(*compiler.Stage) func(dst, src []float64)) (map[string]*exec.Table, []Acc) {
	return reconcile(plan, srcs, merge, &tablesScratch{})
}

func reconcile(plan *compiler.Plan, srcs []StateSource, merge func(*compiler.Stage) func(dst, src []float64), ts *tablesScratch) (map[string]*exec.Table, []Acc) {
	out := map[string]*exec.Table{}
	acc := make([]Acc, len(plan.Programs))
	for _, st := range plan.Stages {
		if st.Kind == compiler.KindSelect && st.Input == nil {
			var rows [][]float64
			for _, s := range srcs {
				rows = append(rows, s.SelectRows(st)...)
			}
			t := &exec.Table{Schema: st.Schema, Rows: rows}
			t.Sort()
			out[st.Name] = t
		}
	}
	for pi, sp := range plan.Programs {
		total := 0
		for _, s := range srcs {
			total += s.Keys(pi)
		}
		for mi, st := range sp.Members {
			var reduce func(dst, src []float64)
			if merge != nil {
				reduce = merge(st)
			}
			t, keys := ts.member(sp, pi, mi, srcs, total, merge != nil, reduce)
			acc[pi].Valid += len(t.Rows)
			acc[pi].Total += keys
			out[st.Name] = t
		}
	}
	return out, acc
}

// keyedRef pairs a gathered key's index with its packed key words — the
// 24-byte sort element of the integer-keyed sort (rows are picked up
// once afterwards, so swaps move 24 bytes, not row headers).
type keyedRef struct {
	k0, k1 uint64
	idx    int32
}

func refOf(key packet.Key128, idx int) keyedRef {
	return keyedRef{binary.BigEndian.Uint64(key[0:8]), binary.BigEndian.Uint64(key[8:16]), int32(idx)}
}

func (a keyedRef) sameKey(b keyedRef) bool { return a.k0 == b.k0 && a.k1 == b.k1 }

// sortRefs orders refs by key. Ties break on gather order, which makes
// the sort stable in source order without a stable sort's cost on the
// tie-free common case.
func sortRefs(refs []keyedRef) {
	slices.SortFunc(refs, func(a, b keyedRef) int {
		switch {
		case a.k0 != b.k0:
			if a.k0 < b.k0 {
				return -1
			}
			return 1
		case a.k1 != b.k1:
			if a.k1 < b.k1 {
				return -1
			}
			return 1
		default:
			return int(a.idx - b.idx)
		}
	})
}

// nonNegative reports whether a packed key's byte order is its row
// order: packed keys are big-endian per component, so byte order equals
// the float-lexicographic order Table.Sort produces as long as every
// component is non-negative (two's-complement bytes would order
// negatives last). Rows then sort by the two key words — two integer
// compares per comparison instead of a column walk.
func nonNegative(kv []float64) bool {
	for _, v := range kv {
		if v < 0 {
			return false
		}
	}
	return true
}

// tablesScratch is the reusable per-close materialization scratch — the
// gather/sort buffers whose contents die inside one member's reconcile
// (the rows themselves escape into the emitted tables and stay per-close
// allocations). Buffers are shared across members, programs and calls;
// reset-to-empty keeps capacity, so steady-state closes stop paying the
// gather allocations that dominated the close path. The emptied buffers
// keep the previous window's state pointers alive in their capacity tail
// until overwritten — bounded by one window's key count.
type tablesScratch struct {
	refs   []keyedRef  // sort refs, one per gathered key
	states [][]float64 // shared keys' gathered states (nil: untrustworthy)
	kvs    []float64   // shared keys' gathered component values, nk per key
	merged []float64   // the state a run of equal keys reduces into
}

// member reconciles one member of one program: the stage's table and
// the number of distinct keys seen (emitted or not). total bounds the
// gather; shared says sources may hold the same key, reduce (nil: they
// cannot be combined) how such states merge.
func (ts *tablesScratch) member(sp *compiler.SwitchProgram, pi, mi int, srcs []StateSource, total int, shared bool, reduce func(dst, src []float64)) (*exec.Table, int) {
	st := sp.Members[mi]
	nk := sp.Key.NumComponents()
	width := nk + len(st.Out)
	t := &exec.Table{Schema: st.Schema}
	byKey := sp.Key.Packed // and, as far as seen, nonNegative
	refs := ts.refs[:0]
	if byKey || shared {
		refs = slices.Grow(refs, total)
	}
	keys := 0

	if !shared {
		// Every trustworthy key is a row: project it while its state is
		// at hand, into the slab that escapes with the table, and sort
		// refs to the rows afterwards.
		slab := make([]float64, 0, total*width)
		for _, s := range srcs {
			s.RangeMember(pi, mi, func(key packet.Key128, kv, state []float64, valid bool) {
				keys++
				if !valid {
					return
				}
				if byKey = byKey && nonNegative(kv); byKey {
					refs = append(refs, refOf(key, len(slab)/width))
				}
				slab = exec.AppendOutCols(st, state, append(slab, kv...))
			})
		}
		ts.refs = refs
		if byKey {
			sortRefs(refs)
		}
		t.Rows = make([][]float64, len(slab)/width)
		for i := range t.Rows {
			at := i * width
			if byKey {
				at = int(refs[i].idx) * width
			}
			t.Rows[i] = slab[at : at+width : at+width]
		}
		if !byKey {
			t.Sort() // the column sort
		}
		return t, keys
	}

	// Sources may share keys, so only one row per run of equal keys
	// survives: gather states and key values into scratch, and carve the
	// slab once the runs are counted.
	states, kvs := slices.Grow(ts.states[:0], total), slices.Grow(ts.kvs[:0], total*nk)
	for _, s := range srcs {
		s.RangeMember(pi, mi, func(key packet.Key128, kv, state []float64, valid bool) {
			byKey = byKey && nonNegative(kv)
			if !valid {
				state = nil
			}
			refs = append(refs, refOf(key, len(states)))
			states, kvs = append(states, state), append(kvs, kv...)
		})
	}
	ts.refs, ts.states, ts.kvs = refs, states, kvs
	sortRefs(refs)
	for i := range refs {
		if i == 0 || !refs[i].sameKey(refs[i-1]) {
			keys++
		}
	}
	slab := make([]float64, 0, keys*width)
	t.Rows = make([][]float64, 0, keys)
	for i := 0; i < len(refs); {
		head := refs[i]
		state := states[head.idx]
		copied := false
		for i++; i < len(refs) && refs[i].sameKey(head); i++ {
			next := states[refs[i].idx]
			switch {
			case state == nil:
				// Already untrustworthy: nothing later redeems the key.
			case next == nil || reduce == nil:
				state = nil
			default:
				if !copied {
					ts.merged = append(ts.merged[:0], state...)
					state, copied = ts.merged, true
				}
				reduce(state, next)
			}
		}
		if state != nil {
			at := len(slab)
			slab = exec.AppendOutCols(st, state, append(slab, kvs[int(head.idx)*nk:int(head.idx+1)*nk]...))
			t.Rows = append(t.Rows, slab[at:len(slab):len(slab)])
		}
	}
	if !byKey {
		t.Sort()
	}
	return t, keys
}
