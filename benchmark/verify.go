package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"perfq"
	"perfq/internal/compiler"
	"perfq/internal/exec"
	"perfq/internal/fold"
	"perfq/internal/netstore"
	"perfq/internal/trace"
	"perfq/internal/window"
)

// ewmaTol is the documented last-bit tolerance of the §3.2 merge
// reconstruction for fractional-decay folds (relative, floor 1) — the
// repo's equivalence suites use the same figure. Integer-coefficient
// folds agree bit-for-bit and pass it trivially.
const ewmaTol = 1e-12

// poolReadback bounds how many keys are fetched from the backing tier
// when checking it against truth (one loopback round trip each); the
// tier's key count is checked in full.
const poolReadback = 4096

// verify holds the verification trial's output to ground truth and
// returns the software baseline's cost (ns per record of the
// unbounded-memory reference) — context for every pkts/s figure.
func (w *workload) verify(in *inputs, out *outcome) (truthNsPerPkt float64, err error) {
	plan := in.q.Plan()
	t0 := time.Now()
	if w.window > 0 && !w.pool {
		spec := window.Spec{Count: w.window}
		truth, err := window.GroundTruth(plan, nil, in.recs, spec)
		if err != nil {
			return 0, err
		}
		truthNsPerPkt = float64(time.Since(t0)) / float64(in.n)
		if len(truth) != len(out.tables) {
			return 0, fmt.Errorf("%d windows emitted, ground truth has %d", len(out.tables), len(truth))
		}
		for k, want := range truth {
			for i, st := range plan.Stages {
				if err := checkStage(st, out.tables[k][i], want[st.Name]); err != nil {
					return 0, fmt.Errorf("window %d: %w", k, err)
				}
			}
		}
		return truthNsPerPkt, nil
	}

	var opts []perfq.RunOption
	if in.topo != nil {
		opts = append(opts, perfq.WithFabric(in.topo))
	}
	var src perfq.Source = perfq.Records(in.recs)
	if in.path != "" {
		f, err := os.Open(in.path)
		if err != nil {
			return 0, err
		}
		defer f.Close()
		if src, err = trace.NewReader(f); err != nil {
			return 0, err
		}
	}
	truth, err := in.q.GroundTruth(src, opts...)
	if err != nil {
		return 0, err
	}
	truthNsPerPkt = float64(time.Since(t0)) / float64(in.n)
	if w.pool {
		return truthNsPerPkt, checkPool(plan, out, truth)
	}
	for i, st := range plan.Stages {
		want := truth.Table(st.Name)
		if err := checkStage(st, out.tables[0][i], &exec.Table{Schema: want.Schema, Rows: want.Rows}); err != nil {
			return 0, err
		}
	}
	if out.unrouted != 0 {
		return 0, fmt.Errorf("%d records carried a switch the topology lacks", out.unrouted)
	}
	return truthNsPerPkt, nil
}

// checkStage compares one stage's table with truth. Stores whose fold
// has no sound merge materialize only their valid (single-epoch) keys:
// every row present must equal truth's row for that key exactly. Every
// other stage must match row for row within ewmaTol.
func checkStage(st *compiler.Stage, got *perfq.Table, want *exec.Table) error {
	if got == nil || want == nil {
		return fmt.Errorf("stage %s: missing table", st.Name)
	}
	if st.OnSwitch && st.Program.Fold.Merge == fold.MergeNone {
		nk := st.NumKeyCols()
		index := make(map[[8]float64][]float64, len(want.Rows))
		for _, row := range want.Rows {
			index[keyOf(row, nk)] = row
		}
		for _, row := range got.Rows {
			wrow, ok := index[keyOf(row, nk)]
			if !ok {
				return fmt.Errorf("stage %s: key %v absent from ground truth", st.Name, row[:nk])
			}
			if err := rowWithin(row, wrow, 0); err != nil {
				return fmt.Errorf("stage %s: key %v: %w", st.Name, row[:nk], err)
			}
		}
		return nil
	}
	if len(got.Rows) != len(want.Rows) {
		return fmt.Errorf("stage %s: %d rows, ground truth has %d", st.Name, len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		if err := rowWithin(got.Rows[i], want.Rows[i], ewmaTol); err != nil {
			return fmt.Errorf("stage %s: row %d: %w", st.Name, i, err)
		}
	}
	return nil
}

func keyOf(row []float64, nk int) (k [8]float64) {
	copy(k[:], row[:nk])
	return k
}

func rowWithin(got, want []float64, rel float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d columns, want %d", len(got), len(want))
	}
	for j := range want {
		g, w := got[j], want[j]
		if math.Float64bits(g) == math.Float64bits(w) {
			continue
		}
		if rel > 0 && math.Abs(g-w) <= rel*math.Max(1, math.Abs(w)) {
			continue
		}
		return fmt.Errorf("col %d: %v != %v (tol %g)", j, g, w, rel)
	}
	return nil
}

// checkPool settles the backing tier's books and reads it back: every
// eviction offered was acked, none dropped, and — since the backends
// never reset while the datapath's own stores tumble — the union of
// their stores is the whole trace's state, which must equal truth.
func checkPool(plan *compiler.Plan, out *outcome, truth *perfq.Results) error {
	b := out.books
	if b.Acked != b.Offered || b.Dropped != 0 {
		return fmt.Errorf("pool books: offered %d acked %d dropped %d (overflow %d)", b.Offered, b.Acked, b.Dropped, b.Overflow)
	}
	st := plan.Results[len(plan.Results)-1]
	want := truth.Table(st.Name)
	if b.Keys != uint64(len(want.Rows)) {
		return fmt.Errorf("backends hold %d keys, ground truth has %d", b.Keys, len(want.Rows))
	}
	rd, err := netstore.DialPool(out.tier.cluster.Addrs(), st.Program.Fold, netstore.PoolConfig{})
	if err != nil {
		return err
	}
	defer rd.Close()
	nk := st.NumKeyCols()
	stride := max(1, len(want.Rows)/poolReadback)
	for i := 0; i < len(want.Rows); i += stride {
		row := want.Rows[i]
		state, found, invalid, err := rd.Get(st.Key.Pack(row[:nk]))
		if err != nil {
			return err
		}
		if !found || invalid {
			return fmt.Errorf("backing tier: key %v found=%v invalid=%v", row[:nk], found, invalid)
		}
		if err := rowWithin(exec.GroupRow(st, row[:nk], state), row, ewmaTol); err != nil {
			return fmt.Errorf("backing tier: key %v: %w", row[:nk], err)
		}
	}
	return nil
}
