package compiler

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"perfq/internal/fold"
	"perfq/internal/lang"
	"perfq/internal/queries"
	"perfq/internal/trace"
)

func compile(t *testing.T, src string) *Plan {
	t.Helper()
	chk, err := lang.Check(lang.MustParse(src))
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	plan, err := Compile(chk)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return plan
}

// TestFig2LinearityColumn reproduces the paper's Figure 2 "Linear in
// state?" column through the full frontend+compiler path: the switch
// program for each example must carry the expected merge class.
func TestFig2LinearityColumn(t *testing.T) {
	for _, ex := range queries.Fig2 {
		plan := compile(t, ex.Source)
		if len(plan.Programs) == 0 {
			t.Fatalf("%s: no switch program", ex.Name)
		}
		sp := plan.Programs[0]
		gotLinear := sp.Fold.Merge == fold.MergeLinear
		if gotLinear != ex.Linear {
			t.Errorf("%s: linear-in-state = %v, paper says %v", ex.Name, gotLinear, ex.Linear)
		}
	}
}

func TestLossRateFusesIntoOneStore(t *testing.T) {
	ex := queries.ByName("Per-flow loss rate")
	plan := compile(t, ex.Source)
	if len(plan.Programs) != 1 {
		t.Fatalf("loss rate should fuse R1 and R2 into one store, got %d programs", len(plan.Programs))
	}
	sp := plan.Programs[0]
	if len(sp.Members) != 2 {
		t.Fatalf("fused store has %d members", len(sp.Members))
	}
	// Two counters + two presence counters.
	if sp.Fold.StateLen() != 4 {
		t.Errorf("fused state length = %d, want 4", sp.Fold.StateLen())
	}
	if sp.Fold.Merge != fold.MergeLinear {
		t.Errorf("fused loss-rate fold should be linear, got %v", sp.Fold.Merge)
	}
	// R3 must not create a program.
	if plan.ByName["R3"].Kind != KindJoin {
		t.Error("R3 should be a join stage")
	}
}

func TestDistinctKeysDoNotFuse(t *testing.T) {
	src := "R1 = SELECT COUNT GROUPBY srcip\nR2 = SELECT COUNT GROUPBY dstip\n"
	plan := compile(t, src)
	if len(plan.Programs) != 2 {
		t.Errorf("different keys must not fuse: %d programs", len(plan.Programs))
	}
}

func TestOutOfSeqNeedsFirstPacket(t *testing.T) {
	ex := queries.ByName("TCP out of sequence")
	plan := compile(t, ex.Source)
	sp := plan.Programs[0]
	if sp.Fold.Merge != fold.MergeLinear {
		t.Fatalf("outofseq merge = %v", sp.Fold.Merge)
	}
	if !sp.Fold.Linear.NeedsFirstPacket {
		t.Error("outofseq should need a first-packet snapshot (history variable in the condition)")
	}
}

func TestKeySpecPackedRoundTrip(t *testing.T) {
	ks := newKeySpecFields([]trace.FieldID{
		trace.FieldSrcIP, trace.FieldDstIP, trace.FieldSrcPort, trace.FieldDstPort, trace.FieldProto,
	})
	if !ks.Packed {
		t.Fatal("5tuple key should pack into 13 bytes")
	}
	vals := []float64{0xC0A80101, 0x0A000001, 443, 51515, 6}
	key := ks.Pack(vals)
	got := make([]float64, 5)
	ks.Unpack(binary.BigEndian.Uint64(key[0:8]), binary.BigEndian.Uint64(key[8:16]), got)
	for i := range vals {
		if got[i] != vals[i] {
			t.Errorf("component %d: %v != %v", i, got[i], vals[i])
		}
	}
}

func TestKeySpecDigestMode(t *testing.T) {
	// pkt_uniq + 5tuple = 8+13 = 21 bytes: digest mode.
	ks := newKeySpecFields([]trace.FieldID{
		trace.FieldPktUniq,
		trace.FieldSrcIP, trace.FieldDstIP, trace.FieldSrcPort, trace.FieldDstPort, trace.FieldProto,
	})
	if ks.Packed {
		t.Fatal("21-byte key should use digest mode")
	}
	a := ks.Pack([]float64{1, 2, 3, 4, 5, 6})
	b := ks.Pack([]float64{1, 2, 3, 4, 5, 7})
	if a == b {
		t.Error("distinct keys digest identically")
	}
	c := ks.Pack([]float64{1, 2, 3, 4, 5, 6})
	if a != c {
		t.Error("digest not deterministic")
	}
}

func TestKeySpecValuesFromRecord(t *testing.T) {
	ks := newKeySpecFields([]trace.FieldID{trace.FieldQID, trace.FieldProto})
	rec := &trace.Record{QID: trace.MakeQueueID(2, 9), Proto: 17}
	vals := make([]float64, 2)
	ks.Values(rec, vals)
	if vals[0] != float64(trace.MakeQueueID(2, 9)) || vals[1] != 17 {
		t.Errorf("Values = %v", vals)
	}
}

func TestCompiledWhereLowersToFieldRefs(t *testing.T) {
	plan := compile(t, "SELECT COUNT GROUPBY 5tuple WHERE tout == infinity\n")
	st := plan.Stages[0]
	if st.Where == nil {
		t.Fatal("WHERE dropped")
	}
	rec := &trace.Record{Tout: trace.Infinity}
	if fold.EvalExpr(st.Where, &fold.Input{Rec: rec}, nil) != 1 {
		t.Error("drop predicate does not match a dropped packet")
	}
	rec2 := &trace.Record{Tout: 100}
	if fold.EvalExpr(st.Where, &fold.Input{Rec: rec2}, nil) != 0 {
		t.Error("drop predicate matches a delivered packet")
	}
}

func TestAvgProjectsSumOverCount(t *testing.T) {
	plan := compile(t, "SELECT AVG(pkt_len) GROUPBY srcip\n")
	st := plan.Stages[0]
	if st.Fold.StateLen() != 2 || len(st.Out) != 1 {
		t.Fatalf("avg stage: state %d out %d", st.Fold.StateLen(), len(st.Out))
	}
	state := []float64{90, 3}
	got := fold.EvalExpr(st.Out[0].Expr, &fold.Input{}, state)
	if got != 30 {
		t.Errorf("avg projection = %v, want 30", got)
	}
}

// TestOutputProjectionOverLimit: output projections are generated by the
// compiler (a state word, or AVG's sum/count), so no query text makes one
// deep; if one ever were, the stage would be rejected like every other
// site rather than left without code.
func TestOutputProjectionOverLimit(t *testing.T) {
	plan := compile(t, "R1 = SELECT AVG(pkt_len) GROUPBY srcip\n")
	st := plan.Stages[0]
	if st.OutCodes[0] == nil || st.OutStateIdx[0] != -1 {
		t.Fatalf("avg projection: code %v, state index %d; want a code and no direct state word", st.OutCodes[0], st.OutStateIdx[0])
	}
	var deep fold.Expr = fold.StateRef(0)
	for i := 0; i < 16; i++ {
		deep = fold.Bin{Op: fold.OpAdd, L: fold.StateRef(1), R: deep}
	}
	st.Out[0].Expr = deep
	err := plan.compileCodes()
	if err == nil {
		t.Fatal("17-register output projection compiled")
	}
	for _, frag := range []string{"stage R1:", "output column 1:", "more than 16 registers"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q does not mention %q", err, frag)
		}
	}
}

func TestUserFoldLowering(t *testing.T) {
	ex := queries.ByName("Latency EWMA")
	plan := compile(t, ex.Source)
	st := plan.Stages[0]
	// Drive the lowered fold directly.
	state := make([]float64, st.Fold.StateLen())
	st.Fold.Init(state)
	rec := &trace.Record{Tin: 100, Tout: 300}
	st.Fold.Update(state, &fold.Input{Rec: rec})
	want := 0.125 * 200.0
	if math.Abs(state[0]-want) > 1e-12 {
		t.Errorf("ewma after one packet = %v, want %v", state[0], want)
	}
}

func TestStoreTooWide(t *testing.T) {
	// Eight single-state aggregates exactly fill MaxState: a
	// single-member store spends no presence counter, so this fits.
	fits := "SELECT COUNT, SUM(pkt_len), SUM(payload_len), SUM(tin), SUM(tout), SUM(qin), SUM(qout), SUM(tcpseq) GROUPBY srcip\n"
	chk, err := lang.Check(lang.MustParse(fits))
	if err != nil {
		t.Fatal(err)
	}
	if _, err = Compile(chk); err != nil {
		t.Errorf("eight single-state aggregates should fit MaxState: %v", err)
	}

	// A ninth pushes the stage's fused fold over the budget.
	tooWide := "SELECT COUNT, SUM(pkt_len), SUM(payload_len), SUM(tin), SUM(tout), SUM(qin), SUM(qout), SUM(tcpseq), SUM(tcpflags) GROUPBY srcip\n"
	chk, err = lang.Check(lang.MustParse(tooWide))
	if err != nil {
		t.Fatal(err)
	}
	_, err = Compile(chk)
	if err == nil {
		t.Error("over-wide store accepted")
	} else if !strings.Contains(err.Error(), "state") {
		t.Errorf("error %q should mention state budget", err)
	}
}

func TestOverflowingFusionFallsBackToSeparateStores(t *testing.T) {
	// Five COUNT queries on one key cannot share one store (10 state
	// words); the compiler must split them rather than fail.
	src := "R1 = SELECT COUNT GROUPBY srcip\nR2 = SELECT COUNT GROUPBY srcip WHERE proto == 6\nR3 = SELECT COUNT GROUPBY srcip WHERE proto == 17\nR4 = SELECT COUNT GROUPBY srcip WHERE pkt_len > 100\nR5 = SELECT COUNT GROUPBY srcip WHERE pkt_len > 1000\n"
	plan := compile(t, src)
	if len(plan.Programs) != 2 {
		t.Errorf("expected 4+1 members split across 2 programs, got %d programs", len(plan.Programs))
	}
	total := 0
	for _, sp := range plan.Programs {
		total += len(sp.Members)
		if sp.Fold.Merge != fold.MergeLinear {
			t.Errorf("split program lost linearity: %v", sp.Fold.Merge)
		}
	}
	if total != 5 {
		t.Errorf("members across programs = %d, want 5", total)
	}
}

func TestStageSchemas(t *testing.T) {
	ex := queries.ByName("Per-flow loss rate")
	plan := compile(t, ex.Source)
	r3 := plan.ByName["R3"]
	want := []string{"srcip", "dstip", "srcport", "dstport", "proto", "lossrate"}
	if len(r3.Schema) != len(want) {
		t.Fatalf("R3 schema %v", r3.Schema)
	}
	for i := range want {
		if r3.Schema[i] != want[i] {
			t.Errorf("R3 schema[%d] = %q, want %q", i, r3.Schema[i], want[i])
		}
	}
	if r3.NumKeyCols() != 5 {
		t.Errorf("R3 key cols = %d", r3.NumKeyCols())
	}
}
