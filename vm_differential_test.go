package perfq

import (
	"math"
	"runtime"
	"testing"
	"time"

	"perfq/internal/compiler"
	"perfq/internal/fold"
	"perfq/internal/queries"
	"perfq/internal/switchsim"
	"perfq/internal/trace"
	"perfq/internal/tracegen"
)

// This file is the VM-vs-interpreter differential suite over the paper's
// own workloads: for every Figure 2 query (and the deepest expression the
// register file admits at every site query text can put one), every
// compiled artifact in the plan — fold bodies, WHERE predicates,
// SELECT/JOIN/output columns, and linear-merge coefficient programs —
// must agree bit-for-bit with the reference tree interpreter on a real
// record stream.

func diffRecords(t *testing.T) []trace.Record {
	t.Helper()
	cfg := tracegen.DCConfig(21, 500*time.Millisecond)
	cfg.DropProb = 0.01
	recs, err := trace.Collect(tracegen.New(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 1000 {
		t.Fatalf("short trace: %d records", len(recs))
	}
	return recs
}

// bitsEq is bit-exact equality (+0 and -0 differ), except that any NaN
// equals any NaN: Go leaves unspecified which payload an operation on two
// NaNs returns, and the VM and the interpreter may order an addition's
// operands differently.
func bitsEq(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b
}

// TestFig2VMMatchesInterpreter checks vm(program, record) ==
// interpreter(program, record) across every Figure 2 query and every
// at-the-register-limit query of compile_limit_test.go.
func TestFig2VMMatchesInterpreter(t *testing.T) {
	recs := diffRecords(t)
	diff := func(name, src string) {
		t.Run(name, func(t *testing.T) { diffPlan(t, MustCompile(src).Plan(), recs) })
	}
	for _, ex := range queries.Fig2 {
		diff(ex.Name, ex.Source)
	}
	for _, site := range limitSites {
		diff("at limit: "+site.name, site.query(site.limit))
	}
}

// diffPlan holds every compiled artifact of a plan to the tree
// interpreter over recs.
func diffPlan(t *testing.T, plan *compiler.Plan, recs []trace.Record) {
	t.Helper()
	for _, sp := range plan.Programs {
		f := sp.Fold
		if f.Code == nil {
			t.Fatalf("store %s: no compiled code", f.Name())
		}
		diffFold(t, f, recs)
		if f.Linear != nil {
			diffLinear(t, f, recs)
		}
	}
	for _, st := range plan.Stages {
		diffStageCodes(t, st, recs)
	}
}

// diffFold replays the record stream through the compiled body and the
// interpreter (Program.Update on the fold's own IR) in lockstep.
func diffFold(t *testing.T, f *fold.Func, recs []trace.Record) {
	t.Helper()
	sv := make([]float64, f.StateLen())
	si := make([]float64, f.StateLen())
	f.Init(sv)
	f.Init(si)
	for r := range recs {
		in := fold.Input{Rec: &recs[r]}
		f.Code.Run(sv, &in)
		f.Prog.Update(si, &in)
		for i := range sv {
			if !bitsEq(sv[i], si[i]) {
				t.Fatalf("%s: record %d state[%d]: vm=%v interp=%v", f.Name(), r, i, sv[i], si[i])
			}
		}
	}
}

// refUpdateLinear is the tree-interpreter reference for
// LinearSpec.UpdateLinear: EvalExpr applied directly to the spec's public
// A and B trees (nil ⇒ 0) against the pre-update state, then the textbook
// S' = A·S + B, P' = A·P.
func refUpdateLinear(ls *fold.LinearSpec, state, p []float64, in *fold.Input) {
	m := ls.Dim()
	coef := func(e fold.Expr) float64 {
		if e == nil {
			return 0
		}
		return fold.EvalExpr(e, in, state)
	}
	a, ns := make([]float64, m*m), make([]float64, m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			a[i*m+j] = coef(ls.A[i][j])
		}
	}
	for i := range ns {
		acc := a[i*m] * state[0]
		for k := 1; k < m; k++ {
			acc += a[i*m+k] * state[k]
		}
		ns[i] = acc + coef(ls.B[i])
	}
	copy(state, ns)
	fold.StepP(p, a, make([]float64, m*m), m)
}

// diffLinear checks the compiled coefficient path against the tree
// interpreter over the spec's expression trees on evolving state.
func diffLinear(t *testing.T, f *fold.Func, recs []trace.Record) {
	t.Helper()
	m := f.StateLen()
	sc := make([]float64, m)
	si := make([]float64, m)
	f.Init(sc)
	f.Init(si)
	pc := make([]float64, m*m)
	pi := make([]float64, m*m)
	fold.IdentityP(pc, m)
	fold.IdentityP(pi, m)
	aS, mS := make([]float64, m*m), make([]float64, m*m)
	for r := range recs[:min(len(recs), 2000)] {
		in := fold.Input{Rec: &recs[r]}
		f.Linear.UpdateLinear(sc, pc, &in, aS, mS)
		refUpdateLinear(f.Linear, si, pi, &in)
		for i := range sc {
			if !bitsEq(sc[i], si[i]) {
				t.Fatalf("%s: record %d state[%d]: compiled=%v interp=%v", f.Name(), r, i, sc[i], si[i])
			}
		}
		for i := range pc {
			if !bitsEq(pc[i], pi[i]) {
				t.Fatalf("%s: record %d P[%d]: compiled=%v interp=%v", f.Name(), r, i, pc[i], pi[i])
			}
		}
	}
}

// diffStageCodes checks a stage's compiled WHERE, column and output
// projection codes against the interpreter per record, and the plan
// invariant that a code is nil iff its expression is. Stages over the raw
// table see the record; derived and join stages see a row of the width
// their input schema has, filled from the record's fields (and a state
// vector filled the same way for the projections).
func diffStageCodes(t *testing.T, st *compiler.Stage, recs []trace.Record) {
	t.Helper()
	where, whereCode, cols, colCodes := st.Where, st.WhereCode, st.Cols, st.ColCodes
	width := 0
	switch {
	case st.Kind == compiler.KindJoin:
		where, whereCode, cols, colCodes = st.JoinWhere, st.JoinWhereCode, st.JoinCols, st.JoinColCodes
		width = len(st.Left.Schema) + len(st.Right.Schema)
	case st.Input != nil:
		width = len(st.Input.Schema)
	}
	if (where == nil) != (whereCode == nil) {
		t.Fatalf("stage %s: WHERE %v has code %v", st.Name, where, whereCode)
	}
	if len(colCodes) != len(cols) || len(st.OutCodes) != len(st.Out) {
		t.Fatalf("stage %s: %d column codes for %d columns, %d output codes for %d outputs",
			st.Name, len(colCodes), len(cols), len(st.OutCodes), len(st.Out))
	}
	fill := func(dst []float64, rec *trace.Record) {
		for j := range dst {
			dst[j] = float64(rec.Field(trace.FieldID(1 + j%(trace.NumFields-1))))
		}
	}
	row := make([]float64, width)
	var state []float64
	if st.Fold != nil {
		state = make([]float64, st.Fold.StateLen())
	}
	for r := range recs[:min(len(recs), 2000)] {
		in := fold.Input{Rec: &recs[r]}
		if width > 0 {
			fill(row, &recs[r])
			in = fold.Input{Cols: row}
		}
		if where != nil {
			if got, want := whereCode.Eval(&in, nil), fold.EvalExpr(where, &in, nil); !bitsEq(got, want) || whereCode.EvalBool(&in, nil) != (want != 0) {
				t.Fatalf("stage %s: record %d WHERE vm=%v interp=%v", st.Name, r, got, want)
			}
		}
		for i, c := range cols {
			if got, want := colCodes[i].Eval(&in, nil), fold.EvalExpr(c, &in, nil); !bitsEq(got, want) {
				t.Fatalf("stage %s: record %d col %d vm=%v interp=%v", st.Name, r, i, got, want)
			}
		}
		fill(state, &recs[r])
		for i, oc := range st.Out {
			if got, want := st.OutCodes[i].Eval(&in, state), fold.EvalExpr(oc.Expr, &in, state); !bitsEq(got, want) {
				t.Fatalf("stage %s: record %d output %d vm=%v interp=%v", st.Name, r, i, got, want)
			}
		}
	}
}

// TestDatapathSteadyStateZeroAllocs pins the tentpole property: once a
// flow's cache entry exists, processing its packets allocates nothing.
func TestDatapathSteadyStateZeroAllocs(t *testing.T) {
	q := MustCompile(queries.ByName("Latency EWMA").Source)
	var cfg runConfig
	WithCache(1<<12, 8)(&cfg)
	d, err := switchsim.New(q.Plan(), cfg.sw)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.Record{Tin: 100, Tout: 250, PktLen: 1500}
	d.Process(&rec) // insert the flow
	if n := testing.AllocsPerRun(2000, func() { d.Process(&rec) }); n != 0 {
		t.Errorf("steady-state Process allocates %v per packet, want 0", n)
	}
}

// TestDatapathAmortizedAllocs drives a realistic multi-flow stream and
// bounds the amortized allocation rate (inserts touch the digest-key
// slab only in digest mode; the hit path must stay at zero).
func TestDatapathAmortizedAllocs(t *testing.T) {
	recs := diffRecords(t)
	q := MustCompile(queries.ByName("Latency EWMA").Source)
	var cfg runConfig
	WithCache(1<<14, 8)(&cfg)
	d, err := switchsim.New(q.Plan(), cfg.sw)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		d.Process(&recs[i]) // warm every flow
	}
	mallocs := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.Mallocs
	}
	before := mallocs()
	for i := range recs {
		d.Process(&recs[i])
	}
	perPacket := float64(mallocs()-before) / float64(len(recs))
	if perPacket > 0.01 {
		t.Errorf("amortized allocs/packet = %.4f, want ~0", perPacket)
	}
}
