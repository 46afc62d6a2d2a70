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

// diffLinear checks the compiled coefficients against the tree
// interpreter over the spec's expression trees (nil: 0) on evolving
// state: A, as
// the m×m row's EvalA reads it, and for a block-evaluable spec every
// coefficient column EvalCoefs fills.
func diffLinear(t *testing.T, f *fold.Func, recs []trace.Record) {
	t.Helper()
	ls, m := f.Linear, f.StateLen()
	st, a := make([]float64, m), make([]float64, m*m)
	f.Init(st)
	block, _ := ls.BlockEvaluable()
	cols := ls.NewCoefBlock()
	for r := range recs[:min(len(recs), 2000)] {
		in := fold.Input{Rec: &recs[r]}
		ls.EvalA(&in, st, a)
		for i := range a {
			if want := fold.EvalExpr(ls.A[i/m][i%m], &in, st); !bitsEq(a[i], want) {
				t.Fatalf("%s: record %d A[%d]: compiled=%v interp=%v", f.Name(), r, i, a[i], want)
			}
		}
		if block {
			ls.EvalCoefs(&in, cols)
			for c := 0; c < 2*m; c++ {
				e := ls.B[c%m]
				if c < m {
					e = ls.A[c][c]
				}
				if got, want := cols[c*fold.BlockSize], fold.EvalExpr(e, &in, st); !bitsEq(got, want) {
					t.Fatalf("%s: record %d coefficient column %d: compiled=%v interp=%v", f.Name(), r, c, got, want)
				}
			}
		}
		f.Update(st, &in)
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
