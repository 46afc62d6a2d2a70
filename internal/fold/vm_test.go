package fold

import (
	"errors"
	"math"
	"strings"
	"testing"

	"perfq/internal/trace"
)

// ---- differential helpers ----

// sampleRecords covers the value classes field expressions meet: zeros,
// small ints, large timestamps, and the drop sentinel.
func sampleRecords() []trace.Record {
	return []trace.Record{
		{},
		{Tin: 10, Tout: 25, PktLen: 1500, TCPSeq: 7, PayloadLen: 512},
		{Tin: 1e9, Tout: 2e9, PktLen: 64, TCPSeq: 1 << 30},
		{Tin: 5, Tout: trace.Infinity, PktLen: 9000},
		{Tin: 123456789, Tout: 123456790, TCPSeq: 4294967295, PayloadLen: 1},
	}
}

// eqBits is the differential suites' float equality: bit-exact, so +0
// and -0 differ, except that any two NaNs are equal. Go does not specify
// which NaN payload an operation on two NaNs returns, and the compiler
// may commute an addition, so the same build can print different
// payloads from the VM and the interpreter (s0 = K + s0 with both NaN
// does under -race).
func eqBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b
}

// diffProgram runs code and interpreter over the same record stream and
// asserts bit-identical state trajectories.
func diffProgram(t *testing.T, p *Program, recs []trace.Record) {
	t.Helper()
	code, err := CompileProgram(p)
	if err != nil {
		t.Fatalf("%s: compile: %v", p.Name, err)
	}
	sv := make([]float64, p.NumState)
	si := make([]float64, p.NumState)
	p.Init(sv)
	p.Init(si)
	for r := range recs {
		in := Input{Rec: &recs[r]}
		code.Run(sv, &in)
		p.Update(si, &in)
		for i := range sv {
			if !eqBits(sv[i], si[i]) {
				t.Fatalf("%s: record %d: state[%d] vm=%v interp=%v\ncode:\n%v",
					p.Name, r, i, sv[i], si[i], code)
			}
		}
	}
}

// ---- built-in and hand-written programs ----

func TestVMMatchesInterpreterBuiltins(t *testing.T) {
	lat := Bin{Op: OpSub, L: FieldRef(trace.FieldTout), R: FieldRef(trace.FieldTin)}
	for _, f := range []*Func{
		Count(),
		Sum(lat),
		Max(FieldRef(trace.FieldPktLen)),
		Min(FieldRef(trace.FieldPktLen)),
		Avg(lat),
		Ewma(lat, 0.125),
	} {
		diffProgram(t, f.Prog, sampleRecords())
	}
}

func TestVMMatchesInterpreterControlFlow(t *testing.T) {
	// Exercises If/Else, CondExpr, And/Or/Not, min/max/abs, division by
	// zero, negation, and constant folding in one program.
	p := &Program{
		Name:     "kitchen-sink",
		NumState: 4,
		Body: []Stmt{
			Assign{Dst: 0, RHS: Bin{Op: OpAdd, L: StateRef(0), R: Const(1)}},
			If{
				Cond: Bin{
					Op: OpAnd,
					L:  Bin{Op: OpGt, L: FieldRef(trace.FieldTout), R: FieldRef(trace.FieldTin)},
					R:  Not{X: Bin{Op: OpEq, L: FieldRef(trace.FieldPktLen), R: Const(0)}},
				},
				Then: []Stmt{
					Assign{Dst: 1, RHS: Bin{
						Op: OpDiv,
						L:  Bin{Op: OpSub, L: FieldRef(trace.FieldTout), R: FieldRef(trace.FieldTin)},
						R:  FieldRef(trace.FieldPktLen),
					}},
				},
				Else: []Stmt{
					Assign{Dst: 1, RHS: Neg{X: StateRef(1)}},
				},
			},
			Assign{Dst: 2, RHS: Call{Fn: FnMax, Args: []Expr{
				StateRef(2),
				Call{Fn: FnAbs, Args: []Expr{Bin{Op: OpSub, L: StateRef(1), R: Const(3)}}},
			}}},
			Assign{Dst: 3, RHS: CondExpr{
				P: Bin{
					Op: OpOr,
					L:  Bin{Op: OpLe, L: StateRef(0), R: Const(2)},
					R:  Const(0),
				},
				T: Bin{Op: OpMul, L: Const(2), R: Bin{Op: OpAdd, L: Const(1), R: Const(2)}}, // folds to 6
				E: Bin{Op: OpDiv, L: StateRef(3), R: Const(0)},                              // /0 -> 0
			}},
		},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	diffProgram(t, p, sampleRecords())
}

// TestVMNaNPayloads: with K and s0 both NaN, s0 = K + s0 returns one of
// the two payloads, and which one depends on the build (the VM's addk
// computes s0 + K); the differential accepts any NaN for any NaN.
func TestVMNaNPayloads(t *testing.T) {
	k, s0 := math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002)
	p := &Program{Name: "nan", NumState: 1, S0: []float64{s0}, Body: []Stmt{
		Assign{Dst: 0, RHS: Bin{Op: OpAdd, L: Const(k), R: StateRef(0)}},
	}}
	diffProgram(t, p, sampleRecords())
}

// TestVMExprMatchesInterpreter: arithmetic, comparisons and logic, with
// NaN, ±0 and plain numbers as conditions and as and/or/not operands.
func TestVMExprMatchesInterpreter(t *testing.T) {
	in := Input{Cols: []float64{3, -7, 0.5, math.NaN()}}
	negZero := Neg{X: Bin{Op: OpMul, L: ColRef(2), R: Const(0)}}
	exprs := []Expr{
		Bin{Op: OpMul, L: ColRef(0), R: ColRef(1)},
		Bin{Op: OpDiv, L: ColRef(0), R: ColRef(3)},
		Call{Fn: FnMin, Args: []Expr{ColRef(2), ColRef(3)}},
		CondExpr{P: Bin{Op: OpLt, L: ColRef(1), R: Const(0)}, T: Neg{X: ColRef(1)}, E: ColRef(0)},
		Bin{Op: OpAdd, L: ColRef(0), R: Const(2.5)},
		Bin{Op: OpSub, L: Const(2.5), R: ColRef(0)},
		Bin{Op: OpNe, L: ColRef(3), R: ColRef(3)},
		Bin{Op: OpAnd, L: Bin{Op: OpLt, L: ColRef(0), R: Const(10)}, R: Bin{Op: OpGe, L: ColRef(1), R: Const(-10)}},
		Bin{Op: OpOr, L: Const(0), R: Not{X: Bin{Op: OpEq, L: ColRef(2), R: Const(0.5)}}},
		Bin{Op: OpLt, L: Const(1), R: ColRef(0)},
		Bin{Op: OpMul, L: Bin{Op: OpGt, L: ColRef(0), R: ColRef(1)}, R: ColRef(1)},
		Not{X: ColRef(3)},
		Not{X: negZero},
		Bin{Op: OpAnd, L: ColRef(2), R: ColRef(3)},
		Bin{Op: OpOr, L: negZero, R: ColRef(1)},
		CondExpr{P: ColRef(3), T: ColRef(0), E: ColRef(1)},
		CondExpr{P: negZero, T: ColRef(0), E: ColRef(1)},
	}
	for _, e := range exprs {
		code, err := CompileExpr(e)
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		got, want := code.Eval(&in, nil), EvalExpr(e, &in, nil)
		if !eqBits(got, want) || code.EvalBool(&in, nil) != (want != 0) {
			t.Errorf("%v: vm=%v interp=%v", e, got, want)
		}
	}
}

// TestVMDenseFieldsMatchDirect: the two opField paths (dense vector vs
// Record.Field dispatch) must agree.
func TestVMDenseFieldsMatchDirect(t *testing.T) {
	e := Bin{Op: OpSub, L: FieldRef(trace.FieldTout), R: FieldRef(trace.FieldTin)}
	code, err := CompileExpr(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range sampleRecords() {
		rec := rec
		direct := Input{Rec: &rec}
		var fields [trace.NumFields]float64
		for _, f := range FieldIDs(code.FieldMask()) {
			fields[f] = float64(rec.Field(f))
		}
		dense := Input{Rec: &rec, Fields: fields[:]}
		if a, b := code.Eval(&direct, nil), code.Eval(&dense, nil); !eqBits(a, b) {
			t.Errorf("dense=%v direct=%v", b, a)
		}
	}
}

// deepExpr nests n right-leaning additions over column 0: lowering it
// needs n+1 registers (each level parks its left operand one register
// up), and it evaluates to 2(n+1)+1 when the column holds 2.
func deepExpr(n int) Expr {
	var e Expr = ColRef(0)
	for i := 0; i < n; i++ {
		e = Bin{Op: OpAdd, L: ColRef(0), R: e}
	}
	return Bin{Op: OpAdd, L: e, R: Const(1)}
}

// TestVMRegisterOverflowRejected: an expression deeper than the register
// file is a compile error at every entry — there is no evaluator to fall
// back to — while the deepest shape that fits compiles and agrees with
// the interpreter.
func TestVMRegisterOverflowRejected(t *testing.T) {
	in := Input{Cols: []float64{2}}
	fits := deepExpr(maxRegs - 1)
	code, err := CompileExpr(fits)
	if err != nil {
		t.Fatalf("%d-register expression: %v", maxRegs, err)
	}
	if code.NumRegs() != maxRegs {
		t.Fatalf("at-limit expression uses %d registers, want %d", code.NumRegs(), maxRegs)
	}
	if got, want := code.Eval(&in, nil), EvalExpr(fits, &in, nil); !eqBits(got, want) || got != 2*maxRegs+1 {
		t.Fatalf("at-limit expression: vm=%v interp=%v", got, want)
	}

	deep := deepExpr(maxRegs)
	if _, err := CompileExpr(deep); !errors.Is(err, errTooDeep) {
		t.Fatalf("CompileExpr: err = %v, want errTooDeep", err)
	}
	if _, err := CompileExpr(Bin{Op: OpGt, L: deep, R: ColRef(1)}); !errors.Is(err, errTooDeep) {
		t.Fatalf("CompileExpr of a comparison: err = %v, want errTooDeep", err)
	}
	f := &Func{Prog: &Program{Name: "deep", NumState: 1, Body: []Stmt{Assign{Dst: 0, RHS: deep}}}}
	if err := f.EnsureCompiled(); !errors.Is(err, errTooDeep) || f.Code != nil {
		t.Fatalf("Func.EnsureCompiled: err = %v, code = %v; want errTooDeep and no code", err, f.Code)
	}
	ls := &LinearSpec{A: [][]Expr{{Const(1)}}, B: []Expr{deep}}
	if err := ls.EnsureCompiled(); !errors.Is(err, errTooDeep) || !strings.Contains(err.Error(), "B[0]") {
		t.Fatalf("LinearSpec.EnsureCompiled: err = %v, want errTooDeep naming B[0]", err)
	}
	lin := &Func{Prog: Count().Prog, Merge: MergeLinear, Linear: &LinearSpec{A: [][]Expr{{deep}}, B: []Expr{Const(1)}}}
	if err := lin.EnsureCompiled(); !errors.Is(err, errTooDeep) || !strings.Contains(err.Error(), "A[0][0]") {
		t.Fatalf("Func.EnsureCompiled (coefficient): err = %v, want errTooDeep naming A[0][0]", err)
	}
}

// The tree-interpreter reference for the coefficient path: EvalExpr
// applied directly to the spec's public A and B trees (nil ⇒ 0) against
// the pre-update state, then the textbook S' = A·S + B, P' = A·P.
func refCoef(e Expr, in *Input, state []float64) float64 {
	if e == nil {
		return 0
	}
	return EvalExpr(e, in, state)
}

func refEvalA(ls *LinearSpec, in *Input, state, dst []float64) {
	m := ls.Dim()
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			dst[i*m+j] = refCoef(ls.A[i][j], in, state)
		}
	}
}

func refEvalB(ls *LinearSpec, in *Input, state, dst []float64) {
	for i, e := range ls.B {
		dst[i] = refCoef(e, in, state)
	}
}

func refUpdateLinear(ls *LinearSpec, state, p []float64, in *Input) {
	m := ls.Dim()
	a, b, ns := make([]float64, m*m), make([]float64, m), make([]float64, m)
	refEvalA(ls, in, state, a)
	refEvalB(ls, in, state, b)
	for i := range ns {
		acc := a[i*m] * state[0]
		for k := 1; k < m; k++ {
			acc += a[i*m+k] * state[k]
		}
		ns[i] = acc + b[i]
	}
	copy(state, ns)
	StepP(p, a, make([]float64, m*m), m)
}

// TestLinearCompiledCoefficients: compiled EvalA/EvalB/UpdateLinear match
// the tree interpreter over the spec's expression trees bit for bit.
func TestLinearCompiledCoefficients(t *testing.T) {
	lat := Bin{Op: OpSub, L: FieldRef(trace.FieldTout), R: FieldRef(trace.FieldTin)}
	for _, f := range []*Func{Count(), Sum(lat), Avg(lat), Ewma(lat, 0.25)} {
		m := f.StateLen()
		compiled := f.Linear
		if err := compiled.EnsureCompiled(); err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		for _, rec := range sampleRecords() {
			rec := rec
			in := Input{Rec: &rec}
			state := make([]float64, m)
			for i := range state {
				state[i] = float64(i) + 0.5
			}
			ac, ap := make([]float64, m*m), make([]float64, m*m)
			compiled.EvalA(&in, state, ac)
			refEvalA(compiled, &in, state, ap)
			bc, bp := make([]float64, m), make([]float64, m)
			compiled.EvalB(&in, state, bc)
			refEvalB(compiled, &in, state, bp)
			for i := range ac {
				if !eqBits(ac[i], ap[i]) {
					t.Fatalf("%s: A[%d] compiled=%v interp=%v", f.Name(), i, ac[i], ap[i])
				}
			}
			for i := range bc {
				if !eqBits(bc[i], bp[i]) {
					t.Fatalf("%s: B[%d] compiled=%v interp=%v", f.Name(), i, bc[i], bp[i])
				}
			}

			sc := append([]float64(nil), state...)
			si := append([]float64(nil), state...)
			pc := make([]float64, m*m)
			pi := make([]float64, m*m)
			IdentityP(pc, m)
			IdentityP(pi, m)
			scratchA, scratchM := make([]float64, m*m), make([]float64, m*m)
			compiled.UpdateLinear(sc, pc, &in, scratchA, scratchM)
			refUpdateLinear(compiled, si, pi, &in)
			for i := range sc {
				if !eqBits(sc[i], si[i]) {
					t.Fatalf("%s: state[%d] compiled=%v interp=%v", f.Name(), i, sc[i], si[i])
				}
			}
			for i := range pc {
				if !eqBits(pc[i], pi[i]) {
					t.Fatalf("%s: P[%d] compiled=%v interp=%v", f.Name(), i, pc[i], pi[i])
				}
			}
		}
	}
}

// ---- allocation discipline ----

func TestVMZeroAllocs(t *testing.T) {
	lat := Bin{Op: OpSub, L: FieldRef(trace.FieldTout), R: FieldRef(trace.FieldTin)}
	f := Ewma(lat, 0.125)
	if err := f.EnsureCompiled(); err != nil {
		t.Fatal(err)
	}
	rec := trace.Record{Tin: 3, Tout: 17}
	in := Input{Rec: &rec}
	st := []float64{0}
	if n := testing.AllocsPerRun(1000, func() { f.Code.Run(st, &in) }); n != 0 {
		t.Errorf("Code.Run allocates %v per run", n)
	}
	code, err := CompileExpr(Bin{Op: OpGt, L: FieldRef(trace.FieldTout), R: Const(5)})
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() { code.EvalBool(&in, nil) }); n != 0 {
		t.Errorf("Code.EvalBool allocates %v per run", n)
	}
	p := make([]float64, 1)
	p[0] = 1
	aS, mS := make([]float64, 1), make([]float64, 1)
	if n := testing.AllocsPerRun(1000, func() { f.Linear.UpdateLinear(st, p, &in, aS, mS) }); n != 0 {
		t.Errorf("UpdateLinear allocates %v per run", n)
	}
}

// ---- benchmarks ----

// BenchmarkFoldEval compares the tree interpreter against the bytecode
// VM on the paper's running EWMA example (the per-packet state update).
func BenchmarkFoldEval(b *testing.B) {
	lat := Bin{Op: OpSub, L: FieldRef(trace.FieldTout), R: FieldRef(trace.FieldTin)}
	f := Ewma(lat, 0.125)
	rec := trace.Record{Tin: 3, Tout: 17}
	in := Input{Rec: &rec}
	st := []float64{0}

	b.Run("interpreter", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f.Prog.Update(st, &in)
		}
	})
	b.Run("vm", func(b *testing.B) {
		if err := f.EnsureCompiled(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f.Code.Run(st, &in)
		}
	})
}
