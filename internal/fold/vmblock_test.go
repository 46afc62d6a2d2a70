package fold

import (
	"testing"

	"perfq/internal/trace"
)

// fillBlock loads recs into a field-major block, populating every field.
func fillBlock(blk *InputBlock, recs []trace.Record) int {
	for l := range recs {
		for f := 1; f < trace.NumFields; f++ {
			blk.Fields[f<<blockShift|l] = float64(recs[l].Field(trace.FieldID(f)))
		}
	}
	return len(recs)
}

// blockExprs are stateless expressions, the conditional one included:
// every one of them lowers to straight-line code the vector loop runs.
func blockExprs() []Expr {
	lat := Bin{Op: OpSub, L: FieldRef(trace.FieldTout), R: FieldRef(trace.FieldTin)}
	return []Expr{
		lat,
		Bin{Op: OpDiv, L: lat, R: FieldRef(trace.FieldPktLen)}, // /0 lanes
		Bin{Op: OpMul, L: Const(0.125), R: FieldRef(trace.FieldPktLen)},
		Call{Fn: FnMax, Args: []Expr{lat, Const(100)}},
		Call{Fn: FnAbs, Args: []Expr{Bin{Op: OpSub, L: FieldRef(trace.FieldPktLen), R: Const(1500)}}},
		CondExpr{
			P: Bin{Op: OpGt, L: lat, R: Const(10)},
			T: FieldRef(trace.FieldPktLen),
			E: Neg{X: lat},
		},
	}
}

// blockConds are WHERE-shaped conditions: comparisons and logic, and
// numbers read as truth values (zero on the /0 lanes).
func blockConds() []Expr {
	lat := Bin{Op: OpSub, L: FieldRef(trace.FieldTout), R: FieldRef(trace.FieldTin)}
	return []Expr{
		Bin{Op: OpGt, L: lat, R: Const(14)},
		Bin{
			Op: OpAnd,
			L:  Bin{Op: OpGt, L: FieldRef(trace.FieldPktLen), R: Const(0)},
			R:  Bin{Op: OpLt, L: lat, R: Const(1e9)},
		},
		Bin{
			Op: OpOr,
			L:  Bin{Op: OpEq, L: FieldRef(trace.FieldPktLen), R: Const(64)},
			R:  Not{X: Bin{Op: OpLe, L: lat, R: Const(15)}},
		},
		Not{X: Bin{Op: OpDiv, L: lat, R: FieldRef(trace.FieldPktLen)}},
		Bin{Op: OpAnd, L: FieldRef(trace.FieldPktLen), R: lat},
	}
}

// TestEvalBlockMatchesScalar holds the vector loop to bit-identical
// agreement with the scalar Eval path over every lane, for every
// stateless expression and condition; a CondExpr is one of them (both
// arms, then a select), and only a code that reads per-key state must be
// reported as not vectorizable, which is what keeps it off the vector
// loop (switchsim and LinearSpec check at setup).
func TestEvalBlockMatchesScalar(t *testing.T) {
	recs := sampleRecords()
	// Pad past one lane-loop unroll boundary with varied records.
	for i := 0; len(recs) < BlockSize; i++ {
		recs = append(recs, trace.Record{Tin: int64(i), Tout: int64(3 * i), PktLen: uint32(i % 7 * 100)})
	}
	var blk InputBlock
	n := fillBlock(&blk, recs)
	var regs BlockRegs
	var out [BlockSize]float64

	sawCond := false
	for _, e := range blockExprs() {
		code, err := CompileExpr(e)
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		if _, cond := e.(CondExpr); cond {
			sawCond = true
		}
		if !code.Vectorizable() {
			t.Fatalf("%v: stateless code should be vectorizable", e)
		}
		code.EvalBlock(&blk, n, &regs, out[:])
		for l := 0; l < n; l++ {
			in := Input{Rec: &recs[l]}
			if got, want := out[l], code.Eval(&in, nil); !eqBits(got, want) {
				t.Errorf("%v: lane %d: block=%v scalar=%v", e, l, got, want)
			}
		}
	}
	if !sawCond {
		t.Fatal("expression set must include a conditional")
	}
	if code, err := CompileExpr(Bin{Op: OpAdd, L: StateRef(0), R: Const(1)}); err != nil || code.Vectorizable() {
		t.Errorf("a code that reads state must not be vectorizable (err %v)", err)
	}

	for _, p := range blockConds() {
		code, err := CompileExpr(p)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if !code.Vectorizable() {
			t.Errorf("%v: WHERE-shaped condition should compile jump-free", p)
		}
		code.EvalBlock(&blk, n, &regs, out[:])
		mask := code.EvalBoolBlock(&blk, n, &regs)
		for l := 0; l < n; l++ {
			in := Input{Rec: &recs[l]}
			if got, want := mask&(1<<l) != 0, code.EvalBool(&in, nil); got != want || !eqBits(out[l], code.Eval(&in, nil)) {
				t.Errorf("%v: lane %d: block=%v scalar=%v", p, l, got, want)
			}
		}
	}
}

// TestEvalBlockZeroAllocs: block evaluation with caller-owned registers
// must never touch the allocator.
func TestEvalBlockZeroAllocs(t *testing.T) {
	recs := sampleRecords()
	var blk InputBlock
	n := fillBlock(&blk, recs)
	var regs BlockRegs
	for _, e := range blockExprs() {
		code, err := CompileExpr(e)
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		if !code.Vectorizable() {
			continue
		}
		if a := testing.AllocsPerRun(1000, func() { code.execBlock(&blk, n, &regs) }); a != 0 {
			t.Errorf("%v: execBlock allocs %v, want 0", e, a)
		}
	}
	for _, p := range blockConds() {
		code, err := CompileExpr(p)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if a := testing.AllocsPerRun(1000, func() { code.EvalBoolBlock(&blk, n, &regs) }); a != 0 {
			t.Errorf("%v: EvalBoolBlock allocs %v, want 0", p, a)
		}
	}
}

// BenchmarkEvalBlock measures the amortization win of one dispatch per
// instruction per block vs per record.
func BenchmarkEvalBlock(b *testing.B) {
	lat := Bin{Op: OpSub, L: FieldRef(trace.FieldTout), R: FieldRef(trace.FieldTin)}
	pred := Bin{
		Op: OpAnd,
		L:  Bin{Op: OpGt, L: lat, R: Const(14)},
		R:  Bin{Op: OpGt, L: FieldRef(trace.FieldPktLen), R: Const(0)},
	}
	code, err := CompileExpr(pred)
	if err != nil {
		b.Fatal(err)
	}
	recs := make([]trace.Record, BlockSize)
	for i := range recs {
		recs[i] = trace.Record{Tin: int64(i), Tout: int64(2 * i), PktLen: uint32(64 * (i % 4))}
	}
	var blk InputBlock
	n := fillBlock(&blk, recs)
	var regs BlockRegs

	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for l := 0; l < n; l++ {
				in := Input{Rec: &recs[l]}
				code.EvalBool(&in, nil)
			}
		}
	})
	b.Run("block", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			code.EvalBoolBlock(&blk, n, &regs)
		}
	})
}
