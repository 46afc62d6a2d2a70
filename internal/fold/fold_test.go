package fold

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"perfq/internal/packet"
	"perfq/internal/trace"
)

func rec(tin, tout int64, pktLen, payload uint32, seq uint32) *trace.Record {
	return &trace.Record{
		SrcIP: packet.Addr4{10, 0, 0, 1}, DstIP: packet.Addr4{10, 0, 0, 2},
		SrcPort: 1, DstPort: 2, Proto: packet.ProtoTCP,
		PktLen: pktLen, PayloadLen: payload, TCPSeq: seq,
		Tin: tin, Tout: tout,
	}
}

func in(r *trace.Record) *Input { return &Input{Rec: r} }

// compiled lowers hand-built folds to bytecode the way plan compilation
// and kvstore.New do, so Update and the coefficient evaluators can run.
func compiled(t testing.TB, fs ...*Func) []*Func {
	t.Helper()
	for _, f := range fs {
		if err := f.EnsureCompiled(); err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
	}
	return fs
}

func TestEvalExprBasics(t *testing.T) {
	r := rec(100, 350, 1500, 1448, 7)
	state := []float64{5, -2}
	cases := []struct {
		e    Expr
		want float64
	}{
		{Const(3.5), 3.5},
		{FieldRef(trace.FieldTin), 100},
		{FieldRef(trace.FieldTout), 350},
		{FieldRef(trace.FieldPktLen), 1500},
		{StateRef(0), 5},
		{StateRef(1), -2},
		{Bin{OpAdd, Const(2), Const(3)}, 5},
		{Bin{OpSub, FieldRef(trace.FieldTout), FieldRef(trace.FieldTin)}, 250},
		{Bin{OpMul, StateRef(0), Const(4)}, 20},
		{Bin{OpDiv, Const(9), Const(2)}, 4.5},
		{Bin{OpDiv, Const(9), Const(0)}, 0}, // saturating divide
		{Neg{Const(8)}, -8},
		{Call{FnMin, []Expr{Const(2), Const(9)}}, 2},
		{Call{FnMax, []Expr{StateRef(0), FieldRef(trace.FieldTCPSeq)}}, 7},
		{Call{FnAbs, []Expr{StateRef(1)}}, 2},
		{CondExpr{Bin{OpGt, Const(2), Const(1)}, Const(10), Const(20)}, 10},
		{CondExpr{Bin{OpLt, Const(2), Const(1)}, Const(10), Const(20)}, 20},
	}
	for _, c := range cases {
		if got := EvalExpr(c.e, in(r), state); got != c.want {
			t.Errorf("EvalExpr(%v) = %v, want %v", c.e, got, c.want)
		}
	}
}

// TestEvalBoolBasics: comparisons and logic yield 1 or 0, and every value
// but ±0 — NaN included — reads as true.
func TestEvalBoolBasics(t *testing.T) {
	r := rec(0, trace.Infinity, 64, 0, 0)
	nan := Const(math.NaN())
	cases := []struct {
		e    Expr
		want float64
	}{
		{Bin{OpEq, FieldRef(trace.FieldTout), Const(Infinity)}, 1}, // drop detection
		{Bin{OpNe, Const(1), Const(1)}, 0},
		{Bin{OpLe, Const(1), Const(1)}, 1},
		{Bin{OpGe, Const(0), Const(1)}, 0},
		{Bin{OpAnd, Const(1), Bin{OpLt, Const(1), Const(2)}}, 1},
		{Bin{OpAnd, Const(0), Const(1)}, 0},
		{Bin{OpOr, Const(0), Const(1)}, 1},
		{Not{Const(1)}, 0},
		{Bin{OpEq, nan, nan}, 0},
		{Bin{OpNe, nan, nan}, 1},
		{Bin{OpAnd, nan, Const(-3)}, 1},
		{Bin{OpOr, Const(math.Copysign(0, -1)), Const(0)}, 0},
		{Not{nan}, 0},
		{Not{Const(math.Copysign(0, -1))}, 1},
		{Bin{OpAdd, Bin{OpGt, Const(2), Const(1)}, Const(1)}, 2}, // a comparison used as a number
		{CondExpr{nan, Const(10), Const(20)}, 10},
		{CondExpr{Const(math.Copysign(0, -1)), Const(10), Const(20)}, 20},
	}
	for _, c := range cases {
		if got := EvalExpr(c.e, in(r), nil); got != c.want {
			t.Errorf("EvalExpr(%v) = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestColRef(t *testing.T) {
	input := &Input{Cols: []float64{1.5, 2.5}}
	if got := EvalExpr(Bin{OpAdd, ColRef(0), ColRef(1)}, input, nil); got != 4 {
		t.Errorf("ColRef sum = %v", got)
	}
}

// outOfSeqProgram is the paper's outofseq fold:
//
//	def outofseq ((lastseq, oos_count), (tcpseq, payload_len)):
//	    if lastseq + 1 != tcpseq: oos_count = oos_count + 1
//	    lastseq = tcpseq + payload_len
func outOfSeqProgram() *Program {
	return &Program{
		Name:     "outofseq",
		NumState: 2, // s0 = lastseq, s1 = oos_count
		Body: []Stmt{
			If{
				Cond: Bin{OpNe, Bin{OpAdd, StateRef(0), Const(1)}, FieldRef(trace.FieldTCPSeq)},
				Then: []Stmt{Assign{1, Bin{OpAdd, StateRef(1), Const(1)}}},
			},
			Assign{0, Bin{OpAdd, FieldRef(trace.FieldTCPSeq), FieldRef(trace.FieldPayloadLen)}},
		},
		StateNames: []string{"lastseq", "oos_count"},
	}
}

func TestSequentialStatementSemantics(t *testing.T) {
	p := outOfSeqProgram()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	state := p.InitState()
	// First packet: lastseq(0)+1 != 100 → count; lastseq = 100+50 = 150.
	p.Update(state, in(rec(0, 1, 100, 50, 100)))
	if state[1] != 1 || state[0] != 150 {
		t.Fatalf("after pkt1: %v", state)
	}
	// Consecutive packet seq=151: no count.
	p.Update(state, in(rec(0, 1, 100, 50, 151)))
	if state[1] != 1 {
		t.Fatalf("consecutive packet counted: %v", state)
	}
	// Gap: counted.
	p.Update(state, in(rec(0, 1, 100, 50, 999)))
	if state[1] != 2 {
		t.Fatalf("gap not counted: %v", state)
	}
}

func TestBuiltinsMatchInterpreter(t *testing.T) {
	lat := Bin{OpSub, FieldRef(trace.FieldTout), FieldRef(trace.FieldTin)}
	funcs := compiled(t, Count(), Sum(lat), Max(lat), Min(lat), Avg(lat), Ewma(lat, 0.25))
	rng := rand.New(rand.NewSource(3))
	for _, f := range funcs {
		if err := f.Prog.Validate(); err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		updated := make([]float64, f.StateLen())
		interp := make([]float64, f.StateLen())
		f.Init(updated)
		f.Init(interp)
		for i := 0; i < 200; i++ {
			tin := rng.Int63n(1e6)
			r := rec(tin, tin+rng.Int63n(1e5)+1, 64, 0, 0)
			f.Update(updated, in(r))
			f.Prog.Update(interp, in(r))
		}
		for i := range updated {
			if math.Float64bits(updated[i]) != math.Float64bits(interp[i]) {
				t.Errorf("%s: Update %v vs interpreted %v", f.Name(), updated, interp)
			}
		}
	}
}

func TestLinearSpecsValid(t *testing.T) {
	lat := Bin{OpSub, FieldRef(trace.FieldTout), FieldRef(trace.FieldTin)}
	for _, f := range []*Func{Count(), Sum(lat), Avg(lat), Ewma(lat, 0.1)} {
		if f.Merge != MergeLinear || f.Linear == nil {
			t.Fatalf("%s: expected linear merge metadata", f.Name())
		}
		if err := f.Linear.Validate(); err != nil {
			t.Errorf("%s: %v", f.Name(), err)
		}
	}
	for _, f := range []*Func{Max(lat), Min(lat)} {
		if f.Merge != MergeAssoc || f.Combine == nil {
			t.Errorf("%s: expected assoc merge metadata", f.Name())
		}
	}
}

func TestLinearSpecRejectsStatefulCoefficients(t *testing.T) {
	bad := &LinearSpec{
		A: [][]Expr{{StateRef(0)}},
		B: []Expr{Const(0)},
	}
	if err := bad.Validate(); err == nil {
		t.Error("stateful A coefficient accepted")
	}
	bad2 := &LinearSpec{
		A: [][]Expr{{Const(1)}},
		B: []Expr{CondExpr{Bin{OpGt, StateRef(0), Const(0)}, Const(1), Const(0)}},
	}
	if err := bad2.Validate(); err == nil {
		t.Error("stateful B predicate accepted")
	}
}

// TestUpdateLinearMatchesDirect verifies that applying the coefficient form
// (A, B) reproduces the direct update for every linear builtin.
func TestUpdateLinearMatchesDirect(t *testing.T) {
	lat := Bin{OpSub, FieldRef(trace.FieldTout), FieldRef(trace.FieldTin)}
	rng := rand.New(rand.NewSource(5))
	for _, f := range compiled(t, Count(), Sum(lat), Avg(lat), Ewma(lat, 0.3)) {
		m := f.StateLen()
		direct := make([]float64, m)
		viaAB := make([]float64, m)
		p := make([]float64, m*m)
		aS := make([]float64, m*m)
		mS := make([]float64, m*m)
		f.Init(direct)
		f.Init(viaAB)
		IdentityP(p, m)
		for i := 0; i < 100; i++ {
			tin := rng.Int63n(1e6)
			r := rec(tin, tin+rng.Int63n(1e4)+1, 800, 700, 0)
			f.Update(direct, in(r))
			f.Linear.UpdateLinear(viaAB, p, in(r), aS, mS)
		}
		for i := range direct {
			if math.Abs(direct[i]-viaAB[i]) > 1e-6*math.Max(1, math.Abs(direct[i])) {
				t.Errorf("%s: direct %v vs A·S+B %v", f.Name(), direct, viaAB)
			}
		}
	}
}

// TestMergeEqualsGroundTruth is the paper's central correctness claim
// (§3.2): evict at a random point, restart from S0, then merge — the
// result must equal folding the whole sequence without eviction. Checked
// for every linear builtin over many random eviction points, including
// repeated evictions.
func TestMergeEqualsGroundTruth(t *testing.T) {
	lat := Bin{OpSub, FieldRef(trace.FieldTout), FieldRef(trace.FieldTin)}
	rng := rand.New(rand.NewSource(11))
	funcs := compiled(t, Count(), Sum(lat), Avg(lat), Ewma(lat, 0.125))

	for _, f := range funcs {
		m := f.StateLen()
		for trial := 0; trial < 50; trial++ {
			n := 2 + rng.Intn(200)
			recs := make([]*trace.Record, n)
			for i := range recs {
				tin := rng.Int63n(1e6)
				recs[i] = rec(tin, tin+rng.Int63n(1e4)+1, 1500, 1400, 0)
			}

			// Ground truth: fold everything.
			want := make([]float64, m)
			f.Init(want)
			for _, r := range recs {
				f.Update(want, in(r))
			}

			// Datapath: random eviction schedule (each packet has a 10%
			// chance of triggering an eviction after processing).
			s0 := make([]float64, m)
			f.Init(s0)
			backing := make([]float64, m)
			copy(backing, s0)
			cacheState := make([]float64, m)
			p := make([]float64, m*m)
			aS := make([]float64, m*m)
			mS := make([]float64, m*m)
			f.Init(cacheState)
			IdentityP(p, m)

			for _, r := range recs {
				f.Linear.UpdateLinear(cacheState, p, in(r), aS, mS)
				if rng.Float64() < 0.1 {
					MergeLinearState(backing, cacheState, p, backing, s0, m)
					f.Init(cacheState)
					IdentityP(p, m)
				}
			}
			// Final flush.
			MergeLinearState(backing, cacheState, p, backing, s0, m)

			for i := range want {
				tol := 1e-9 * math.Max(1, math.Abs(want[i]))
				if math.Abs(backing[i]-want[i]) > tol {
					t.Fatalf("%s trial %d: merged %v vs ground truth %v",
						f.Name(), trial, backing, want)
				}
			}
		}
	}
}

// TestAssocMergeEqualsGroundTruth checks the commutative-monoid extension
// for MAX/MIN the same way.
func TestAssocMergeEqualsGroundTruth(t *testing.T) {
	lat := Bin{OpSub, FieldRef(trace.FieldTout), FieldRef(trace.FieldTin)}
	rng := rand.New(rand.NewSource(13))
	for _, f := range compiled(t, Max(lat), Min(lat)) {
		for trial := 0; trial < 30; trial++ {
			n := 1 + rng.Intn(100)
			recs := make([]*trace.Record, n)
			for i := range recs {
				tin := rng.Int63n(1e6)
				recs[i] = rec(tin, tin+rng.Int63n(1e4)+1, 64, 0, 0)
			}
			want := make([]float64, 1)
			f.Init(want)
			for _, r := range recs {
				f.Update(want, in(r))
			}

			backing := make([]float64, 1)
			f.Init(backing)
			cache := make([]float64, 1)
			f.Init(cache)
			for _, r := range recs {
				f.Update(cache, in(r))
				if rng.Float64() < 0.15 {
					f.Combine(backing, cache)
					f.Init(cache)
				}
			}
			f.Combine(backing, cache)
			if backing[0] != want[0] {
				t.Fatalf("%s trial %d: merged %v vs %v", f.Name(), trial, backing[0], want[0])
			}
		}
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	cases := []*Program{
		{Name: "too-many-state", NumState: MaxState + 1},
		{Name: "zero-state", NumState: 0},
		{Name: "bad-dst", NumState: 1, Body: []Stmt{Assign{Dst: 3, RHS: Const(0)}}},
		{Name: "bad-ref", NumState: 1, Body: []Stmt{Assign{Dst: 0, RHS: StateRef(9)}}},
		{Name: "nil-expr", NumState: 1, Body: []Stmt{Assign{Dst: 0, RHS: nil}}},
		{Name: "bad-arity", NumState: 1, Body: []Stmt{Assign{Dst: 0, RHS: Call{FnMin, []Expr{Const(1)}}}}},
		{Name: "bad-s0", NumState: 2, S0: []float64{1}},
		{Name: "nil-pred", NumState: 1, Body: []Stmt{If{Cond: nil}}},
	}
	for _, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid program", p.Name)
		}
	}
}

func TestProgramStringer(t *testing.T) {
	s := outOfSeqProgram().String()
	for _, frag := range []string{"outofseq", "tcpseq", "if", "s1"} {
		if !strings.Contains(s, frag) {
			t.Errorf("Program.String() = %q missing %q", s, frag)
		}
	}
	if got := Const(Infinity).String(); got != "infinity" {
		t.Errorf("Const(Infinity).String() = %q", got)
	}
	if got := Const(42).String(); got != "42" {
		t.Errorf("Const(42).String() = %q", got)
	}

	// Every node kind prints through one builder; a program that uses
	// them all reads exactly as it did when each String nested Sprintf.
	p := Bin{Op: OpAnd, L: Bin{Op: OpGt, L: StateRef(0), R: FieldRef(trace.FieldTCPSeq)}, R: Bin{Op: OpOr, L: Not{X: Const(1)}, R: Const(0)}}
	e := CondExpr{P: p, T: Neg{X: Call{Fn: FnMax, Args: []Expr{StateRef(1), Const(2.5)}}}, E: Bin{Op: OpDiv, L: ColRef(3), R: Const(1)}}
	short := &Program{Name: "short", NumState: 2, Body: []Stmt{
		If{Cond: p, Then: []Stmt{Assign{Dst: 1, RHS: e}}, Else: []Stmt{Assign{Dst: 0, RHS: Const(Infinity)}, If{Cond: Not{X: p}}}},
		Assign{Dst: 0, RHS: Neg{X: StateRef(0)}},
	}}
	const want = "def short[2] { if (s0 > tcpseq and ((not 1) or 0)) then { s1 = ((s0 > tcpseq and ((not 1) or 0)) ? (-max(s1, 2.5)) : ($3 / 1)); } else { s0 = infinity; if (not (s0 > tcpseq and ((not 1) or 0))) then { }; }; s0 = (-s0); }"
	if got := short.String(); got != want {
		t.Errorf("Program.String() =\n%s\nwant\n%s", got, want)
	}

	// Text and allocation grow with the tree, not with its square: ten
	// times the depth is ten times the text (each level adds the same
	// few bytes) and, give or take the builder's growth steps, ten times
	// the bytes allocated. Nested Sprintf re-copied every operand once
	// per ancestor: 100x at these depths.
	deep := map[string]func(n int) fmt.Stringer{
		"Neg": func(n int) fmt.Stringer { return nest(n, func(e Expr) Expr { return Neg{X: e} }) },
		"Call": func(n int) fmt.Stringer {
			return nest(n, func(e Expr) Expr { return Call{Fn: FnAbs, Args: []Expr{e}} })
		},
		"CondExpr": func(n int) fmt.Stringer {
			return nest(n, func(e Expr) Expr { return CondExpr{P: Const(1), T: e, E: Const(0)} })
		},
		"If": func(n int) fmt.Stringer {
			var s Stmt = Assign{Dst: 0, RHS: Const(1)}
			for ; n > 0; n-- {
				s = If{Cond: Const(1), Then: []Stmt{s}}
			}
			return s
		},
	}
	for kind, build := range deep {
		lenAt, allocAt := map[int]int{}, map[int]uint64{}
		for _, n := range []int{1, 1_000, 10_000} {
			node := build(n)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			lenAt[n] = len(node.String())
			runtime.ReadMemStats(&after)
			allocAt[n] = after.TotalAlloc - before.TotalAlloc
		}
		perLevel := (lenAt[1_000] - lenAt[1]) / 999
		if perLevel == 0 || lenAt[10_000] != lenAt[1]+9_999*perLevel {
			t.Errorf("%s: text is %d bytes at depth 1, %d at 1000, %d at 10000: not a constant per level",
				kind, lenAt[1], lenAt[1_000], lenAt[10_000])
		}
		if allocAt[10_000] > 20*allocAt[1_000] {
			t.Errorf("%s: String allocated %d bytes at depth 1000 and %d at 10000, want about 10x",
				kind, allocAt[1_000], allocAt[10_000])
		}
	}
}

// nest wraps s0 in n levels of wrap.
func nest(n int, wrap func(Expr) Expr) Expr {
	var e Expr = StateRef(0)
	for ; n > 0; n-- {
		e = wrap(e)
	}
	return e
}

func TestInfinityMatchesTraceSentinel(t *testing.T) {
	r := rec(0, trace.Infinity, 64, 0, 0)
	got := EvalExpr(FieldRef(trace.FieldTout), in(r), nil)
	if got != Infinity {
		t.Errorf("float64(trace.Infinity) = %v, fold.Infinity = %v", got, Infinity)
	}
	// And a real timestamp must not collide with the sentinel.
	r2 := rec(0, 1<<52, 64, 0, 0)
	if EvalExpr(FieldRef(trace.FieldTout), in(r2), nil) == Infinity {
		t.Error("large finite timestamp collides with Infinity")
	}
}
