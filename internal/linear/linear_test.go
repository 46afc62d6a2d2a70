package linear

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"perfq/internal/fold"
	"perfq/internal/trace"
)

// ---- The Fig. 2 fold programs, hand-lowered to IR ----

func ewmaProgram(alpha float64) *fold.Program {
	lat := fold.Bin{Op: fold.OpSub, L: fold.FieldRef(trace.FieldTout), R: fold.FieldRef(trace.FieldTin)}
	return &fold.Program{
		Name:     "ewma",
		NumState: 1,
		Body: []fold.Stmt{
			fold.Assign{Dst: 0, RHS: fold.Bin{
				Op: fold.OpAdd,
				L:  fold.Bin{Op: fold.OpMul, L: fold.Const(1 - alpha), R: fold.StateRef(0)},
				R:  fold.Bin{Op: fold.OpMul, L: fold.Const(alpha), R: lat},
			}},
		},
	}
}

// outofseq: if lastseq + 1 != tcpseq: oos_count++ ; lastseq = tcpseq + payload_len
func outOfSeqProgram() *fold.Program {
	return &fold.Program{
		Name:     "outofseq",
		NumState: 2, // s0 = lastseq (history), s1 = oos_count
		Body: []fold.Stmt{
			fold.If{
				Cond: fold.Bin{Op: fold.OpNe,
					L: fold.Bin{Op: fold.OpAdd, L: fold.StateRef(0), R: fold.Const(1)},
					R: fold.FieldRef(trace.FieldTCPSeq)},
				Then: []fold.Stmt{fold.Assign{Dst: 1, RHS: fold.Bin{Op: fold.OpAdd, L: fold.StateRef(1), R: fold.Const(1)}}},
			},
			fold.Assign{Dst: 0, RHS: fold.Bin{Op: fold.OpAdd, L: fold.FieldRef(trace.FieldTCPSeq), R: fold.FieldRef(trace.FieldPayloadLen)}},
		},
	}
}

// nonmt: if maxseq > tcpseq: nm_count++ ; maxseq = max(maxseq, tcpseq)
func nonMonotonicProgram() *fold.Program {
	return &fold.Program{
		Name:     "nonmt",
		NumState: 2, // s0 = maxseq, s1 = nm_count
		Body: []fold.Stmt{
			fold.If{
				Cond: fold.Bin{Op: fold.OpGt, L: fold.StateRef(0), R: fold.FieldRef(trace.FieldTCPSeq)},
				Then: []fold.Stmt{fold.Assign{Dst: 1, RHS: fold.Bin{Op: fold.OpAdd, L: fold.StateRef(1), R: fold.Const(1)}}},
			},
			fold.Assign{Dst: 0, RHS: fold.Call{Fn: fold.FnMax, Args: []fold.Expr{fold.StateRef(0), fold.FieldRef(trace.FieldTCPSeq)}}},
		},
	}
}

// perc: if qin > K: high++ ; tot++
func percProgram(k float64) *fold.Program {
	return &fold.Program{
		Name:     "perc",
		NumState: 2, // s0 = tot, s1 = high
		Body: []fold.Stmt{
			fold.If{
				Cond: fold.Bin{Op: fold.OpGt, L: fold.FieldRef(trace.FieldQin), R: fold.Const(k)},
				Then: []fold.Stmt{fold.Assign{Dst: 1, RHS: fold.Bin{Op: fold.OpAdd, L: fold.StateRef(1), R: fold.Const(1)}}},
			},
			fold.Assign{Dst: 0, RHS: fold.Bin{Op: fold.OpAdd, L: fold.StateRef(0), R: fold.Const(1)}},
		},
	}
}

// sum_lat: lat = lat + tout - tin
func sumLatProgram() *fold.Program {
	return &fold.Program{
		Name:     "sum_lat",
		NumState: 1,
		Body: []fold.Stmt{
			fold.Assign{Dst: 0, RHS: fold.Bin{Op: fold.OpAdd, L: fold.StateRef(0),
				R: fold.Bin{Op: fold.OpSub, L: fold.FieldRef(trace.FieldTout), R: fold.FieldRef(trace.FieldTin)}}},
		},
	}
}

func randomRec(rng *rand.Rand) *trace.Record {
	tin := rng.Int63n(1 << 40)
	return &trace.Record{
		TCPSeq: rng.Uint32() >> 8, PayloadLen: uint32(rng.Intn(1460)),
		PktLen: uint32(64 + rng.Intn(1436)),
		Tin:    tin, Tout: tin + rng.Int63n(1<<20) + 1,
		QSizeIn: uint32(rng.Intn(1 << 20)),
	}
}

// TestPaperLinearityClassification pins the analyzer to the paper's Fig. 2
// "Linear in state?" column.
func TestPaperLinearityClassification(t *testing.T) {
	linear := []*fold.Program{
		ewmaProgram(0.125),
		outOfSeqProgram(),
		percProgram(1 << 15),
		sumLatProgram(),
	}
	for _, p := range linear {
		if _, err := Analyze(p); err != nil {
			t.Errorf("%s: expected linear, got: %v", p.Name, err)
		}
	}
	if _, err := Analyze(nonMonotonicProgram()); err == nil {
		t.Error("nonmt: expected non-linear, analysis succeeded")
	} else {
		var nle *NotLinearError
		if !errorAs(err, &nle) {
			t.Errorf("nonmt: error is %T, want *NotLinearError", err)
		} else if !strings.Contains(nle.Reason, "condition") {
			t.Errorf("nonmt: reason %q should mention the state-dependent condition", nle.Reason)
		}
	}
}

func errorAs(err error, target **NotLinearError) bool {
	for err != nil {
		if e, ok := err.(*NotLinearError); ok {
			*target = e
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

func TestHistoryClassification(t *testing.T) {
	spec, err := Analyze(outOfSeqProgram())
	if err != nil {
		t.Fatal(err)
	}
	if !spec.HistVars[0] || spec.HistVars[1] {
		t.Errorf("HistVars = %v, want [true false]", spec.HistVars)
	}
	if !spec.NeedsFirstPacket {
		t.Error("outofseq should require a first-packet snapshot")
	}

	spec2, err := Analyze(ewmaProgram(0.25))
	if err != nil {
		t.Fatal(err)
	}
	if spec2.NeedsFirstPacket {
		t.Error("ewma must not require a first-packet snapshot")
	}
	if spec2.HistVars[0] {
		t.Error("ewma state is not a history variable")
	}
}

// analyzeCompiled derives p's coefficients and lowers them to bytecode,
// as Annotate followed by plan compilation does; the spec's evaluators
// (EvalA, EvalCoefs, …) run compiled coefficients only.
func analyzeCompiled(t *testing.T, p *fold.Program) *fold.LinearSpec {
	t.Helper()
	spec, err := Analyze(p)
	if err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
	if err := spec.EnsureCompiled(); err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
	return spec
}

// affineStep applies spec's coefficient form, S ← A·S + B, to state, each
// coefficient read from the spec's trees against the pre-update state.
func affineStep(spec *fold.LinearSpec, state []float64, in *fold.Input) {
	ns := make([]float64, len(state))
	for i := range ns {
		for k := range state {
			ns[i] += fold.EvalExpr(spec.A[i][k], in, state) * state[k]
		}
		ns[i] += fold.EvalExpr(spec.B[i], in, state)
	}
	copy(state, ns)
}

func TestEwmaCoefficients(t *testing.T) {
	spec := analyzeCompiled(t, ewmaProgram(0.25))
	rng := rand.New(rand.NewSource(1))
	var a [1]float64
	for i := 0; i < 20; i++ {
		in := &fold.Input{Rec: randomRec(rng)}
		spec.EvalA(in, []float64{0}, a[:])
		if math.Abs(a[0]-0.75) > 1e-12 {
			t.Fatalf("A = %v, want 0.75", a[0])
		}
	}
}

// TestLinearUpdateMatchesDirect: for every linear program, applying the
// derived (A, B) coefficients must reproduce the direct interpreter on
// random states and packets — the semantic contract of the analysis.
func TestLinearUpdateMatchesDirect(t *testing.T) {
	progs := []*fold.Program{
		ewmaProgram(0.125),
		outOfSeqProgram(),
		percProgram(1 << 15),
		sumLatProgram(),
	}
	rng := rand.New(rand.NewSource(2))
	for _, p := range progs {
		spec := analyzeCompiled(t, p)
		m := p.NumState
		for trial := 0; trial < 200; trial++ {
			direct := make([]float64, m)
			viaAB := make([]float64, m)
			for i := range direct {
				v := float64(rng.Intn(1000))
				direct[i], viaAB[i] = v, v
			}
			in := &fold.Input{Rec: randomRec(rng)}
			p.Update(direct, in)
			affineStep(spec, viaAB, in)
			for i := range direct {
				if math.Abs(direct[i]-viaAB[i]) > 1e-9*math.Max(1, math.Abs(direct[i])) {
					t.Fatalf("%s trial %d: direct %v vs A·S+B %v", p.Name, trial, direct, viaAB)
				}
			}
		}
	}
}

// TestOutOfSeqMergeEqualsGroundTruth exercises the full history-aware
// datapath protocol on the paper's outofseq fold: insert (snapshot first
// packet), update with running product over packets 2..N, evict, merge
// with first-record replay. The reconciled backing value must equal the
// uninterrupted fold.
func TestOutOfSeqMergeEqualsGroundTruth(t *testing.T) {
	prog := outOfSeqProgram()
	spec := analyzeCompiled(t, prog)
	f := &fold.Func{Prog: prog, Merge: fold.MergeLinear, Linear: spec}
	if err := f.EnsureCompiled(); err != nil {
		t.Fatal(err)
	}
	m := prog.NumState
	rng := rand.New(rand.NewSource(3))

	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(150)
		recs := make([]*trace.Record, n)
		seq := rng.Uint32() >> 8
		for i := range recs {
			r := randomRec(rng)
			// Mostly consecutive sequence numbers with occasional jumps,
			// like a real TCP stream.
			if rng.Float64() < 0.8 {
				r.TCPSeq = seq + 1 // consecutive per outofseq's definition
			} else {
				r.TCPSeq = seq + uint32(rng.Intn(5000))
			}
			seq = r.TCPSeq + r.PayloadLen
			_ = seq
			recs[i] = r
		}

		// Ground truth.
		want := make([]float64, m)
		f.Init(want)
		for _, r := range recs {
			f.Update(want, &fold.Input{Rec: r})
		}

		// Datapath with random evictions.
		backing := make([]float64, m)
		f.Init(backing)
		haveBacking := false

		var (
			cache    = make([]float64, m)
			p        = make([]float64, m*m)
			aS       = make([]float64, m*m)
			mS       = make([]float64, m*m)
			firstRec trace.Record
			inCache  bool
		)
		evict := func() {
			if !inCache {
				return
			}
			if !haveBacking {
				f.Init(backing)
			}
			fold.MergeWithFirstRec(f, backing, cache, p, backing, &fold.Input{Rec: &firstRec}, new(fold.MergeScratch))
			haveBacking = true
			inCache = false
		}
		for _, r := range recs {
			if !inCache {
				// Insertion: run the first update directly, snapshot the
				// packet, start the product at identity (packet 1 excluded).
				f.Init(cache)
				f.Update(cache, &fold.Input{Rec: r})
				fold.IdentityP(p, m)
				firstRec = *r
				inCache = true
			} else {
				// What a cache runs on the m×m row: the body advances the
				// state, A (against the pre-update state) advances P.
				in := &fold.Input{Rec: r}
				spec.EvalA(in, cache, aS)
				f.Update(cache, in)
				fold.StepP(p, aS, mS, m)
			}
			if rng.Float64() < 0.12 {
				evict()
			}
		}
		evict()

		for i := range want {
			if math.Abs(backing[i]-want[i]) > 1e-6 {
				t.Fatalf("trial %d: merged %v vs ground truth %v", trial, backing, want)
			}
		}
	}
}

func TestNonLinearConstructs(t *testing.T) {
	cases := []struct {
		name string
		body []fold.Stmt
		frag string // expected substring of the reason
	}{
		{
			"state-times-state",
			[]fold.Stmt{fold.Assign{Dst: 0, RHS: fold.Bin{Op: fold.OpMul, L: fold.StateRef(0), R: fold.StateRef(0)}}},
			"product",
		},
		{
			"divide-by-state",
			[]fold.Stmt{fold.Assign{Dst: 0, RHS: fold.Bin{Op: fold.OpDiv, L: fold.Const(1), R: fold.StateRef(0)}}},
			"division",
		},
		{
			"max-of-state",
			[]fold.Stmt{fold.Assign{Dst: 0, RHS: fold.Call{Fn: fold.FnMax, Args: []fold.Expr{fold.StateRef(0), fold.Const(1)}}}},
			"state-dependent",
		},
		{
			"condition-on-accumulator",
			[]fold.Stmt{
				fold.If{
					Cond: fold.Bin{Op: fold.OpGt, L: fold.StateRef(0), R: fold.Const(10)},
					Then: []fold.Stmt{fold.Assign{Dst: 0, RHS: fold.Const(0)}},
					Else: []fold.Stmt{fold.Assign{Dst: 0, RHS: fold.Bin{Op: fold.OpAdd, L: fold.StateRef(0), R: fold.Const(1)}}},
				},
			},
			"condition",
		},
	}
	for _, c := range cases {
		p := &fold.Program{Name: c.name, NumState: 1, Body: c.body}
		_, err := Analyze(p)
		if err == nil {
			t.Errorf("%s: expected non-linear", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: reason %q does not mention %q", c.name, err, c.frag)
		}
	}
}

func TestLinearWithPacketScaling(t *testing.T) {
	// s = pkt_len * s + tin: A depends on the packet — allowed.
	p := &fold.Program{
		Name:     "pktscale",
		NumState: 1,
		Body: []fold.Stmt{
			fold.Assign{Dst: 0, RHS: fold.Bin{Op: fold.OpAdd,
				L: fold.Bin{Op: fold.OpMul, L: fold.FieldRef(trace.FieldPktLen), R: fold.StateRef(0)},
				R: fold.FieldRef(trace.FieldTin)}},
		},
	}
	spec := analyzeCompiled(t, p)
	rng := rand.New(rand.NewSource(4))
	in := &fold.Input{Rec: randomRec(rng)}
	var a [1]float64
	spec.EvalA(in, []float64{0}, a[:])
	if a[0] != float64(in.Rec.PktLen) {
		t.Errorf("A = %v, want pkt_len %d", a[0], in.Rec.PktLen)
	}
}

func TestSwapIsLinear(t *testing.T) {
	// s0, s1 = s1, s0 via temporary-free sequential writes is NOT a swap —
	// but the matrix form of the true simultaneous swap is linear. Written
	// sequentially (s0 = s1; s1 = s0) both end as the old s1; the analyzer
	// must faithfully produce that (sequential) matrix.
	p := &fold.Program{
		Name:     "seqcopy",
		NumState: 2,
		Body: []fold.Stmt{
			fold.Assign{Dst: 0, RHS: fold.StateRef(1)},
			fold.Assign{Dst: 1, RHS: fold.StateRef(0)},
		},
	}
	spec := analyzeCompiled(t, p)
	rng := rand.New(rand.NewSource(5))
	in := &fold.Input{Rec: randomRec(rng)}
	st := []float64{3, 7}
	affineStep(spec, st, in)
	if st[0] != 7 || st[1] != 7 {
		t.Errorf("sequential copy: got %v, want [7 7]", st)
	}
}

func TestAnnotate(t *testing.T) {
	f := &fold.Func{Prog: ewmaProgram(0.5)}
	if err := Annotate(f); err != nil {
		t.Fatal(err)
	}
	if f.Merge != fold.MergeLinear || f.Linear == nil {
		t.Error("Annotate did not mark ewma linear")
	}

	g := &fold.Func{Prog: nonMonotonicProgram()}
	if err := Annotate(g); err == nil {
		t.Error("Annotate accepted nonmt as linear")
	}
	if g.Merge != fold.MergeNone {
		t.Error("failed annotation must leave MergeNone")
	}

	// Built-ins with explicit metadata are untouched.
	h := fold.Max(fold.FieldRef(trace.FieldPktLen))
	if err := Annotate(h); err != nil {
		t.Fatal(err)
	}
	if h.Merge != fold.MergeAssoc {
		t.Error("Annotate overwrote builtin merge kind")
	}
}

// TestAffineProbe numerically verifies that analyzed-linear programs are
// affine in the non-history state for any fixed packet: f(λx+(1-λ)y) =
// λf(x)+(1-λ)f(y), restricted to non-history coordinates with history
// coordinates held equal.
func TestAffineProbe(t *testing.T) {
	progs := []*fold.Program{ewmaProgram(0.3), percProgram(100), sumLatProgram(), outOfSeqProgram()}
	rng := rand.New(rand.NewSource(6))
	for _, prog := range progs {
		spec, err := Analyze(prog)
		if err != nil {
			t.Fatalf("%s: %v", prog.Name, err)
		}
		m := prog.NumState
		for trial := 0; trial < 100; trial++ {
			in := &fold.Input{Rec: randomRec(rng)}
			x := make([]float64, m)
			y := make([]float64, m)
			for i := 0; i < m; i++ {
				x[i] = float64(rng.Intn(1000))
				if spec.HistVars[i] {
					y[i] = x[i] // hold history coordinates fixed
				} else {
					y[i] = float64(rng.Intn(1000))
				}
			}
			lam := rng.Float64()
			mix := make([]float64, m)
			for i := range mix {
				mix[i] = lam*x[i] + (1-lam)*y[i]
			}
			fx := append([]float64(nil), x...)
			fy := append([]float64(nil), y...)
			fmix := append([]float64(nil), mix...)
			prog.Update(fx, in)
			prog.Update(fy, in)
			prog.Update(fmix, in)
			for i := 0; i < m; i++ {
				if spec.HistVars[i] {
					continue
				}
				want := lam*fx[i] + (1-lam)*fy[i]
				if math.Abs(fmix[i]-want) > 1e-6*math.Max(1, math.Abs(want)) {
					t.Fatalf("%s trial %d: not affine at coord %d: %v vs %v",
						prog.Name, trial, i, fmix[i], want)
				}
			}
		}
	}
}

// nestedIfProgram counts a packet once per level of depth nested ifs it
// passes: acc = acc + 1, then if pkt_len > k: (the same again, one level
// down).
func nestedIfProgram(depth int) *fold.Program {
	inc := fold.Assign{Dst: 0, RHS: fold.Bin{Op: fold.OpAdd, L: fold.StateRef(0), R: fold.Const(1)}}
	body := []fold.Stmt{inc}
	for k := depth; k > 0; k-- {
		cond := fold.Bin{Op: fold.OpGt, L: fold.FieldRef(trace.FieldPktLen), R: fold.Const(float64(k))}
		body = []fold.Stmt{inc, fold.If{Cond: cond, Then: body}}
	}
	return &fold.Program{Name: "nested", NumState: 1, Body: body}
}

// TestAnalyzeLinearInIfDepth: deciding whether an if's arms leave a state
// word the same compares the two trees, not their printed forms, so the
// analysis grows with the body, not its square (printing both arms at
// every level took minutes at this depth).
func TestAnalyzeLinearInIfDepth(t *testing.T) {
	prog := nestedIfProgram(10_000)
	start := time.Now()
	spec, err := Analyze(prog)
	if took := time.Since(start); took > time.Second {
		t.Errorf("10000 nested ifs took %v to analyze, want < 1s", took)
	}
	if err != nil {
		t.Fatal(err)
	}
	if a, ok := spec.A[0][0].(fold.Const); !ok || a != 1 {
		t.Errorf("A = %v, want [[1]]", spec.A)
	}
}

func TestSameExprComparesBits(t *testing.T) {
	x := fold.Bin{Op: fold.OpAdd, L: fold.FieldRef(trace.FieldTin), R: fold.Call{Fn: fold.FnMax, Args: []fold.Expr{fold.ColRef(1), fold.Const(2)}}}
	y := fold.Bin{Op: fold.OpAdd, L: fold.FieldRef(trace.FieldTin), R: fold.Call{Fn: fold.FnMax, Args: []fold.Expr{fold.ColRef(1), fold.Const(2)}}}
	if !sameExpr(x, y) {
		t.Errorf("%v and %v differ", x, y)
	}
	for _, c := range [][2]fold.Expr{
		{fold.Const(0), fold.Const(math.Copysign(0, -1))},
		{fold.StateRef(1), fold.ColRef(1)},
		{x, fold.Bin{Op: fold.OpSub, L: x.L, R: x.R}},
		{fold.Const(1), nil},
	} {
		if sameExpr(c[0], c[1]) {
			t.Errorf("%v and %v are the same", c[0], c[1])
		}
	}
}
