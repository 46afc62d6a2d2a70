package fold

import "fmt"

// LinearSpec captures a linear-in-state update S' = A·S + B (§3.2, "the
// linear-in-state condition"). Entries are IR expressions; nil entries
// denote the constant 0.
//
// Per the paper's footnote 4, A and B may depend not only on the current
// packet but on "a constant number of packets preceding and including the
// current packet". That generality is what makes the Fig. 2 "TCP
// out-of-sequence" fold linear: its branch condition reads lastseq, a
// state variable that is itself a pure function of the previous packet (a
// history variable). Coefficient expressions may therefore contain
// StateRef nodes, but only for variables marked in HistVars; at runtime
// they are evaluated against the pre-update state, which holds exactly the
// previous packet's values for such variables.
//
// The paper's EWMA example is the 1×1 history-free case: A = [1-α],
// B = [α·(tout-tin)].
type LinearSpec struct {
	A [][]Expr
	B []Expr
	// HistVars marks state variables whose end-of-body value is a pure
	// function of the current packet (history depth 1). Only these may be
	// referenced by A/B entries. nil means none.
	HistVars []bool
	// NeedsFirstPacket reports whether any coefficient references a
	// history variable, in which case the datapath must snapshot each
	// cache entry's first packet to merge exactly (see MergeWithFirstRec).
	NeedsFirstPacket bool

	// Compiled coefficients, filled by EnsureCompiled (which everything
	// that evaluates the spec requires): one entry per A cell (row-major)
	// and per B entry. A coef with code == nil is the constant val — the
	// common case for A, which is fully constant for every built-in
	// (EWMA's A is [1-α]) — so the per-packet EvalA of the exact-merge hot
	// path degenerates to a copy.
	aCoef []coef
	bCoef []coef
	// bProg evaluates the whole B vector in one bytecode run (results
	// stored into the destination vector via the program's state slot).
	// nil when a B entry reads state (see compileBProg).
	bProg *Code
	// aDiag is true when every off-diagonal A entry is the constant 0 —
	// true for every fused builtin combination (EWMA+count, sum+count,
	// presence counters, …), since cross-variable coupling only arises
	// from folds that mix state variables. Diagonal A means diagonal P,
	// so the per-packet work drops from two m×m products to m fused
	// multiply-adds.
	aDiag bool
}

// coef is one compiled coefficient: bytecode, or a constant when code is
// nil.
type coef struct {
	code *Code
	val  float64
}

// compileCoef lowers one coefficient expression (nil ⇒ the constant 0).
func compileCoef(e Expr) (coef, error) {
	if e == nil {
		return coef{}, nil
	}
	e = foldExpr(e)
	if k, ok := e.(Const); ok {
		return coef{val: float64(k)}, nil
	}
	code, err := CompileExpr(e)
	return coef{code: code}, err
}

// EnsureCompiled lowers every coefficient expression to bytecode (or a
// folded constant), or reports the first one that cannot be. EvalA, EvalB,
// UpdateLinear, Scalar and FieldMask all require it to have succeeded.
// Idempotent; call from single-threaded setup code only.
func (ls *LinearSpec) EnsureCompiled() error {
	if ls.aCoef != nil {
		return nil
	}
	m := ls.Dim()
	a := make([]coef, 0, m*m)
	b := make([]coef, 0, m)
	for i, row := range ls.A {
		for j, e := range row {
			c, err := compileCoef(e)
			if err != nil {
				return fmt.Errorf("A[%d][%d]: %w", i, j, err)
			}
			a = append(a, c)
		}
	}
	for i, e := range ls.B {
		c, err := compileCoef(e)
		if err != nil {
			return fmt.Errorf("B[%d]: %w", i, err)
		}
		b = append(b, c)
	}
	bProg, err := compileBProg(ls.B)
	if err != nil {
		return fmt.Errorf("B: %w", err)
	}
	ls.bProg = bProg
	ls.aCoef, ls.bCoef = a, b
	ls.aDiag = true
	for i := 0; i < m && ls.aDiag; i++ {
		for j := 0; j < m; j++ {
			if i != j && (a[i*m+j].code != nil || a[i*m+j].val != 0) {
				ls.aDiag = false
				break
			}
		}
	}
	return nil
}

// compileBProg fuses the B entries into one program so the per-packet
// hot path pays one VM invocation instead of one per entry. It returns
// nil when an entry reads state: history-referencing coefficients must
// see the pre-update state, which only the per-entry codes provide.
func compileBProg(b []Expr) (*Code, error) {
	if len(b) == 0 {
		return nil, nil
	}
	stmts := make([]Stmt, 0, len(b))
	for i, e := range b {
		if e == nil {
			e = Const(0)
		}
		if ReadsState(e) {
			return nil, nil
		}
		stmts = append(stmts, Assign{Dst: i, RHS: e})
	}
	return CompileProgram(&Program{Name: "B", NumState: len(b), Body: stmts})
}

// Scalar exposes the fully-compiled 1×1 history-free form — constant A,
// stateless B — so a caller on the per-packet path can fuse the whole
// update (state' = a·state + b, P' = a·P) inline without going through
// UpdateLinear. ok is false unless the spec has that shape. When bCode is
// nil the B term is the constant bConst; otherwise evaluate bCode with a
// nil state (B reads none).
func (ls *LinearSpec) Scalar() (a float64, bCode *Code, bConst float64, ok bool) {
	if !ls.aDiag || len(ls.bCoef) != 1 || ls.aCoef[0].code != nil || ls.NeedsFirstPacket {
		return 0, nil, 0, false
	}
	return ls.aCoef[0].val, ls.bCoef[0].code, ls.bCoef[0].val, true
}

// IsCommutative reports whether the linear update commutes across
// arbitrary interleavings of the record stream: A is constantly the
// identity matrix and every B entry is a pure function of the current
// record (no history-variable references). For such folds — COUNT, SUM,
// AVG's (sum, count) pair, presence counters — the state after any
// interleaving of two disjoint sub-streams is S0 plus the per-sub-stream
// deltas, so partitions of the stream by space (one store per switch)
// merge just as exactly as partitions by time (cache epochs). EWMA fails
// the A-identity test; history folds (TCP out-of-sequence) fail the
// B-purity test, because "the previous packet" differs per sub-stream.
func (ls *LinearSpec) IsCommutative() bool {
	m := ls.Dim()
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			e := ls.A[i][j]
			want := 0.0
			if i == j {
				want = 1
			}
			if e == nil {
				if want != 0 {
					return false
				}
				continue
			}
			if k, ok := foldExpr(e).(Const); !ok || float64(k) != want {
				return false
			}
		}
	}
	for _, e := range ls.B {
		if ReadsState(e) {
			return false
		}
	}
	return true
}

// FieldMask returns the union of raw-record fields the compiled
// coefficients read.
func (ls *LinearSpec) FieldMask() uint32 {
	var mask uint32
	for _, c := range ls.aCoef {
		if c.code != nil {
			mask |= c.code.FieldMask()
		}
	}
	for _, c := range ls.bCoef {
		if c.code != nil {
			mask |= c.code.FieldMask()
		}
	}
	return mask
}

// Dim returns the state dimension m.
func (ls *LinearSpec) Dim() int { return len(ls.B) }

// Validate checks shape and that coefficients reference only history
// variables.
func (ls *LinearSpec) Validate() error {
	m := ls.Dim()
	if len(ls.A) != m {
		return fmt.Errorf("linearspec: A has %d rows, B has %d entries", len(ls.A), m)
	}
	if ls.HistVars != nil && len(ls.HistVars) != m {
		return fmt.Errorf("linearspec: HistVars has %d entries, want %d", len(ls.HistVars), m)
	}
	allowed := func(e Expr) error {
		bad := findBadStateRef(e, ls.HistVars)
		if bad >= 0 {
			return fmt.Errorf("linearspec: coefficient references non-history state s%d", bad)
		}
		return nil
	}
	for i, row := range ls.A {
		if len(row) != m {
			return fmt.Errorf("linearspec: A row %d has %d cols, want %d", i, len(row), m)
		}
		for _, e := range row {
			if err := allowed(e); err != nil {
				return err
			}
		}
	}
	for _, e := range ls.B {
		if err := allowed(e); err != nil {
			return err
		}
	}
	return nil
}

// ReadsState reports whether e contains a StateRef (unknown nodes
// conservatively do).
func ReadsState(e Expr) bool { return findBadStateRef(e, nil) >= 0 }

// findBadStateRef returns the index of a StateRef in e not marked as a
// history variable, or -1.
func findBadStateRef(e Expr, hist []bool) int {
	ok := func(i int) bool { return hist != nil && i < len(hist) && hist[i] }
	switch e := e.(type) {
	case nil, Const, FieldRef, ColRef:
		return -1
	case StateRef:
		if ok(int(e)) {
			return -1
		}
		return int(e)
	case Bin:
		if i := findBadStateRef(e.L, hist); i >= 0 {
			return i
		}
		return findBadStateRef(e.R, hist)
	case Neg:
		return findBadStateRef(e.X, hist)
	case Call:
		for _, a := range e.Args {
			if i := findBadStateRef(a, hist); i >= 0 {
				return i
			}
		}
		return -1
	case CondExpr:
		if i := findBadStateRefPred(e.P, hist); i >= 0 {
			return i
		}
		if i := findBadStateRef(e.T, hist); i >= 0 {
			return i
		}
		return findBadStateRef(e.E, hist)
	default:
		return MaxState // unknown nodes are conservatively rejected
	}
}

func findBadStateRefPred(p Pred, hist []bool) int {
	switch p := p.(type) {
	case nil, BoolConst:
		return -1
	case Cmp:
		if i := findBadStateRef(p.L, hist); i >= 0 {
			return i
		}
		return findBadStateRef(p.R, hist)
	case And:
		if i := findBadStateRefPred(p.L, hist); i >= 0 {
			return i
		}
		return findBadStateRefPred(p.R, hist)
	case Or:
		if i := findBadStateRefPred(p.L, hist); i >= 0 {
			return i
		}
		return findBadStateRefPred(p.R, hist)
	case Not:
		return findBadStateRefPred(p.X, hist)
	default:
		return MaxState
	}
}

// EvalA fills dst (row-major m×m) with this packet's A matrix, evaluated
// against the pre-update state.
func (ls *LinearSpec) EvalA(in *Input, state, dst []float64) {
	for i := range ls.aCoef {
		if c := &ls.aCoef[i]; c.code != nil {
			dst[i] = c.code.Eval(in, state)
		} else {
			dst[i] = c.val
		}
	}
}

// EvalB fills dst (length m) with this packet's B vector, evaluated
// against the pre-update state.
func (ls *LinearSpec) EvalB(in *Input, state, dst []float64) {
	if ls.bProg != nil {
		ls.bProg.Run(dst, in)
		return
	}
	for i := range ls.bCoef {
		if c := &ls.bCoef[i]; c.code != nil {
			dst[i] = c.code.Eval(in, state)
		} else {
			dst[i] = c.val
		}
	}
}

// InitP fills p (row-major m×m) with the insertion packet's A matrix,
// evaluated against the pre-update state — the P value a cache entry
// starts with when no coefficient references history variables. The
// running product then covers the whole epoch including its first
// packet, so evictions merge with MergeLinearState directly and the
// datapath never snapshots first packets for such folds.
func (ls *LinearSpec) InitP(p []float64, in *Input, state []float64) {
	ls.EvalA(in, state, p)
}

// IdentityP fills p (row-major m×m) with the identity matrix — the P value
// a cache entry starts with on insertion when coefficients reference
// history variables (the first packet is snapshotted and replayed at
// merge time instead; see MergeWithFirstRec).
func IdentityP(p []float64, m int) {
	for i := range p {
		p[i] = 0
	}
	for i := 0; i < m; i++ {
		p[i*m+i] = 1
	}
}

// StepP advances the running coefficient product: P ← A·P. scratch must
// have length ≥ m·m and is clobbered. This is the extra per-packet work a
// cache entry performs so that a later eviction can merge exactly; for
// m = 1 it reduces to the single multiply the paper describes for
// tracking (1-α)^N.
func StepP(p, a, scratch []float64, m int) {
	if m == 1 {
		p[0] = a[0] * p[0]
		return
	}
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			var acc float64
			for k := 0; k < m; k++ {
				acc += a[i*m+k] * p[k*m+j]
			}
			scratch[i*m+j] = acc
		}
	}
	copy(p[:m*m], scratch[:m*m])
}

// UpdateLinear applies one packet to (state, P) using the coefficient
// form: state ← A·state + B and, if p is non-nil, P ← A·P. A and B are
// evaluated against the pre-update state so that history-variable
// references see the previous packet's values. aScratch and mScratch must
// each have length ≥ m·m. The result must match Func.Update exactly;
// tests enforce this.
func (ls *LinearSpec) UpdateLinear(state, p []float64, in *Input, aScratch, mScratch []float64) {
	m := ls.Dim()
	if ls.aDiag && m == 1 {
		// Scalar fast path: evaluate the two coefficients straight into
		// registers — no scratch slices, no store ops. Same arithmetic
		// as the general diagonal path below.
		a, b := ls.aCoef[0].val, ls.bCoef[0].val
		if c := ls.aCoef[0].code; c != nil {
			a = c.Eval(in, state)
		}
		if c := ls.bCoef[0].code; c != nil {
			b = c.Eval(in, state)
		}
		state[0] = a*state[0] + b
		if p != nil {
			p[0] = a * p[0]
		}
		return
	}
	if ls.aDiag {
		// Diagonal A (every fused builtin): S and P stay decoupled per
		// state variable, and P remains diagonal, so one fused
		// multiply-add per variable replaces both m×m products. The
		// off-diagonal P entries are exact zeros either way. The caller's
		// scratch (m·m ≥ m each) holds the per-packet coefficients, so
		// nothing is zeroed or allocated here.
		av, bv := aScratch[:m], mScratch[:m]
		for i := 0; i < m; i++ {
			c := &ls.aCoef[i*m+i]
			if c.code != nil {
				av[i] = c.code.Eval(in, state)
			} else {
				av[i] = c.val
			}
		}
		ls.EvalB(in, state, bv)
		for i := 0; i < m; i++ {
			state[i] = av[i]*state[i] + bv[i]
			if p != nil {
				p[i*m+i] = av[i] * p[i*m+i]
			}
		}
		return
	}
	var ns, bs [MaxState]float64
	ls.EvalA(in, state, aScratch)
	ls.EvalB(in, state, bs[:m])
	for i := 0; i < m; i++ {
		var acc float64
		for k := 0; k < m; k++ {
			acc += aScratch[i*m+k] * state[k]
		}
		ns[i] = acc + bs[i]
	}
	copy(state[:m], ns[:m])
	if p != nil {
		StepP(p, aScratch, mScratch, m)
	}
}

// MergeLinearState reconciles an evicted cache value with the backing
// store's value for history-free folds (§3.2, "the merge operation"):
//
//	S_correct = S_new + P·(S_backing − S_0)
//
// snew is the evicted state, p its running coefficient product over the
// whole epoch, old the backing store's current value (pass s0 when the key
// is absent), s0 the fold's initial state, and dst receives the merged
// result (dst may alias snew or old).
func MergeLinearState(dst, snew, p, old, s0 []float64, m int) {
	if m == 1 {
		dst[0] = snew[0] + p[0]*(old[0]-s0[0])
		return
	}
	var tmp [MaxState]float64
	for i := 0; i < m; i++ {
		var acc float64
		for k := 0; k < m; k++ {
			acc += p[i*m+k] * (old[k] - s0[k])
		}
		tmp[i] = acc
	}
	for i := 0; i < m; i++ {
		dst[i] = snew[i] + tmp[i]
	}
}

// MergeWithFirstRec reconciles an evicted value for folds whose
// coefficients reference history variables. The datapath snapshots the
// first packet of each cache epoch; at merge time the first update is
// replayed twice — once from the true prior state, once from S0 as the
// cache actually ran it — and the running product P (which here covers
// packets 2..N only) propagates the difference:
//
//	S_correct = S_new + P·(f(S_backing, pkt1) − f(S_0, pkt1))
//
// This reduces exactly to MergeLinearState when no coefficient references
// history (then f(x, pkt1) − f(y, pkt1) = A1·(x−y) and P·A1 is the full
// product). firstIn is the snapshot of the epoch's first packet.
func MergeWithFirstRec(f *Func, dst, snew, p, old []float64, firstIn *Input) {
	var scr MergeScratch
	MergeWithFirstRecScratch(f, dst, snew, p, old, firstIn, &scr)
}

// MergeScratch holds the replay buffers MergeWithFirstRecScratch needs.
// The state slices are fed through f.Update's indirect call, so
// stack-local arrays would escape on every merge; a caller that owns a
// MergeScratch (one per backing store) keeps the eviction path
// allocation-free.
type MergeScratch struct {
	trueS, baseS [MaxState]float64
}

// MergeWithFirstRecScratch is MergeWithFirstRec with caller-owned
// scratch, for allocation-free merging on the eviction hot path.
func MergeWithFirstRecScratch(f *Func, dst, snew, p, old []float64, firstIn *Input, scr *MergeScratch) {
	m := f.StateLen()
	trueS, baseS := scr.trueS[:m], scr.baseS[:m]
	copy(trueS, old[:m])
	f.Update(trueS, firstIn)
	f.Init(baseS)
	f.Update(baseS, firstIn)
	for i := 0; i < m; i++ {
		baseS[i] = trueS[i] - baseS[i]
	}
	var tmp [MaxState]float64
	for i := 0; i < m; i++ {
		var acc float64
		for k := 0; k < m; k++ {
			acc += p[i*m+k] * baseS[k]
		}
		tmp[i] = acc
	}
	for i := 0; i < m; i++ {
		dst[i] = snew[i] + tmp[i]
	}
}
