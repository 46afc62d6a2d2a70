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
	// and per B entry. A coef with code == nil is the constant val — all
	// of A for every built-in (EWMA's A is [1-α]).
	aCoef []coef
	bCoef []coef
	// perRecord is BlockEvaluable's why; when "", block lists the distinct
	// non-constant codes among A's diagonal and B with the coefficient
	// columns each fills (column i < m is A[i][i], column m+i is B[i]).
	perRecord string
	block     []blockCode
}

// coef is one compiled coefficient: bytecode, or a constant when code is
// nil.
type coef struct {
	code *Code
	val  float64
}

// eval returns the coefficient for one record.
func (c *coef) eval(in *Input, state []float64) float64 {
	if c.code != nil {
		return c.code.Eval(in, state)
	}
	return c.val
}

// blockCode is one code EvalCoefBlock runs and the columns it fills.
type blockCode struct {
	code *Code
	cols []int
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
// folded constant), or reports the first one that cannot be. Everything
// that evaluates the spec requires it to have succeeded. Idempotent; call
// from single-threaded setup code only.
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
	ls.aCoef, ls.bCoef = a, b
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if i != j && (a[i*m+j].code != nil || a[i*m+j].val != 0) {
				ls.perRecord = "coupled state"
				return nil
			}
		}
	}
	for c := 0; c < 2*m; c++ {
		code := ls.diagCoef(c).code
		if code == nil {
			continue
		}
		if !code.Vectorizable() {
			ls.perRecord, ls.block = "history fold", nil
			return nil
		}
		k := 0
		for k < len(ls.block) && !ls.block[k].code.same(code) {
			k++
		}
		if k == len(ls.block) {
			ls.block = append(ls.block, blockCode{code: code})
		}
		ls.block[k].cols = append(ls.block[k].cols, c)
	}
	return nil
}

// diagCoef returns coefficient column c: A[c][c] for c < m, else B[c-m].
func (ls *LinearSpec) diagCoef(c int) *coef {
	m := ls.Dim()
	if c >= m {
		return &ls.bCoef[c-m]
	}
	return &ls.aCoef[c*m+c]
}

// BlockEvaluable reports whether the update is one multiply-add per state
// word whose coefficients are functions of the record alone — §3.2's
// form, coefficients in stateless stages ahead of the stateful ALU: A is
// diagonal (state words, and P, stay decoupled) and no coefficient reads
// state. When not, why names what fails: "coupled state" (an off-diagonal
// A entry) or "history fold" (a coefficient reads the previous packet).
func (ls *LinearSpec) BlockEvaluable() (ok bool, why string) {
	return ls.perRecord == "", ls.perRecord
}

// NewCoefBlock returns the coefficient columns of a block-evaluable spec:
// coefficient c of lane l is at [c*BlockSize+l]. Constant columns are
// filled in here, once; EvalCoefBlock writes the others.
func (ls *LinearSpec) NewCoefBlock() []float64 {
	m := ls.Dim()
	cols := make([]float64, 2*m*BlockSize)
	for c := 0; c < 2*m; c++ {
		col, v := cols[c<<blockShift:(c+1)<<blockShift], ls.diagCoef(c).val
		for l := range col {
			col[l] = v // 0 for the ones EvalCoefBlock writes
		}
	}
	return cols
}

// EvalCoefBlock fills the non-constant columns of cols for the first n
// lanes of blk. A code several coefficients share — fused members repeat
// their guard — runs once.
func (ls *LinearSpec) EvalCoefBlock(blk *InputBlock, n int, regs *BlockRegs, cols []float64) {
	for _, bc := range ls.block {
		first := cols[bc.cols[0]<<blockShift:]
		bc.code.EvalBlock(blk, n, regs, first)
		for _, c := range bc.cols[1:] {
			copy(cols[c<<blockShift:], first[:n])
		}
	}
}

// EvalCoefs is EvalCoefBlock for one record, into lane 0 of cols.
func (ls *LinearSpec) EvalCoefs(in *Input, cols []float64) {
	for _, bc := range ls.block {
		v := bc.code.Eval(in, nil)
		for _, c := range bc.cols {
			cols[c<<blockShift] = v
		}
	}
}

// IsCommutative reports whether the linear update commutes across
// arbitrary interleavings of the record stream: block-evaluable with A
// constantly the identity. For such folds — COUNT, SUM, AVG's pair,
// presence counters — the state after any interleaving of two disjoint
// sub-streams is S0 plus the per-sub-stream deltas, so partitions of the
// stream by space (one store per switch) merge just as exactly as
// partitions by time (cache epochs). EWMA fails the A-identity test;
// history folds fail because "the previous packet" differs per sub-stream.
func (ls *LinearSpec) IsCommutative() bool {
	if ls.EnsureCompiled() != nil || ls.perRecord != "" {
		return false
	}
	for i := 0; i < ls.Dim(); i++ {
		if a := ls.diagCoef(i); a.code != nil || a.val != 1 {
			return false
		}
	}
	return true
}

// FieldMask returns the raw-record fields EvalCoefBlock reads.
func (ls *LinearSpec) FieldMask() (mask uint32) {
	for _, bc := range ls.block {
		mask |= bc.code.FieldMask()
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
	case Not:
		return findBadStateRef(e.X, hist)
	case Call:
		for _, a := range e.Args {
			if i := findBadStateRef(a, hist); i >= 0 {
				return i
			}
		}
		return -1
	case CondExpr:
		if i := findBadStateRef(e.P, hist); i >= 0 {
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

// EvalA fills dst (row-major m×m) with this packet's A matrix, evaluated
// against the pre-update state.
func (ls *LinearSpec) EvalA(in *Input, state, dst []float64) {
	for i := range ls.aCoef {
		dst[i] = ls.aCoef[i].eval(in, state)
	}
}

// EvalB fills dst (length m) with this packet's B vector, evaluated
// against the pre-update state.
func (ls *LinearSpec) EvalB(in *Input, state, dst []float64) {
	for i := range ls.bCoef {
		dst[i] = ls.bCoef[i].eval(in, state)
	}
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

// UpdateLinear applies one packet to (state, P) in the general coefficient
// form: state ← A·state + B and, if p is non-nil, P ← A·P, with A and B
// evaluated against the pre-update state so that history-variable
// references see the previous packet's values — what a cache runs per
// record for the specs BlockEvaluable refuses. aScratch and mScratch must
// each have length ≥ m·m. The result must match Func.Update exactly;
// tests enforce this.
func (ls *LinearSpec) UpdateLinear(state, p []float64, in *Input, aScratch, mScratch []float64) {
	m := ls.Dim()
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

// MergeScratch holds the replay buffers MergeWithFirstRec needs.
type MergeScratch struct {
	trueS, baseS [MaxState]float64
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
// product). firstIn is the snapshot of the epoch's first packet. The
// replay buffers are the caller's: the state slices are fed through
// f.Update's indirect call, so stack-local arrays would escape on every
// merge, and a MergeScratch per backing store keeps the eviction path
// allocation-free.
func MergeWithFirstRec(f *Func, dst, snew, p, old []float64, firstIn *Input, scr *MergeScratch) {
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
