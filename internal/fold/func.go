package fold

import (
	"fmt"
	"math"
)

// MergeKind classifies how an evicted cache value can be reconciled with
// the backing store's value for the same key.
type MergeKind uint8

// Merge kinds.
const (
	// MergeNone: no sound merge exists; the backing store keeps one value
	// per eviction epoch and flags multi-epoch keys invalid (§3.2,
	// "operations that are not linear in state").
	MergeNone MergeKind = iota
	// MergeLinear: the update is linear in state (S' = A·S + B), so an
	// eviction merges exactly using the running product of A coefficients.
	MergeLinear
	// MergeAssoc: the fold is a commutative monoid (max, min, …), so
	// values combine directly. The paper does not formalize this case —
	// its follow-up work does — but it is a natural extension and is kept
	// behind an explicit kind so experiments can disable it.
	MergeAssoc
)

// String names the merge kind as used in reports.
func (m MergeKind) String() string {
	switch m {
	case MergeLinear:
		return "linear"
	case MergeAssoc:
		return "assoc"
	default:
		return "none"
	}
}

// Func is a fold function ready for the datapath: the IR program (always
// present: what the analyses read and what defines the fold's
// semantics), its bytecode, and merge metadata filled in by the
// linear-in-state analyzer or the built-in constructors.
type Func struct {
	Prog *Program
	// Code is the program body compiled to bytecode (see vm.go), filled
	// by EnsureCompiled; it is the only thing Update runs.
	Code *Code
	// Merge declares how evictions reconcile with the backing store.
	Merge MergeKind
	// Linear holds the coefficient matrices when Merge == MergeLinear.
	Linear *LinearSpec
	// Combine merges src into dst when Merge == MergeAssoc.
	Combine func(dst, src []float64)
}

// Name returns the fold's name.
func (f *Func) Name() string { return f.Prog.Name }

// StateLen returns the state vector length.
func (f *Func) StateLen() int { return f.Prog.NumState }

// Init fills state with the initial accumulator.
func (f *Func) Init(state []float64) { f.Prog.Init(state) }

// Update advances the accumulator by one input row. The fold must have
// been through EnsureCompiled — plan compilation and kvstore.New both do
// it — since the bytecode is the only evaluator behind this call.
func (f *Func) Update(state []float64, in *Input) { f.Code.Run(state, in) }

// EnsureCompiled lowers the program body (and the linear-in-state
// coefficient expressions, when present) to bytecode, or reports why it
// cannot — e.g. an expression deeper than the VM register file. A fold
// that fails here has no way to run. Idempotent; call from
// single-threaded setup code (plan compilation, store construction),
// never concurrently with Update.
func (f *Func) EnsureCompiled() error {
	if f.Code == nil {
		c, err := CompileProgram(f.Prog)
		if err != nil {
			return fmt.Errorf("fold body: %w", err)
		}
		f.Code = c
	}
	if f.Linear != nil {
		if err := f.Linear.EnsureCompiled(); err != nil {
			return fmt.Errorf("merge coefficient %w", err)
		}
	}
	return nil
}

// Count builds the COUNT built-in: one state variable incremented per row.
func Count() *Func {
	p := &Program{
		Name:       "count",
		NumState:   1,
		Body:       []Stmt{Assign{Dst: 0, RHS: Bin{Op: OpAdd, L: StateRef(0), R: Const(1)}}},
		StateNames: []string{"count"},
	}
	return &Func{
		Prog:  p,
		Merge: MergeLinear,
		Linear: &LinearSpec{
			A: [][]Expr{{Const(1)}},
			B: []Expr{Const(1)},
		},
	}
}

// Sum builds SUM(e): one state variable accumulating e per row.
func Sum(e Expr) *Func {
	p := &Program{
		Name:       fmt.Sprintf("sum(%v)", e),
		NumState:   1,
		Body:       []Stmt{Assign{Dst: 0, RHS: Bin{Op: OpAdd, L: StateRef(0), R: e}}},
		StateNames: []string{"sum"},
	}
	return &Func{
		Prog:  p,
		Merge: MergeLinear,
		Linear: &LinearSpec{
			A: [][]Expr{{Const(1)}},
			B: []Expr{e},
		},
	}
}

// Max builds MAX(e). Not linear in state; merges as a commutative monoid.
func Max(e Expr) *Func {
	p := &Program{
		Name:     fmt.Sprintf("max(%v)", e),
		NumState: 1,
		S0:       []float64{negInf},
		Body: []Stmt{
			If{
				Cond: Bin{Op: OpGt, L: e, R: StateRef(0)},
				Then: []Stmt{Assign{Dst: 0, RHS: e}},
			},
		},
		StateNames: []string{"max"},
	}
	return &Func{
		Prog:  p,
		Merge: MergeAssoc,
		Combine: func(dst, src []float64) {
			if src[0] > dst[0] {
				dst[0] = src[0]
			}
		},
	}
}

// Min builds MIN(e). Not linear in state; merges as a commutative monoid.
func Min(e Expr) *Func {
	p := &Program{
		Name:     fmt.Sprintf("min(%v)", e),
		NumState: 1,
		S0:       []float64{posInf},
		Body: []Stmt{
			If{
				Cond: Bin{Op: OpLt, L: e, R: StateRef(0)},
				Then: []Stmt{Assign{Dst: 0, RHS: e}},
			},
		},
		StateNames: []string{"min"},
	}
	return &Func{
		Prog:  p,
		Merge: MergeAssoc,
		Combine: func(dst, src []float64) {
			if src[0] < dst[0] {
				dst[0] = src[0]
			}
		},
	}
}

// Avg builds AVG(e) as the linear two-variable fold (sum, count); the
// query layer projects sum/count at read time.
func Avg(e Expr) *Func {
	p := &Program{
		Name:     fmt.Sprintf("avg(%v)", e),
		NumState: 2,
		Body: []Stmt{
			Assign{Dst: 0, RHS: Bin{Op: OpAdd, L: StateRef(0), R: e}},
			Assign{Dst: 1, RHS: Bin{Op: OpAdd, L: StateRef(1), R: Const(1)}},
		},
		StateNames: []string{"sum", "count"},
	}
	return &Func{
		Prog:  p,
		Merge: MergeLinear,
		Linear: &LinearSpec{
			A: [][]Expr{{Const(1), nil}, {nil, Const(1)}},
			B: []Expr{e, Const(1)},
		},
	}
}

// Ewma builds EWMA(e, alpha): s = (1-alpha)·s + alpha·e, the paper's
// running example of a linear-in-state fold.
func Ewma(e Expr, alpha float64) *Func {
	p := &Program{
		Name:     fmt.Sprintf("ewma(%v, %g)", e, alpha),
		NumState: 1,
		Body: []Stmt{
			Assign{Dst: 0, RHS: Bin{
				Op: OpAdd,
				L:  Bin{Op: OpMul, L: Const(1 - alpha), R: StateRef(0)},
				R:  Bin{Op: OpMul, L: Const(alpha), R: e},
			}},
		},
		StateNames: []string{"ewma"},
	}
	return &Func{
		Prog:  p,
		Merge: MergeLinear,
		Linear: &LinearSpec{
			A: [][]Expr{{Const(1 - alpha)}},
			B: []Expr{Bin{Op: OpMul, L: Const(alpha), R: e}},
		},
	}
}

var (
	posInf = math.Inf(1)
	negInf = math.Inf(-1)
)
