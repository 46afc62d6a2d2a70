// Package linear implements the linear-in-state analysis of §3.2: it
// decides, symbolically, whether a fold program's update is of the form
// S' = A·S + B with A and B functions of a bounded packet history, and if
// so produces the coefficient matrices the switch datapath and the
// backing-store merge need.
//
// The analysis runs in two passes:
//
//  1. History classification. A state variable is a history variable if,
//     on every path through the body, its end-of-body value is a pure
//     function of the current packet alone (e.g. outofseq's
//     "lastseq = tcpseq + payload_len"). Such variables hold "the previous
//     packet's value" at the start of each update, so the paper's footnote
//     4 admits them inside coefficients and branch conditions.
//
//  2. Affine interpretation. Each state variable's end-of-body value is
//     expressed as an affine combination of the *incoming* state with
//     packet-only coefficients. Reads of history variables become opaque
//     pure atoms; reads of other variables contribute identity
//     coefficients. Branches whose conditions are pure merge into
//     conditional coefficients; a branch condition that depends on
//     non-history state (e.g. nonmt's "maxseq > tcpseq") makes the fold
//     non-linear, as does multiplying two state-dependent expressions.
package linear

import (
	"fmt"
	"math"

	"perfq/internal/fold"
)

// NotLinearError explains why a program failed the analysis.
type NotLinearError struct {
	Prog   string
	Reason string
}

// Error implements error.
func (e *NotLinearError) Error() string {
	return fmt.Sprintf("fold %s is not linear in state: %s", e.Prog, e.Reason)
}

// Analyze decides whether prog is linear in state. On success it returns
// the coefficient spec; otherwise a *NotLinearError.
func Analyze(prog *fold.Program) (*fold.LinearSpec, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	hist := classifyHistory(prog)

	a := &analyzer{prog: prog, hist: hist}
	rows := identityRows(prog.NumState, hist)
	rows, err := a.runStmts(prog.Body, rows)
	if err != nil {
		return nil, &NotLinearError{Prog: prog.Name, Reason: err.Error()}
	}

	m := prog.NumState
	spec := &fold.LinearSpec{
		A:        make([][]fold.Expr, m),
		B:        make([]fold.Expr, m),
		HistVars: hist,
	}
	needsFirst := false
	for i := 0; i < m; i++ {
		spec.A[i] = make([]fold.Expr, m)
		for j := 0; j < m; j++ {
			spec.A[i][j] = rows[i].coef[j]
			if fold.ReadsState(rows[i].coef[j]) {
				needsFirst = true
			}
		}
		spec.B[i] = rows[i].c
		if fold.ReadsState(rows[i].c) {
			needsFirst = true
		}
	}
	spec.NeedsFirstPacket = needsFirst
	spec.Reassociated = a.reassoc
	if err := spec.Validate(); err != nil {
		// Internal invariant: the analysis only emits history atoms.
		return nil, fmt.Errorf("linear: internal error: %w", err)
	}
	return spec, nil
}

// Annotate runs Analyze on f's program and, when linear, fills in the
// fold's merge metadata. Folds that already declare a merge strategy
// (built-ins) are left untouched. It returns the analysis error for
// non-linear folds, which callers typically treat as informational.
func Annotate(f *fold.Func) error {
	if f.Merge != fold.MergeNone {
		return nil
	}
	spec, err := Analyze(f.Prog)
	if err != nil {
		return err
	}
	f.Merge = fold.MergeLinear
	f.Linear = spec
	return nil
}

// ---- Pass 1: history classification ----

// classifyHistory marks state variables whose end-of-body value is a pure
// function of the current packet on all paths.
func classifyHistory(prog *fold.Program) []bool {
	m := prog.NumState
	// status[i]: the variable's current abstract value. nil = depends on
	// incoming state (⊥); non-nil = pure expression in the current packet.
	status := make([]fold.Expr, m)
	runPureStmts(prog.Body, status)
	hist := make([]bool, m)
	for i, s := range status {
		hist[i] = s != nil
	}
	return hist
}

// runPureStmts abstractly interprets stmts over the pure/⊥ domain,
// mutating status.
func runPureStmts(stmts []fold.Stmt, status []fold.Expr) {
	for _, s := range stmts {
		switch s := s.(type) {
		case fold.Assign:
			status[s.Dst] = substPure(s.RHS, status)
		case fold.If:
			condPure := substPure(s.Cond, status)
			thenSt := append([]fold.Expr(nil), status...)
			elseSt := append([]fold.Expr(nil), status...)
			runPureStmts(s.Then, thenSt)
			runPureStmts(s.Else, elseSt)
			for i := range status {
				switch {
				case thenSt[i] == nil || elseSt[i] == nil || condPure == nil:
					// An impure branch value, or any assignment guarded by
					// an impure condition, taints the variable — unless it
					// was never assigned in either branch.
					if sameExpr(thenSt[i], status[i]) && sameExpr(elseSt[i], status[i]) {
						// untouched in both branches: keep current status
					} else {
						status[i] = nil
					}
				case sameExpr(thenSt[i], elseSt[i]):
					status[i] = thenSt[i]
				default:
					status[i] = fold.CondExpr{P: condPure, T: thenSt[i], E: elseSt[i]}
				}
			}
		}
	}
}

// substPure rewrites e with state reads replaced by their pure values;
// returns nil if any read is ⊥.
func substPure(e fold.Expr, status []fold.Expr) fold.Expr {
	switch e := e.(type) {
	case nil:
		return nil
	case fold.Const, fold.FieldRef, fold.ColRef:
		return e
	case fold.StateRef:
		return status[int(e)]
	case fold.Bin:
		l := substPure(e.L, status)
		r := substPure(e.R, status)
		if l == nil || r == nil {
			return nil
		}
		return fold.Bin{Op: e.Op, L: l, R: r}
	case fold.Neg:
		x := substPure(e.X, status)
		if x == nil {
			return nil
		}
		return fold.Neg{X: x}
	case fold.Not:
		x := substPure(e.X, status)
		if x == nil {
			return nil
		}
		return fold.Not{X: x}
	case fold.Call:
		args := make([]fold.Expr, len(e.Args))
		for i, a := range e.Args {
			args[i] = substPure(a, status)
			if args[i] == nil {
				return nil
			}
		}
		return fold.Call{Fn: e.Fn, Args: args}
	case fold.CondExpr:
		p := substPure(e.P, status)
		t := substPure(e.T, status)
		el := substPure(e.E, status)
		if p == nil || t == nil || el == nil {
			return nil
		}
		return fold.CondExpr{P: p, T: t, E: el}
	default:
		return nil
	}
}

// sameExpr compares expressions node by node, stopping at the first
// difference, and constants by bit pattern, as fold.Code does. Comparing
// printed forms would print both arms of every if at each nesting level:
// quadratic in if depth.
func sameExpr(a, b fold.Expr) bool {
	switch a := a.(type) {
	case nil:
		return b == nil
	case fold.Const:
		b, ok := b.(fold.Const)
		return ok && math.Float64bits(float64(a)) == math.Float64bits(float64(b))
	case fold.FieldRef, fold.ColRef, fold.StateRef:
		return a == b
	case fold.Bin:
		b, ok := b.(fold.Bin)
		return ok && a.Op == b.Op && sameExpr(a.L, b.L) && sameExpr(a.R, b.R)
	case fold.Neg:
		b, ok := b.(fold.Neg)
		return ok && sameExpr(a.X, b.X)
	case fold.Not:
		b, ok := b.(fold.Not)
		return ok && sameExpr(a.X, b.X)
	case fold.Call:
		b, ok := b.(fold.Call)
		if !ok || a.Fn != b.Fn || len(a.Args) != len(b.Args) {
			return false
		}
		for i := range a.Args {
			if !sameExpr(a.Args[i], b.Args[i]) {
				return false
			}
		}
		return true
	case fold.CondExpr:
		b, ok := b.(fold.CondExpr)
		return ok && sameExpr(a.P, b.P) && sameExpr(a.T, b.T) && sameExpr(a.E, b.E)
	}
	return false
}
