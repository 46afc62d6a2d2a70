package linear

import (
	"errors"
	"fmt"

	"perfq/internal/fold"
)

// aff is an affine form over the incoming state vector: Σ coef[j]·s_j + c,
// where every coefficient and the constant are packet-only expressions
// (possibly containing history-variable atoms). nil entries mean 0.
type aff struct {
	coef []fold.Expr
	c    fold.Expr
}

// pure reports whether the form has no state coefficients.
func (a aff) pure() bool {
	for _, e := range a.coef {
		if e != nil {
			return false
		}
	}
	return true
}

func (a aff) clone() aff {
	return aff{coef: append([]fold.Expr(nil), a.coef...), c: a.c}
}

// identityRows builds the initial rows: each variable equals itself.
// History variables are represented as opaque pure atoms (StateRef) since
// their incoming value is a function of the previous packet; other
// variables get an identity coefficient.
func identityRows(m int, hist []bool) []aff {
	rows := make([]aff, m)
	for i := 0; i < m; i++ {
		rows[i].coef = make([]fold.Expr, m)
		if hist[i] {
			rows[i].c = fold.StateRef(i)
		} else {
			rows[i].coef[i] = fold.Const(1)
		}
	}
	return rows
}

// analyzer carries the context of pass 2.
type analyzer struct {
	prog *fold.Program
	hist []bool
}

// runStmts interprets a statement list starting from rows, returning the
// updated rows.
func (a *analyzer) runStmts(stmts []fold.Stmt, rows []aff) ([]aff, error) {
	for _, s := range stmts {
		switch s := s.(type) {
		case fold.Assign:
			v, err := a.exprToAff(s.RHS, rows)
			if err != nil {
				return nil, err
			}
			rows[s.Dst] = v
		case fold.If:
			cond, err := a.cond(s.Cond, rows)
			if err != nil {
				return nil, err
			}
			thenRows := cloneRows(rows)
			elseRows := cloneRows(rows)
			if thenRows, err = a.runStmts(s.Then, thenRows); err != nil {
				return nil, err
			}
			if elseRows, err = a.runStmts(s.Else, elseRows); err != nil {
				return nil, err
			}
			rows = mergeRows(cond, thenRows, elseRows)
		}
	}
	return rows, nil
}

func cloneRows(rows []aff) []aff {
	out := make([]aff, len(rows))
	for i := range rows {
		out[i] = rows[i].clone()
	}
	return out
}

// mergeRows combines two branch outcomes under a pure condition, emitting
// conditional coefficients only where the branches differ.
func mergeRows(cond fold.Expr, thenRows, elseRows []aff) []aff {
	out := make([]aff, len(thenRows))
	for i := range thenRows {
		m := len(thenRows[i].coef)
		out[i].coef = make([]fold.Expr, m)
		for j := 0; j < m; j++ {
			out[i].coef[j] = condExpr(cond, thenRows[i].coef[j], elseRows[i].coef[j])
		}
		out[i].c = condExpr(cond, thenRows[i].c, elseRows[i].c)
	}
	return out
}

// exprToAff expresses e as an affine form over the incoming state.
func (a *analyzer) exprToAff(e fold.Expr, rows []aff) (aff, error) {
	m := a.prog.NumState
	zero := func() aff { return aff{coef: make([]fold.Expr, m)} }
	switch e := e.(type) {
	case fold.Const, fold.FieldRef, fold.ColRef:
		v := zero()
		v.c = e
		return v, nil
	case fold.StateRef:
		return rows[int(e)].clone(), nil
	case fold.Bin:
		l, err := a.exprToAff(e.L, rows)
		if err != nil {
			return aff{}, err
		}
		r, err := a.exprToAff(e.R, rows)
		if err != nil {
			return aff{}, err
		}
		switch e.Op {
		case fold.OpAdd:
			return combine(l, r, addExpr), nil
		case fold.OpSub:
			return combine(l, r, subExpr), nil
		case fold.OpMul:
			switch {
			case l.pure():
				return scale(r, l.c, mulExpr), nil
			case r.pure():
				return scale(l, r.c, mulExpr), nil
			default:
				return aff{}, fmt.Errorf("product of two state-dependent expressions: %v", e)
			}
		case fold.OpDiv:
			if !r.pure() {
				return aff{}, fmt.Errorf("division by a state-dependent expression: %v", e)
			}
			if r.c == nil {
				return aff{}, errors.New("division by constant zero")
			}
			return scale(l, r.c, func(x, d fold.Expr) fold.Expr { return divExpr(x, d) }), nil
		case fold.OpEq, fold.OpNe, fold.OpLt, fold.OpLe, fold.OpGt, fold.OpGe, fold.OpAnd, fold.OpOr:
			if !l.pure() || !r.pure() {
				return aff{}, fmt.Errorf("branch condition depends on state: %v", e)
			}
			v := zero()
			v.c = fold.Bin{Op: e.Op, L: orZero(l.c), R: orZero(r.c)}
			return v, nil
		}
		return aff{}, fmt.Errorf("unknown operator in %v", e)
	case fold.Neg:
		x, err := a.exprToAff(e.X, rows)
		if err != nil {
			return aff{}, err
		}
		out := zero()
		for j := range x.coef {
			if x.coef[j] != nil {
				out.coef[j] = negExpr(x.coef[j])
			}
		}
		if x.c != nil {
			out.c = negExpr(x.c)
		}
		return out, nil
	case fold.Not:
		x, err := a.cond(e.X, rows)
		if err != nil {
			return aff{}, err
		}
		v := zero()
		v.c = fold.Not{X: x}
		return v, nil
	case fold.Call:
		args := make([]fold.Expr, len(e.Args))
		for i, arg := range e.Args {
			v, err := a.exprToAff(arg, rows)
			if err != nil {
				return aff{}, err
			}
			if !v.pure() {
				return aff{}, fmt.Errorf("%v applied to a state-dependent expression", e.Fn)
			}
			args[i] = orZero(v.c)
		}
		out := zero()
		out.c = fold.Call{Fn: e.Fn, Args: args}
		return out, nil
	case fold.CondExpr:
		cond, err := a.cond(e.P, rows)
		if err != nil {
			return aff{}, err
		}
		t, err := a.exprToAff(e.T, rows)
		if err != nil {
			return aff{}, err
		}
		el, err := a.exprToAff(e.E, rows)
		if err != nil {
			return aff{}, err
		}
		return mergeRows(cond, []aff{t}, []aff{el})[0], nil
	default:
		return aff{}, fmt.Errorf("unsupported expression %T", e)
	}
}

// cond interprets a condition and verifies the result does not depend
// on non-history state. A failure here is the paper's "TCP non-monotonic"
// case: a branch condition that reads a true state variable makes the
// fold non-linear.
func (a *analyzer) cond(e fold.Expr, rows []aff) (fold.Expr, error) {
	v, err := a.exprToAff(e, rows)
	if err != nil {
		return nil, err
	}
	if !v.pure() {
		return nil, fmt.Errorf("branch condition depends on state: %v", e)
	}
	return orZero(v.c), nil
}

// combine applies op componentwise to two affine forms.
func combine(l, r aff, op func(a, b fold.Expr) fold.Expr) aff {
	out := aff{coef: make([]fold.Expr, len(l.coef))}
	for j := range l.coef {
		out.coef[j] = op(l.coef[j], r.coef[j])
	}
	out.c = op(l.c, r.c)
	return out
}

// scale multiplies (or divides) every component of v by the pure factor k.
func scale(v aff, k fold.Expr, op func(x, k fold.Expr) fold.Expr) aff {
	out := aff{coef: make([]fold.Expr, len(v.coef))}
	for j := range v.coef {
		if v.coef[j] != nil {
			out.coef[j] = op(v.coef[j], k)
		}
	}
	if v.c != nil {
		out.c = op(v.c, k)
	}
	return out
}

// ---- expression constructors with light constant folding ----

func orZero(e fold.Expr) fold.Expr {
	if e == nil {
		return fold.Const(0)
	}
	return e
}

func addExpr(a, b fold.Expr) fold.Expr {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if ca, ok := a.(fold.Const); ok {
		if cb, ok := b.(fold.Const); ok {
			return fold.Const(float64(ca) + float64(cb))
		}
	}
	return fold.Bin{Op: fold.OpAdd, L: a, R: b}
}

func subExpr(a, b fold.Expr) fold.Expr {
	if b == nil {
		return a
	}
	if a == nil {
		return negExpr(b)
	}
	if ca, ok := a.(fold.Const); ok {
		if cb, ok := b.(fold.Const); ok {
			return fold.Const(float64(ca) - float64(cb))
		}
	}
	return fold.Bin{Op: fold.OpSub, L: a, R: b}
}

func negExpr(a fold.Expr) fold.Expr {
	if c, ok := a.(fold.Const); ok {
		return fold.Const(-float64(c))
	}
	return fold.Neg{X: a}
}

func mulExpr(a, k fold.Expr) fold.Expr {
	if a == nil || k == nil {
		return nil
	}
	if ck, ok := k.(fold.Const); ok {
		switch float64(ck) {
		case 0:
			return nil
		case 1:
			return a
		}
		if ca, ok := a.(fold.Const); ok {
			return fold.Const(float64(ca) * float64(ck))
		}
	}
	if ca, ok := a.(fold.Const); ok {
		switch float64(ca) {
		case 0:
			return nil
		case 1:
			return k
		}
	}
	return fold.Bin{Op: fold.OpMul, L: a, R: k}
}

func divExpr(a, d fold.Expr) fold.Expr {
	if a == nil {
		return nil
	}
	if cd, ok := d.(fold.Const); ok {
		if float64(cd) == 1 {
			return a
		}
		if ca, ok := a.(fold.Const); ok && float64(cd) != 0 {
			return fold.Const(float64(ca) / float64(cd))
		}
	}
	return fold.Bin{Op: fold.OpDiv, L: a, R: d}
}

// condExpr merges two branch values under cond, folding equal branches.
func condExpr(cond, t, e fold.Expr) fold.Expr {
	if sameExpr(t, e) {
		return t
	}
	return fold.CondExpr{P: cond, T: orZero(t), E: orZero(e)}
}
