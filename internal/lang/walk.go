package lang

import (
	"strings"

	"perfq/internal/fold"
	"perfq/internal/trace"
)

// One walk types a query expression and lowers it to fold IR. The places
// an expression can stand differ only in what a name means, so that is
// all a scope answers; literals, operators and the scalar functions
// min / max / abs have one rule everywhere.
type scope interface {
	ident(e *Ident) (fold.Expr, error)
	dotted(e *Dotted) (fold.Expr, error)
	// call resolves a call that is not a scalar function — a derived
	// table's aggregate column — or says why it cannot.
	call(e *CallExpr) (fold.Expr, error)
}

// scalarFns are the pure functions every scope offers.
var scalarFns = map[string]struct {
	fn    fold.Fn
	arity int
}{"min": {fold.FnMin, 2}, "max": {fold.FnMax, 2}, "abs": {fold.FnAbs, 1}}

var (
	arithOps = map[Kind]fold.Op{PLUS: fold.OpAdd, MINUS: fold.OpSub, STAR: fold.OpMul, SLASH: fold.OpDiv}
	cmpOps   = map[Kind]fold.Op{EQ: fold.OpEq, NE: fold.OpNe, LT: fold.OpLt, LE: fold.OpLe, GT: fold.OpGt, GE: fold.OpGe}
)

// lower types e in sc and lowers it, reporting whether it is boolean: a
// boolean lowers to a 0/1 expression. It recurses as deep as e, which
// the parser holds to MaxExprDepth.
func lower(sc scope, e Expr) (x fold.Expr, isBool bool, err error) {
	switch e := e.(type) {
	case *NumberLit:
		return fold.Const(e.Value), false, nil
	case *InfinityLit:
		return fold.Const(fold.Infinity), false, nil
	case *BoolLit:
		if e.Value {
			return fold.Const(1), true, nil
		}
		return fold.Const(0), true, nil
	case *Ident:
		x, err := sc.ident(e)
		return x, false, err
	case *Dotted:
		x, err := sc.dotted(e)
		return x, false, err
	case *UnaryExpr:
		x, isBool, err := lower(sc, e.X)
		switch {
		case err != nil:
			return nil, false, err
		case e.Op != KwNot && !isBool:
			return fold.Neg{X: x}, false, nil
		case e.Op == KwNot && isBool:
			return fold.Not{X: x}, true, nil
		case e.Op == KwNot:
			return nil, false, errf(e.Pos, "NOT needs a boolean operand")
		}
		return nil, false, errf(e.Pos, "negation needs a numeric operand")
	case *BinExpr:
		l, lb, err := lower(sc, e.L)
		if err != nil {
			return nil, false, err
		}
		r, rb, err := lower(sc, e.R)
		if err != nil {
			return nil, false, err
		}
		if op, ok := arithOps[e.Op]; ok {
			if lb || rb {
				return nil, false, errf(e.Pos, "arithmetic needs numeric operands")
			}
			return fold.Bin{Op: op, L: l, R: r}, false, nil
		}
		if op, ok := cmpOps[e.Op]; ok {
			if lb || rb {
				return nil, false, errf(e.Pos, "comparison needs numeric operands")
			}
			return fold.Bin{Op: op, L: l, R: r}, true, nil
		}
		if !lb || !rb {
			return nil, false, errf(e.Pos, "%s needs boolean operands", opText(e.Op))
		}
		if e.Op == KwAnd {
			return fold.Bin{Op: fold.OpAnd, L: l, R: r}, true, nil
		}
		return fold.Bin{Op: fold.OpOr, L: l, R: r}, true, nil
	case *CallExpr:
		f, scalar := scalarFns[strings.ToLower(e.Name)]
		if !scalar || len(e.Args) != f.arity {
			x, err := sc.call(e)
			return x, false, err
		}
		args := make([]fold.Expr, len(e.Args))
		for i, a := range e.Args {
			var err error
			if args[i], err = lowerTyped(sc, a, false, e.Name+" needs numeric arguments"); err != nil {
				return nil, false, err
			}
		}
		return fold.Call{Fn: f.fn, Args: args}, false, nil
	}
	return nil, false, errf(e.exprPos(), "* is only valid as the whole select list of a plain select")
}

// lowerTyped lowers e, which must be boolean when wantBool holds and
// numeric otherwise; msg says so when it is not.
func lowerTyped(sc scope, e Expr, wantBool bool, msg string) (fold.Expr, error) {
	x, isBool, err := lower(sc, e)
	if err == nil && isBool != wantBool {
		err = errf(e.exprPos(), "%s", msg)
	}
	return x, err
}

// arityErr says how many arguments the scalar function e names takes, or
// is nil when e names none. A scope reports it for a call it cannot
// resolve otherwise.
func arityErr(e *CallExpr) error {
	f, ok := scalarFns[strings.ToLower(e.Name)]
	switch {
	case !ok:
		return nil
	case f.arity == 1:
		return errf(e.Pos, "%s takes 1 argument", e.Name)
	}
	return errf(e.Pos, "%s takes %d arguments", e.Name, f.arity)
}

// rowScope resolves names over one input row: T's fields when in is nil,
// else a derived table's columns. Constants come first in both.
type rowScope struct {
	c  *Checked
	in *CheckedQuery
}

func (s rowScope) ident(e *Ident) (fold.Expr, error) {
	if v, ok := s.c.Consts[e.Name]; ok {
		return fold.Const(v), nil
	}
	if s.in != nil {
		i, err := s.in.column(e.Name, e.Pos)
		return fold.ColRef(i), err
	}
	if f, ok := trace.FieldByName(e.Name); ok {
		return fold.FieldRef(f), nil
	}
	return nil, errf(e.Pos, "%q is not a schema field or constant", e.Name)
}

func (s rowScope) dotted(e *Dotted) (fold.Expr, error) {
	if s.in == nil {
		return nil, errf(e.Pos, "dotted reference %s over the raw table T", e)
	}
	i, err := s.in.column(e.String(), e.Pos)
	return fold.ColRef(i), err
}

// call resolves the paper's "WHERE SUM(tout-tin) > L": over a derived
// table an aggregate-shaped call names the upstream aggregate column.
func (s rowScope) call(e *CallExpr) (fold.Expr, error) {
	var name string
	if s.in != nil {
		name = canonicalCall(e)
		if i := columnIndex(s.in.Schema, name); i >= 0 {
			return fold.ColRef(i), nil
		}
	}
	switch {
	case !IsAggregate(e.Name):
		if err := arityErr(e); err != nil {
			return nil, err
		}
		return nil, errf(e.Pos, "unknown function %q", e.Name)
	case s.in == nil:
		return nil, errf(e.Pos, "aggregate %s is only valid in a GROUPBY select list", e.Name)
	}
	return nil, errf(e.Pos, "%s does not match any column of %s", name, s.in.Name)
}

// joinScope resolves names over a join's combined row: the left side's
// columns, then the right side's offset by len(left.Schema). Dotted names
// pick a side; bare ones must be constants, shared key columns or unique
// to one side.
type joinScope struct {
	c           *Checked
	left, right *CheckedQuery
}

func (s joinScope) ident(e *Ident) (fold.Expr, error) {
	if v, ok := s.c.Consts[e.Name]; ok {
		return fold.Const(v), nil
	}
	l, r := columnIndex(s.left.Schema, e.Name), columnIndex(s.right.Schema, e.Name)
	switch {
	case l >= 0 && (r < 0 || s.left.Schema[l].IsKey):
		return fold.ColRef(l), nil
	case l >= 0:
		return nil, errf(e.Pos, "%q is ambiguous; qualify it as %s.%s or %s.%s",
			e.Name, s.left.Name, e.Name, s.right.Name, e.Name)
	case r >= 0:
		return fold.ColRef(len(s.left.Schema) + r), nil
	}
	return nil, errf(e.Pos, "%q is not a column of %s or %s", e.Name, s.left.Name, s.right.Name)
}

func (s joinScope) dotted(e *Dotted) (fold.Expr, error) {
	switch {
	case strings.EqualFold(e.Base, s.left.Name):
		i, err := s.left.column(e.Col, e.Pos)
		return fold.ColRef(i), err
	case strings.EqualFold(e.Base, s.right.Name):
		i, err := s.right.column(e.Col, e.Pos)
		return fold.ColRef(len(s.left.Schema) + i), err
	}
	return nil, errf(e.Pos, "%q is not a join input (%s or %s)", e.Base, s.left.Name, s.right.Name)
}

func (s joinScope) call(e *CallExpr) (fold.Expr, error) {
	name := canonicalCall(e)
	if columnIndex(s.left.Schema, name) >= 0 || columnIndex(s.right.Schema, name) >= 0 {
		return nil, errf(e.Pos, "%q is ambiguous in a join; qualify it (e.g. %s.%s)", name, s.left.Name, strings.ToLower(e.Name))
	}
	if err := arityErr(e); err != nil {
		return nil, err
	}
	return nil, errf(e.Pos, "unknown function %q in join", e.Name)
}

// foldScope resolves names inside a fold body: a state variable is its
// word of the state vector, a row parameter what this use binds it to
// (binds[i] for RowParams[i]), and anything else must be a constant.
// params maps StateParams[i] to i and RowParams[i] to ^i.
type foldScope struct {
	c      *Checked
	fd     *FoldDecl
	params map[string]int
	binds  []fold.Expr
}

func (s foldScope) ident(e *Ident) (fold.Expr, error) {
	if i, ok := s.params[e.Name]; ok && i >= 0 {
		return fold.StateRef(i), nil
	} else if ok {
		return s.binds[^i], nil
	}
	if v, ok := s.c.Consts[e.Name]; ok {
		return fold.Const(v), nil
	}
	return nil, errf(e.Pos, "%q is not a parameter of %s or a constant", e.Name, s.fd.Name)
}

func (s foldScope) dotted(e *Dotted) (fold.Expr, error) {
	return nil, errf(e.Pos, "dotted references are not allowed inside fold bodies")
}

func (s foldScope) call(e *CallExpr) (fold.Expr, error) {
	if err := arityErr(e); err != nil {
		return nil, err
	}
	return nil, errf(e.Pos, "unknown function %q in fold body (min, max, abs available)", e.Name)
}

// stmts types a fold body and lowers it with this scope's bindings.
func (s foldScope) stmts(stmts []Stmt) ([]fold.Stmt, error) {
	out := make([]fold.Stmt, 0, len(stmts))
	for _, st := range stmts {
		switch st := st.(type) {
		case *AssignStmt:
			dst, ok := s.params[st.Name]
			if !ok || dst < 0 {
				if ok {
					return nil, errf(st.Pos, "cannot assign to row parameter %q", st.Name)
				}
				return nil, errf(st.Pos, "assignment to %q, which is not a state variable of %s", st.Name, s.fd.Name)
			}
			rhs, err := lowerTyped(s, st.Expr, false, "state assignment needs a numeric expression")
			if err != nil {
				return nil, err
			}
			out = append(out, fold.Assign{Dst: dst, RHS: rhs})
		case *IfStmt:
			cond, err := lowerTyped(s, st.Cond, true, "if condition must be boolean")
			if err != nil {
				return nil, err
			}
			then, err := s.stmts(st.Then)
			if err != nil {
				return nil, err
			}
			els, err := s.stmts(st.Else)
			if err != nil {
				return nil, err
			}
			out = append(out, fold.If{Cond: cond, Then: then, Else: els})
		}
	}
	return out, nil
}
