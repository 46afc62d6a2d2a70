package fold

// Compile-time constant folding. A closed subtree — one with no field,
// column or state reference — is replaced by the Const (BoolConst) the
// tree interpreter evaluates it to, so folding is exact by construction
// and the lowering in compile.go only has to recognise Const operands.
// One post-order pass: every node is visited once and evaluated at most
// once, with constant children, so folding is linear in expression size.
//
// Together with eval.go this is the only non-test code that calls the
// tree interpreter (`make oracle-check` holds the rest of the tree to
// that).

func isConst(e Expr) bool     { _, ok := e.(Const); return ok }
func isBoolConst(p Pred) bool { _, ok := p.(BoolConst); return ok }

// foldExpr returns e with every closed subtree folded to a Const. Leaves,
// nil and unknown nodes come back unchanged.
func foldExpr(e Expr) Expr {
	closed := false
	switch n := e.(type) {
	case Bin:
		n.L, n.R = foldExpr(n.L), foldExpr(n.R)
		e, closed = n, isConst(n.L) && isConst(n.R)
	case Neg:
		n.X = foldExpr(n.X)
		e, closed = n, isConst(n.X)
	case Call:
		args := make([]Expr, len(n.Args))
		closed = true
		for i, a := range n.Args {
			args[i] = foldExpr(a)
			closed = closed && isConst(args[i])
		}
		n.Args = args
		e = n
	case CondExpr:
		n.P, n.T, n.E = foldPred(n.P), foldExpr(n.T), foldExpr(n.E)
		e, closed = n, isBoolConst(n.P) && isConst(n.T) && isConst(n.E)
	}
	if closed {
		return Const(EvalExpr(e, nil, nil))
	}
	return e
}

// foldPred is foldExpr for predicates: closed subtrees become BoolConst.
func foldPred(p Pred) Pred {
	closed := false
	switch n := p.(type) {
	case Cmp:
		n.L, n.R = foldExpr(n.L), foldExpr(n.R)
		p, closed = n, isConst(n.L) && isConst(n.R)
	case And:
		n.L, n.R = foldPred(n.L), foldPred(n.R)
		p, closed = n, isBoolConst(n.L) && isBoolConst(n.R)
	case Or:
		n.L, n.R = foldPred(n.L), foldPred(n.R)
		p, closed = n, isBoolConst(n.L) && isBoolConst(n.R)
	case Not:
		n.X = foldPred(n.X)
		p, closed = n, isBoolConst(n.X)
	}
	if closed {
		return BoolConst(EvalPred(p, nil, nil))
	}
	return p
}

// foldStmts folds every expression and predicate of a statement list.
// Unknown statements pass through for the lowering to reject.
func foldStmts(stmts []Stmt) []Stmt {
	out := make([]Stmt, len(stmts))
	for i, s := range stmts {
		switch s := s.(type) {
		case Assign:
			s.RHS = foldExpr(s.RHS)
			out[i] = s
		case If:
			s.Cond, s.Then, s.Else = foldPred(s.Cond), foldStmts(s.Then), foldStmts(s.Else)
			out[i] = s
		default:
			out[i] = s
		}
	}
	return out
}
