package fold

// Compile-time constant folding. A closed subtree — one with no field,
// column or state reference — is replaced by the Const the tree
// interpreter evaluates it to (0 or 1 for a comparison or logic node), so
// folding is exact by construction and the lowering in compile.go only
// has to recognise Const operands.
// One post-order pass: every node is visited once and evaluated at most
// once, with constant children, so folding is linear in expression size
// (the pass also orders each CondExpr's arms for lowering: foldExprRegs).
//
// Together with eval.go this is the only non-test code that calls the
// tree interpreter (`make oracle-check` holds the rest of the tree to
// that).

func isConst(e Expr) bool { _, ok := e.(Const); return ok }

// foldExpr returns e with every closed subtree folded to a Const. Leaves,
// nil and unknown nodes come back unchanged.
func foldExpr(e Expr) Expr {
	e, _ = foldExprRegs(e)
	return e
}

// foldExprRegs is foldExpr, counting on the way back up the registers
// compile.go's lowering needs for the folded tree. The count decides a
// CondExpr's arm order: lowering evaluates E into the destination and T
// one above it, so the arm that needs more registers is made E (the arms
// swapped under the negated predicate: the same expression), and ifs
// nested in either arm cost no register depth.
func foldExprRegs(e Expr) (Expr, int) {
	closed, regs := false, 1
	switch n := e.(type) {
	case Bin:
		var nl, nr int
		n.L, nl = foldExprRegs(n.L)
		n.R, nr = foldExprRegs(n.R)
		e, closed, regs = n, isConst(n.L) && isConst(n.R), max(nl, nr+1)
		if int(n.Op) < len(constROps) {
			regs = pairRegs(n.L, n.R, nl, nr)
		}
	case Neg:
		n.X, regs = foldExprRegs(n.X)
		e, closed = n, isConst(n.X)
	case Not:
		n.X, regs = foldExprRegs(n.X)
		e, closed = n, isConst(n.X)
	case Call:
		args := make([]Expr, len(n.Args))
		closed = true
		for i, a := range n.Args {
			var na int
			args[i], na = foldExprRegs(a)
			closed = closed && isConst(args[i])
			regs = max(regs, na+i)
		}
		n.Args = args
		e = n
	case CondExpr:
		var np, nt, ne int
		n.P, np = foldExprRegs(n.P)
		n.T, nt = foldExprRegs(n.T)
		n.E, ne = foldExprRegs(n.E)
		if nt > ne {
			n.P, n.T, n.E, nt, ne = Not{X: n.P}, n.E, n.T, ne, nt
		}
		e, closed = n, isConst(n.P) && isConst(n.T) && isConst(n.E)
		regs = max(ne, nt+1, np+2)
	}
	if closed {
		return Const(EvalExpr(e, nil, nil)), 1
	}
	return e, regs
}

// pairRegs is the register need of an arithmetic or comparison node: a
// constant operand fuses into the instruction, otherwise the right one
// parks a register up. and/or have no constant form.
func pairRegs(l, r Expr, nl, nr int) int {
	switch {
	case isConst(r):
		return nl
	case isConst(l):
		return nr
	}
	return max(nl, nr+1)
}

// foldStmts folds every expression of a statement list.
// Unknown statements pass through for the lowering to reject.
func foldStmts(stmts []Stmt) []Stmt {
	out := make([]Stmt, len(stmts))
	for i, s := range stmts {
		switch s := s.(type) {
		case Assign:
			s.RHS = foldExpr(s.RHS)
			out[i] = s
		case If:
			s.Cond, s.Then, s.Else = foldExpr(s.Cond), foldStmts(s.Then), foldStmts(s.Else)
			out[i] = s
		default:
			out[i] = s
		}
	}
	return out
}
