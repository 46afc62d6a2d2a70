package fold

import (
	"math"

	"perfq/internal/trace"
)

// EvalExpr evaluates an expression against the input row and state vector.
// Division by zero yields 0 rather than ±Inf: switch ALUs saturate rather
// than trap, and a well-typed query never divides by zero on the switch
// (ratios appear only in collector-stage predicates). Comparisons and the
// logic operators yield 1 or 0 and read any nonzero operand (NaN
// included) as true. Both operands of and/or are evaluated: expressions
// are total and side-effect free, so a short circuit is unobservable.
func EvalExpr(e Expr, in *Input, state []float64) float64 {
	switch e := e.(type) {
	case Const:
		return float64(e)
	case FieldRef:
		return float64(in.Rec.Field(trace.FieldID(e)))
	case ColRef:
		return in.Cols[int(e)]
	case StateRef:
		return state[int(e)]
	case Bin:
		l := EvalExpr(e.L, in, state)
		r := EvalExpr(e.R, in, state)
		switch e.Op {
		case OpAdd:
			return l + r
		case OpSub:
			return l - r
		case OpMul:
			return l * r
		case OpDiv:
			if r == 0 {
				return 0
			}
			return l / r
		case OpEq:
			return bool01(l == r)
		case OpNe:
			return bool01(l != r)
		case OpLt:
			return bool01(l < r)
		case OpLe:
			return bool01(l <= r)
		case OpGt:
			return bool01(l > r)
		case OpGe:
			return bool01(l >= r)
		case OpAnd:
			return bool01(l != 0 && r != 0)
		case OpOr:
			return bool01(l != 0 || r != 0)
		}
		return 0
	case Neg:
		return -EvalExpr(e.X, in, state)
	case Not:
		return bool01(EvalExpr(e.X, in, state) == 0)
	case Call:
		switch e.Fn {
		case FnMin:
			return math.Min(EvalExpr(e.Args[0], in, state), EvalExpr(e.Args[1], in, state))
		case FnMax:
			return math.Max(EvalExpr(e.Args[0], in, state), EvalExpr(e.Args[1], in, state))
		case FnAbs:
			return math.Abs(EvalExpr(e.Args[0], in, state))
		}
		return 0
	case CondExpr:
		if EvalExpr(e.P, in, state) != 0 {
			return EvalExpr(e.T, in, state)
		}
		return EvalExpr(e.E, in, state)
	default:
		return 0
	}
}

// runStmts executes a statement list, mutating state in place. Statements
// are sequential: later statements observe earlier assignments, matching
// the paper's fold semantics (e.g. outofseq updates lastseq after testing
// it).
func runStmts(stmts []Stmt, in *Input, state []float64) {
	for _, s := range stmts {
		switch s := s.(type) {
		case Assign:
			state[s.Dst] = EvalExpr(s.RHS, in, state)
		case If:
			if EvalExpr(s.Cond, in, state) != 0 {
				runStmts(s.Then, in, state)
			} else {
				runStmts(s.Else, in, state)
			}
		}
	}
}

// Update runs the program body once for the given input, mutating state.
func (p *Program) Update(state []float64, in *Input) {
	runStmts(p.Body, in, state)
}
