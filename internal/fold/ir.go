// Package fold defines the aggregation-function intermediate representation
// and its interpreter: the runtime half of the paper's GROUPBY construct.
//
// A fold function takes an accumulator state vector and the current packet
// record and produces an updated state vector. The query compiler lowers
// both user-defined folds ("def ewma(lat_est, (tin, tout)): …") and the
// SQL-style built-ins (COUNT, SUM, …) to the same small IR, which the
// linear-in-state analyzer (package linear) inspects symbolically and the
// switch datapath executes per packet.
package fold

import (
	"fmt"
	"math"
	"strings"

	"perfq/internal/trace"
)

// Infinity is the runtime value of the query-language literal "infinity",
// chosen to equal float64(trace.Infinity) so that "tout == infinity"
// matches records whose Tout is the drop sentinel.
var Infinity = float64(trace.Infinity)

// MaxState is the largest state vector a single fold may use. Real switch
// pipelines bound per-stage state similarly (a handful of words per
// match-action entry).
const MaxState = 8

// Op is a binary arithmetic operator.
type Op uint8

// Arithmetic operators.
const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv
)

// String returns the surface syntax of the operator.
func (o Op) String() string {
	switch o {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	default:
		return "?"
	}
}

// CmpOp is a comparison operator.
type CmpOp uint8

// Comparison operators.
const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

// String returns the surface syntax of the operator.
func (c CmpOp) String() string {
	switch c {
	case CmpEq:
		return "=="
	case CmpNe:
		return "!="
	case CmpLt:
		return "<"
	case CmpLe:
		return "<="
	case CmpGt:
		return ">"
	case CmpGe:
		return ">="
	default:
		return "?"
	}
}

// Fn is a built-in pure function usable in expressions.
type Fn uint8

// Built-in functions.
const (
	FnMin Fn = iota
	FnMax
	FnAbs
)

// String returns the surface name of the function.
func (f Fn) String() string {
	switch f {
	case FnMin:
		return "min"
	case FnMax:
		return "max"
	case FnAbs:
		return "abs"
	default:
		return "fn?"
	}
}

// Input is one row presented to a fold: either a raw packet-observation
// record (switch stage) or a derived row of column values (collector
// stage). Exactly one of Rec/Cols is consulted depending on which
// reference nodes the program uses.
//
// Fields, when non-nil, is a dense vector indexed by trace.FieldID with
// the record's field values pre-extracted; the bytecode VM reads it
// instead of switching on Rec.Field per reference. A caller that sets it
// must populate every field the code it runs reads (Code.FieldMask); the
// datapath extracts the plan-wide union once per record.
type Input struct {
	Rec    *trace.Record
	Cols   []float64
	Fields []float64
}

// Expr is an arithmetic expression over the current input and the state
// vector.
type Expr interface {
	fmt.Stringer
	isExpr()
}

// Const is a numeric literal.
type Const float64

// FieldRef reads a column of the raw record schema.
type FieldRef trace.FieldID

// ColRef reads column i of a derived row (collector-stage folds).
type ColRef int

// StateRef reads state variable i of the fold's own accumulator.
type StateRef int

// Bin is a binary arithmetic node.
type Bin struct {
	Op   Op
	L, R Expr
}

// Neg is arithmetic negation.
type Neg struct{ X Expr }

// Call applies a built-in pure function.
type Call struct {
	Fn   Fn
	Args []Expr
}

// CondExpr is a ternary: if P then T else E. It is produced both by the
// parser (conditional statements lower to it in simple cases) and by the
// linear-in-state analyzer when merging branch coefficients.
type CondExpr struct {
	P    Pred
	T, E Expr
}

func (Const) isExpr()    {}
func (FieldRef) isExpr() {}
func (ColRef) isExpr()   {}
func (StateRef) isExpr() {}
func (Bin) isExpr()      {}
func (Neg) isExpr()      {}
func (Call) isExpr()     {}
func (CondExpr) isExpr() {}

// String renders the literal; integers print without a fraction.
func (c Const) String() string {
	f := float64(c)
	if f == Infinity {
		return "infinity"
	}
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return fmt.Sprintf("%d", int64(f))
	}
	return fmt.Sprintf("%g", f)
}

func (f FieldRef) String() string { return trace.FieldID(f).String() }
func (c ColRef) String() string   { return fmt.Sprintf("$%d", int(c)) }
func (s StateRef) String() string { return fmt.Sprintf("s%d", int(s)) }

func (n Neg) String() string      { return nodeString(n) }
func (b Bin) String() string      { return nodeString(b) }
func (c Call) String() string     { return nodeString(c) }
func (c CondExpr) String() string { return nodeString(c) }

// nodeString renders an expression, predicate or statement through one
// builder: String methods that nest Sprintf copy each operand's text once
// per ancestor, which is quadratic on any deep chain — a long sum's
// left-deep Bins, stacked negations or calls, nested ifs.
func nodeString(n fmt.Stringer) string {
	var sb strings.Builder
	writeExpr(&sb, n)
	return sb.String()
}

// writeExpr appends the text of n — any Expr, Pred or Stmt — to sb;
// every composite node kind prints here, leaves through their String.
func writeExpr(sb *strings.Builder, n fmt.Stringer) {
	// put appends its parts in order: strings verbatim, nodes recursively.
	put := func(parts ...interface{}) {
		for _, p := range parts {
			if text, ok := p.(string); ok {
				sb.WriteString(text)
			} else {
				node, _ := p.(fmt.Stringer)
				writeExpr(sb, node)
			}
		}
	}
	block := func(open string, stmts []Stmt) {
		put(open)
		for _, s := range stmts {
			put(s, "; ")
		}
		put("}")
	}
	switch n := n.(type) {
	case Bin:
		put("(", n.L, " ", n.Op, " ", n.R, ")")
	case Neg:
		put("(-", n.X, ")")
	case Call:
		put(n.Fn, "(")
		for i, a := range n.Args {
			if i > 0 {
				put(", ")
			}
			put(a)
		}
		put(")")
	case CondExpr:
		put("(", n.P, " ? ", n.T, " : ", n.E, ")")
	case Cmp:
		put(n.L, " ", n.Op, " ", n.R)
	case And:
		put("(", n.L, " and ", n.R, ")")
	case Or:
		put("(", n.L, " or ", n.R, ")")
	case Not:
		put("(not ", n.X, ")")
	case Assign:
		put(StateRef(n.Dst), " = ", n.RHS)
	case If:
		put("if ", n.Cond)
		block(" then { ", n.Then)
		if len(n.Else) > 0 {
			block(" else { ", n.Else)
		}
	case *Program:
		block(fmt.Sprintf("def %s[%d] { ", n.Name, n.NumState), n.Body)
	default:
		fmt.Fprint(sb, n)
	}
}

// Pred is a boolean predicate over the current input and state.
type Pred interface {
	fmt.Stringer
	isPred()
}

// Cmp compares two expressions.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// And is logical conjunction.
type And struct{ L, R Pred }

// Or is logical disjunction.
type Or struct{ L, R Pred }

// Not is logical negation.
type Not struct{ X Pred }

// BoolConst is a boolean literal.
type BoolConst bool

func (Cmp) isPred()       {}
func (And) isPred()       {}
func (Or) isPred()        {}
func (Not) isPred()       {}
func (BoolConst) isPred() {}

func (c Cmp) String() string { return nodeString(c) }
func (a And) String() string { return nodeString(a) }
func (o Or) String() string  { return nodeString(o) }
func (n Not) String() string { return nodeString(n) }
func (b BoolConst) String() string {
	if b {
		return "true"
	}
	return "false"
}

// Stmt is one statement of a fold body.
type Stmt interface {
	fmt.Stringer
	isStmt()
}

// Assign stores an expression into state variable Dst.
type Assign struct {
	Dst int
	RHS Expr
}

// If executes Then or Else depending on Cond. Else may be empty.
type If struct {
	Cond       Pred
	Then, Else []Stmt
}

func (Assign) isStmt() {}
func (If) isStmt()     {}

func (a Assign) String() string { return nodeString(a) }
func (i If) String() string     { return nodeString(i) }

// Program is a complete fold function: a state vector of NumState
// variables initialized to S0 (nil means all-zero), updated by Body once
// per input row. StateNames records the operator's variable names for
// result rendering; it may be nil.
type Program struct {
	Name       string
	NumState   int
	S0         []float64
	Body       []Stmt
	StateNames []string
}

// String renders the program in a compact debug syntax.
func (p *Program) String() string { return nodeString(p) }

// InitState returns a fresh initial state vector.
func (p *Program) InitState() []float64 {
	s := make([]float64, p.NumState)
	copy(s, p.S0)
	return s
}

// Init fills an existing vector with the initial state. len(state) must be
// NumState.
func (p *Program) Init(state []float64) {
	n := copy(state, p.S0)
	for i := n; i < len(state); i++ {
		state[i] = 0
	}
}

// Validate checks internal consistency: state indices in range, state
// vector within MaxState, call arities.
func (p *Program) Validate() error {
	if p.NumState < 1 || p.NumState > MaxState {
		return fmt.Errorf("fold %s: %d state variables (max %d)", p.Name, p.NumState, MaxState)
	}
	if p.S0 != nil && len(p.S0) != p.NumState {
		return fmt.Errorf("fold %s: S0 has %d entries, want %d", p.Name, len(p.S0), p.NumState)
	}
	return validateStmts(p, p.Body)
}

func validateStmts(p *Program, stmts []Stmt) error {
	for _, s := range stmts {
		switch s := s.(type) {
		case Assign:
			if s.Dst < 0 || s.Dst >= p.NumState {
				return fmt.Errorf("fold %s: assignment to s%d out of range", p.Name, s.Dst)
			}
			if err := validateExpr(p, s.RHS); err != nil {
				return err
			}
		case If:
			if err := validatePred(p, s.Cond); err != nil {
				return err
			}
			if err := validateStmts(p, s.Then); err != nil {
				return err
			}
			if err := validateStmts(p, s.Else); err != nil {
				return err
			}
		default:
			return fmt.Errorf("fold %s: unknown statement %T", p.Name, s)
		}
	}
	return nil
}

func validateExpr(p *Program, e Expr) error {
	switch e := e.(type) {
	case Const, FieldRef, ColRef:
		return nil
	case StateRef:
		if int(e) < 0 || int(e) >= p.NumState {
			return fmt.Errorf("fold %s: state ref s%d out of range", p.Name, int(e))
		}
		return nil
	case Bin:
		if err := validateExpr(p, e.L); err != nil {
			return err
		}
		return validateExpr(p, e.R)
	case Neg:
		return validateExpr(p, e.X)
	case Call:
		want := 2
		if e.Fn == FnAbs {
			want = 1
		}
		if len(e.Args) != want {
			return fmt.Errorf("fold %s: %v takes %d args, got %d", p.Name, e.Fn, want, len(e.Args))
		}
		for _, a := range e.Args {
			if err := validateExpr(p, a); err != nil {
				return err
			}
		}
		return nil
	case CondExpr:
		if err := validatePred(p, e.P); err != nil {
			return err
		}
		if err := validateExpr(p, e.T); err != nil {
			return err
		}
		return validateExpr(p, e.E)
	case nil:
		return fmt.Errorf("fold %s: nil expression", p.Name)
	default:
		return fmt.Errorf("fold %s: unknown expression %T", p.Name, e)
	}
}

func validatePred(p *Program, pr Pred) error {
	switch pr := pr.(type) {
	case Cmp:
		if err := validateExpr(p, pr.L); err != nil {
			return err
		}
		return validateExpr(p, pr.R)
	case And:
		if err := validatePred(p, pr.L); err != nil {
			return err
		}
		return validatePred(p, pr.R)
	case Or:
		if err := validatePred(p, pr.L); err != nil {
			return err
		}
		return validatePred(p, pr.R)
	case Not:
		return validatePred(p, pr.X)
	case BoolConst:
		return nil
	case nil:
		return fmt.Errorf("fold %s: nil predicate", p.Name)
	default:
		return fmt.Errorf("fold %s: unknown predicate %T", p.Name, pr)
	}
}
