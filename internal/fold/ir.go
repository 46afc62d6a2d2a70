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

// Op is a binary operator: arithmetic, then the comparisons and the
// logic connectives, which yield 1 for true and 0 for false and read any
// nonzero operand as true.
type Op uint8

// Binary operators. Those up to OpGe have a constant-operand form in the
// bytecode.
const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
)

var opText = [...]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/",
	OpEq: "==", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "and", OpOr: "or",
}

// String returns the surface syntax of the operator.
func (o Op) String() string {
	if int(o) < len(opText) {
		return opText[o]
	}
	return "?"
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
// must populate every field the code it runs reads (Code.FieldMask).
// Only tests and the benchmark's replays set it; the datapath does not.
type Input struct {
	Rec    *trace.Record
	Cols   []float64
	Fields []float64
}

// Expr is an expression over the current input and the state vector. A
// boolean is an Expr whose value is 0 or 1; a condition holds when its
// value is nonzero.
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

// Bin applies a binary operator.
type Bin struct {
	Op   Op
	L, R Expr
}

// Neg is arithmetic negation.
type Neg struct{ X Expr }

// Not is logical negation: 1 when X is 0, else 0.
type Not struct{ X Expr }

// Call applies a built-in pure function.
type Call struct {
	Fn   Fn
	Args []Expr
}

// CondExpr is a ternary: T when P is nonzero, else E. The linear-in-state
// analyzer produces it when merging branch coefficients.
type CondExpr struct {
	P, T, E Expr
}

func (Const) isExpr()    {}
func (FieldRef) isExpr() {}
func (ColRef) isExpr()   {}
func (StateRef) isExpr() {}
func (Bin) isExpr()      {}
func (Neg) isExpr()      {}
func (Not) isExpr()      {}
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
func (n Not) String() string      { return nodeString(n) }
func (b Bin) String() string      { return nodeString(b) }
func (c Call) String() string     { return nodeString(c) }
func (c CondExpr) String() string { return nodeString(c) }

// nodeString renders an expression or statement through one
// builder: String methods that nest Sprintf copy each operand's text once
// per ancestor, which is quadratic on any deep chain — a long sum's
// left-deep Bins, stacked negations or calls, nested ifs.
func nodeString(n fmt.Stringer) string {
	var sb strings.Builder
	writeExpr(&sb, n)
	return sb.String()
}

// writeExpr appends the text of n — any Expr or Stmt — to sb;
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
		if n.Op >= OpEq && n.Op <= OpGe {
			put(n.L, " ", n.Op, " ", n.R)
		} else {
			put("(", n.L, " ", n.Op, " ", n.R, ")")
		}
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

// If executes Then when Cond is nonzero, else Else, which may be empty.
type If struct {
	Cond       Expr
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
			if err := validateExpr(p, s.Cond); err != nil {
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
	case Not:
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
		if err := validateExpr(p, e.P); err != nil {
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
