package lang

import (
	"fmt"
	"strconv"
	"strings"
)

// Program is a parsed query program.
type Program struct {
	Consts  []*ConstDecl
	Folds   []*FoldDecl
	Queries []*QueryDecl
}

// ConstDecl binds a name to a compile-time constant expression.
type ConstDecl struct {
	Name string
	Expr Expr
	Pos  Pos
}

// FoldDecl is a user-defined fold function:
//
//	def name(stateParams, (rowParams)): body
type FoldDecl struct {
	Name        string
	StateParams []string
	RowParams   []string
	Body        []Stmt
	Pos         Pos
}

// QueryDecl is one (possibly named) query: "R1 = SELECT …" or a bare
// query.
type QueryDecl struct {
	Name  string // "" for anonymous (the program's final result)
	Query Query
	Pos   Pos
}

// Query is either a SelectQuery or a JoinQuery.
type Query interface {
	fmt.Stringer
	queryPos() Pos
}

// SelectQuery covers both plain selections and GROUPBY aggregations
// (GroupBy == nil means a per-record selection).
type SelectQuery struct {
	Cols    []SelectCol
	From    string // source table: "T" (default) or a named query
	Where   Expr   // boolean predicate or nil
	GroupBy []Expr // grouping fields (identifiers / dotted refs) or nil
	Pos     Pos
}

func (q *SelectQuery) queryPos() Pos { return q.Pos }

// JoinQuery is the restricted equi-join: FROM A JOIN B ON key.
type JoinQuery struct {
	Cols  []SelectCol
	Left  string
	Right string
	On    []Expr // key fields
	Where Expr
	Pos   Pos
}

func (q *JoinQuery) queryPos() Pos { return q.Pos }

// SelectCol is one output column, optionally aliased (expr AS name).
type SelectCol struct {
	Expr  Expr
	Alias string
}

// Stmt is a fold-body statement.
type Stmt interface {
	fmt.Stringer
	stmtPos() Pos
}

// AssignStmt is "name = expr".
type AssignStmt struct {
	Name string
	Expr Expr
	Pos  Pos
}

func (s *AssignStmt) stmtPos() Pos { return s.Pos }

// IfStmt is either pythonic ("if c: … else: …") or functional
// ("if c then s else s"); both parse to this node.
type IfStmt struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
	Pos  Pos
}

func (s *IfStmt) stmtPos() Pos { return s.Pos }

// Expr is an expression node.
type Expr interface {
	fmt.Stringer
	exprPos() Pos
}

// Ident is a bare name: a schema field, fold name, parameter, constant or
// the 5tuple shorthand.
type Ident struct {
	Name string
	Pos  Pos
}

// Dotted is "base.col": a named query's column or a multi-variable fold's
// state component.
type Dotted struct {
	Base string
	Col  string
	Pos  Pos
}

// NumberLit is a numeric literal; duration literals carry their
// nanosecond value and original text.
type NumberLit struct {
	Value float64
	Text  string
	Pos   Pos
}

// BoolLit is true/false.
type BoolLit struct {
	Value bool
	Pos   Pos
}

// InfinityLit is the "infinity" literal (a dropped packet's tout).
type InfinityLit struct {
	Pos Pos
}

// BinExpr is a binary operation; Op is one of + - * / == != < <= > >= AND OR.
type BinExpr struct {
	Op   Kind
	L, R Expr
	Pos  Pos
}

// UnaryExpr is -x or NOT x.
type UnaryExpr struct {
	Op  Kind // MINUS or KwNot
	X   Expr
	Pos Pos
}

// CallExpr is name(args): an aggregate (COUNT, SUM, …) in query context or
// a builtin (min, max, abs) in fold bodies.
type CallExpr struct {
	Name string
	Args []Expr
	Pos  Pos
}

// StarExpr is "*" in a SELECT list.
type StarExpr struct {
	Pos Pos
}

func (e *Ident) exprPos() Pos       { return e.Pos }
func (e *Dotted) exprPos() Pos      { return e.Pos }
func (e *NumberLit) exprPos() Pos   { return e.Pos }
func (e *BoolLit) exprPos() Pos     { return e.Pos }
func (e *InfinityLit) exprPos() Pos { return e.Pos }
func (e *BinExpr) exprPos() Pos     { return e.Pos }
func (e *UnaryExpr) exprPos() Pos   { return e.Pos }
func (e *CallExpr) exprPos() Pos    { return e.Pos }
func (e *StarExpr) exprPos() Pos    { return e.Pos }

// ---- printers (canonical source form; parse∘print is a fixpoint) ----

func (e *Ident) String() string  { return e.Name }
func (e *Dotted) String() string { return e.Base + "." + e.Col }
func (e *NumberLit) String() string {
	if e.Text != "" {
		return e.Text
	}
	// Plain decimal: %g's exponent form (1e+07) lexes as the digit-led
	// identifier 1e, a plus and 07.
	return strconv.FormatFloat(e.Value, 'f', -1, 64)
}
func (e *BoolLit) String() string {
	if e.Value {
		return "true"
	}
	return "false"
}
func (e *InfinityLit) String() string { return "infinity" }

func opText(k Kind) string {
	switch k {
	case PLUS:
		return "+"
	case MINUS:
		return "-"
	case STAR:
		return "*"
	case SLASH:
		return "/"
	case EQ:
		return "=="
	case NE:
		return "!="
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	case KwAnd:
		return "and"
	case KwOr:
		return "or"
	default:
		return "?"
	}
}

func (e *BinExpr) String() string   { return nodeString(e) }
func (e *UnaryExpr) String() string { return nodeString(e) }
func (e *CallExpr) String() string  { return nodeString(e) }
func (e *StarExpr) String() string  { return "*" }

func (s *AssignStmt) String() string  { return nodeString(s) }
func (s *IfStmt) String() string      { return nodeString(s) }
func (q *SelectQuery) String() string { return nodeString(q) }
func (q *JoinQuery) String() string   { return nodeString(q) }

// nodeString renders an expression, statement or query through one
// builder: String methods that nest Sprintf copy each operand's text once
// per ancestor, which is quadratic on any deep chain — a long sum's
// left-deep BinExprs, stacked negations or calls, nested ifs.
func nodeString(n fmt.Stringer) string {
	var sb strings.Builder
	writeNode(&sb, n)
	return sb.String()
}

// writeNode appends the text of n — any Expr, Stmt or Query — to sb;
// every composite node kind prints here, leaves through their String.
func writeNode(sb *strings.Builder, n fmt.Stringer) {
	switch n := n.(type) {
	case *BinExpr:
		sb.WriteByte('(')
		writeNode(sb, n.L)
		sb.WriteByte(' ')
		sb.WriteString(opText(n.Op))
		sb.WriteByte(' ')
		writeNode(sb, n.R)
		sb.WriteByte(')')
	case *UnaryExpr:
		if n.Op == KwNot {
			sb.WriteString("(not ")
		} else {
			sb.WriteString("(-")
		}
		writeNode(sb, n.X)
		sb.WriteByte(')')
	case *CallExpr:
		sb.WriteString(n.Name)
		writeArgs(sb, n.Args)
	case *AssignStmt:
		sb.WriteString(n.Name)
		sb.WriteString(" = ")
		writeNode(sb, n.Expr)
	case *IfStmt:
		sb.WriteString("if ")
		writeNode(sb, n.Cond)
		sb.WriteString(" then ")
		writeJoined(sb, n.Then, "; ")
		if len(n.Else) > 0 {
			sb.WriteString(" else ")
			writeJoined(sb, n.Else, "; ")
		}
	case *SelectQuery:
		sb.WriteString("SELECT ")
		writeCols(sb, n.Cols)
		if n.From != "" && n.From != "T" {
			sb.WriteString(" FROM ")
			sb.WriteString(n.From)
		}
		if len(n.GroupBy) > 0 {
			sb.WriteString(" GROUPBY ")
			writeJoined(sb, n.GroupBy, ", ")
		}
		writeWhere(sb, n.Where)
	case *JoinQuery:
		sb.WriteString("SELECT ")
		writeCols(sb, n.Cols)
		sb.WriteString(" FROM " + n.Left + " JOIN " + n.Right + " ON ")
		writeJoined(sb, n.On, ", ")
		writeWhere(sb, n.Where)
	default:
		sb.WriteString(n.String())
	}
}

// writeArgs appends a call's parenthesized argument list.
func writeArgs(sb *strings.Builder, args []Expr) {
	sb.WriteByte('(')
	writeJoined(sb, args, ", ")
	sb.WriteByte(')')
}

// writeJoined appends every node of ns, sep between them.
func writeJoined[N fmt.Stringer](sb *strings.Builder, ns []N, sep string) {
	for i, n := range ns {
		if i > 0 {
			sb.WriteString(sep)
		}
		writeNode(sb, n)
	}
}

func writeCols(sb *strings.Builder, cols []SelectCol) {
	for i, c := range cols {
		if i > 0 {
			sb.WriteString(", ")
		}
		writeNode(sb, c.Expr)
		if c.Alias != "" {
			sb.WriteString(" AS " + c.Alias)
		}
	}
}

func writeWhere(sb *strings.Builder, where Expr) {
	if where != nil {
		sb.WriteString(" WHERE ")
		writeNode(sb, where)
	}
}

// String renders the whole program in canonical form.
func (p *Program) String() string {
	var sb strings.Builder
	for _, c := range p.Consts {
		sb.WriteString("const " + c.Name + " = ")
		writeNode(&sb, c.Expr)
		sb.WriteByte('\n')
	}
	for _, f := range p.Folds {
		fmt.Fprintf(&sb, "def %s(%s, (%s)):\n", f.Name,
			stateParamsString(f.StateParams), strings.Join(f.RowParams, ", "))
		writeBlock(&sb, f.Body, 1)
	}
	for _, q := range p.Queries {
		if q.Name != "" {
			sb.WriteString(q.Name + " = ")
		}
		writeNode(&sb, q.Query)
		sb.WriteByte('\n')
	}
	return sb.String()
}

func stateParamsString(ps []string) string {
	if len(ps) == 1 {
		return ps[0]
	}
	return "(" + strings.Join(ps, ", ") + ")"
}

func writeBlock(sb *strings.Builder, stmts []Stmt, depth int) {
	ind := strings.Repeat("    ", depth)
	for _, s := range stmts {
		sb.WriteString(ind)
		if s, ok := s.(*IfStmt); ok {
			sb.WriteString("if ")
			writeNode(sb, s.Cond)
			sb.WriteString(":\n")
			writeBlock(sb, s.Then, depth+1)
			if len(s.Else) > 0 {
				sb.WriteString(ind + "else:\n")
				writeBlock(sb, s.Else, depth+1)
			}
			continue
		}
		writeNode(sb, s)
		sb.WriteByte('\n')
	}
}
