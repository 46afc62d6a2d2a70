package lang

import (
	"fmt"
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
	return trimFloat(e.Value)
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

// String renders a chain of binary nodes through one builder: nesting
// Sprintf would copy each operand's text once per ancestor, which is
// quadratic on the left-deep chain a long sum parses to.
func (e *BinExpr) String() string {
	var sb strings.Builder
	writeBin(&sb, e)
	return sb.String()
}

func writeBin(sb *strings.Builder, e Expr) {
	b, ok := e.(*BinExpr)
	if !ok {
		sb.WriteString(e.String())
		return
	}
	sb.WriteByte('(')
	writeBin(sb, b.L)
	sb.WriteString(" " + opText(b.Op) + " ")
	writeBin(sb, b.R)
	sb.WriteByte(')')
}

func (e *UnaryExpr) String() string {
	if e.Op == KwNot {
		return fmt.Sprintf("(not %s)", e.X)
	}
	return fmt.Sprintf("(-%s)", e.X)
}

func (e *CallExpr) String() string {
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", e.Name, strings.Join(args, ", "))
}

func (e *StarExpr) String() string { return "*" }

func (s *AssignStmt) String() string { return fmt.Sprintf("%s = %s", s.Name, s.Expr) }

func (s *IfStmt) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "if %s then ", s.Cond)
	b.WriteString(stmtsString(s.Then))
	if len(s.Else) > 0 {
		b.WriteString(" else ")
		b.WriteString(stmtsString(s.Else))
	}
	return b.String()
}

func stmtsString(stmts []Stmt) string {
	parts := make([]string, len(stmts))
	for i, s := range stmts {
		parts[i] = s.String()
	}
	return strings.Join(parts, "; ")
}

func (q *SelectQuery) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	b.WriteString(colsString(q.Cols))
	if q.From != "" && q.From != "T" {
		fmt.Fprintf(&b, " FROM %s", q.From)
	}
	if len(q.GroupBy) > 0 {
		b.WriteString(" GROUPBY ")
		parts := make([]string, len(q.GroupBy))
		for i, g := range q.GroupBy {
			parts[i] = g.String()
		}
		b.WriteString(strings.Join(parts, ", "))
	}
	if q.Where != nil {
		fmt.Fprintf(&b, " WHERE %s", q.Where)
	}
	return b.String()
}

func (q *JoinQuery) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	b.WriteString(colsString(q.Cols))
	fmt.Fprintf(&b, " FROM %s JOIN %s ON ", q.Left, q.Right)
	parts := make([]string, len(q.On))
	for i, g := range q.On {
		parts[i] = g.String()
	}
	b.WriteString(strings.Join(parts, ", "))
	if q.Where != nil {
		fmt.Fprintf(&b, " WHERE %s", q.Where)
	}
	return b.String()
}

func colsString(cols []SelectCol) string {
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = c.Expr.String()
		if c.Alias != "" {
			parts[i] += " AS " + c.Alias
		}
	}
	return strings.Join(parts, ", ")
}

// String renders the whole program in canonical form.
func (p *Program) String() string {
	var b strings.Builder
	for _, c := range p.Consts {
		fmt.Fprintf(&b, "const %s = %s\n", c.Name, c.Expr)
	}
	for _, f := range p.Folds {
		fmt.Fprintf(&b, "def %s(%s, (%s)):\n", f.Name,
			stateParamsString(f.StateParams), strings.Join(f.RowParams, ", "))
		writeBlock(&b, f.Body, 1)
	}
	for _, q := range p.Queries {
		if q.Name != "" {
			fmt.Fprintf(&b, "%s = ", q.Name)
		}
		fmt.Fprintf(&b, "%s\n", q.Query)
	}
	return b.String()
}

func stateParamsString(ps []string) string {
	if len(ps) == 1 {
		return ps[0]
	}
	return "(" + strings.Join(ps, ", ") + ")"
}

func writeBlock(b *strings.Builder, stmts []Stmt, depth int) {
	ind := strings.Repeat("    ", depth)
	for _, s := range stmts {
		switch s := s.(type) {
		case *IfStmt:
			fmt.Fprintf(b, "%sif %s:\n", ind, s.Cond)
			writeBlock(b, s.Then, depth+1)
			if len(s.Else) > 0 {
				fmt.Fprintf(b, "%selse:\n", ind)
				writeBlock(b, s.Else, depth+1)
			}
		default:
			fmt.Fprintf(b, "%s%s\n", ind, s)
		}
	}
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%g", v)
	return s
}
