package lang

import (
	"fmt"
	"strings"

	"perfq/internal/fold"
	"perfq/internal/trace"
)

// Aggregate builtin names (matched case-insensitively in queries).
const (
	AggCount = "count"
	AggSum   = "sum"
	AggMax   = "max"
	AggMin   = "min"
	AggAvg   = "avg"
	AggEwma  = "ewma"
)

// IsAggregate reports whether name is a builtin aggregate.
func IsAggregate(name string) bool {
	switch strings.ToLower(name) {
	case AggCount, AggSum, AggMax, AggMin, AggAvg, AggEwma:
		return true
	}
	return false
}

// Column is one column of a query's output schema.
type Column struct {
	// Name is the canonical column name (a key field name like "srcip", a
	// state-variable name like "oos_count", or an aggregate's canonical
	// print like "sum((tout - tin))").
	Name string
	// Aliases are additional accepted spellings (fold name for
	// single-state folds, dotted fold.var forms, AS aliases, short
	// aggregate names).
	Aliases []string
	// IsKey marks grouping-key columns.
	IsKey bool
	// Field is the underlying raw schema field for key columns derived
	// from T (valid only when IsKey and the query reads T).
	Field trace.FieldID
}

// Matches reports whether the column answers to name.
func (c *Column) Matches(name string) bool {
	if strings.EqualFold(c.Name, name) {
		return true
	}
	for _, a := range c.Aliases {
		if strings.EqualFold(a, name) {
			return true
		}
	}
	return false
}

// FoldUse is one aggregation appearing in a group query's SELECT list,
// lowered: a builtin's argument and EWMA's alpha, or a user fold's body
// with this use's row parameters bound to what they read.
type FoldUse struct {
	// Name is the builtin aggregate's name (AggCount, …) when Decl is
	// nil, else the user fold's.
	Name string
	// Decl is the user fold declaration (nil for builtins).
	Decl *FoldDecl
	// Arg is the builtin's argument over the input row (nil for COUNT).
	Arg fold.Expr
	// Alpha is EWMA's smoothing constant.
	Alpha float64
	// Body is the user fold's body: state variable i is StateRef(i).
	Body []fold.Stmt
}

// CheckedQuery is a validated query with resolved inputs and schema, its
// expressions lowered to fold IR.
type CheckedQuery struct {
	// Name is the query's result name (R1, …); anonymous queries are
	// assigned _1, _2, ….
	Name string
	// Input is the upstream query, nil when reading the raw table T.
	// Joins use Left/Right instead.
	Input *CheckedQuery
	// Left/Right are the join inputs (nil for non-joins).
	Left, Right *CheckedQuery
	// IsGroup marks GROUPBY queries.
	IsGroup bool
	// GroupFields is the expanded grouping key: raw schema fields when
	// reading T, or upstream column indices when reading a derived table.
	GroupFields []trace.FieldID
	GroupCols   []int
	// Folds are the aggregations of a group query.
	Folds []FoldUse
	// Where is the filter (nil if absent), a 0/1 expression over the
	// input row, or over the combined row (left columns, then right) for
	// joins.
	Where fold.Expr
	// Schema is the output schema.
	Schema []Column
	// Cols are a plain select's output columns over the input row, or a
	// join's value columns over the combined row.
	Cols []fold.Expr
	// OnCols, for joins, is the key column count (the first OnCols schema
	// columns of each side).
	OnCols int
}

// Checked is a fully validated program.
type Checked struct {
	Prog    *Program
	Consts  map[string]float64
	Folds   map[string]*FoldDecl
	Queries []*CheckedQuery
	ByName  map[string]*CheckedQuery
	// Results are the DAG sinks: queries no other query consumes.
	Results []*CheckedQuery

	params map[string]map[string]int // each fold's parameters (see foldScope)
}

// Check validates a parsed program and lowers its expressions to fold IR:
// constant expressions fold, fold bodies reference only their parameters
// and constants, queries reference only defined tables/columns, GROUPBY
// and JOIN restrictions hold.
func Check(prog *Program) (*Checked, error) {
	c := &Checked{
		Prog:   prog,
		Consts: map[string]float64{},
		Folds:  map[string]*FoldDecl{},
		ByName: map[string]*CheckedQuery{},
		params: map[string]map[string]int{},
	}

	for _, cd := range prog.Consts {
		if _, dup := c.Consts[cd.Name]; dup {
			return nil, errf(cd.Pos, "constant %q redefined", cd.Name)
		}
		v, err := c.evalConst(cd.Expr)
		if err != nil {
			return nil, err
		}
		c.Consts[cd.Name] = v
	}

	for _, fd := range prog.Folds {
		if err := c.checkFold(fd); err != nil {
			return nil, err
		}
		c.Folds[fd.Name] = fd
	}

	if len(prog.Queries) == 0 {
		return nil, errf(Pos{1, 1}, "program contains no queries")
	}

	consumed := map[string]bool{}
	anon := 0
	for _, qd := range prog.Queries {
		name := qd.Name
		if name == "" {
			anon++
			name = fmt.Sprintf("_%d", anon)
		}
		if _, dup := c.ByName[name]; dup {
			return nil, errf(qd.Pos, "query %q redefined", name)
		}
		cq, err := c.checkQuery(qd, name, consumed)
		if err != nil {
			return nil, err
		}
		c.Queries = append(c.Queries, cq)
		c.ByName[name] = cq
	}
	for _, cq := range c.Queries {
		if !consumed[cq.Name] {
			c.Results = append(c.Results, cq)
		}
	}
	return c, nil
}

// evalConst folds a constant expression to a float64.
func (c *Checked) evalConst(e Expr) (float64, error) {
	switch e := e.(type) {
	case *NumberLit:
		return e.Value, nil
	case *InfinityLit:
		return float64(trace.Infinity), nil
	case *Ident:
		if v, ok := c.Consts[e.Name]; ok {
			return v, nil
		}
		return 0, errf(e.Pos, "constant expression references %q, which is not a constant", e.Name)
	case *UnaryExpr:
		if e.Op != MINUS {
			return 0, errf(e.Pos, "constant expressions cannot use NOT")
		}
		v, err := c.evalConst(e.X)
		return -v, err
	case *BinExpr:
		l, err := c.evalConst(e.L)
		if err != nil {
			return 0, err
		}
		r, err := c.evalConst(e.R)
		if err != nil {
			return 0, err
		}
		switch e.Op {
		case PLUS:
			return l + r, nil
		case MINUS:
			return l - r, nil
		case STAR:
			return l * r, nil
		case SLASH:
			if r == 0 {
				return 0, errf(e.Pos, "constant division by zero")
			}
			return l / r, nil
		default:
			return 0, errf(e.Pos, "operator %s not allowed in constant expressions", opText(e.Op))
		}
	default:
		return 0, errf(e.exprPos(), "expression is not constant")
	}
}

// checkFold validates a fold declaration's parameters and body.
func (c *Checked) checkFold(fd *FoldDecl) error {
	if _, dup := c.Folds[fd.Name]; dup {
		return errf(fd.Pos, "fold %q redefined", fd.Name)
	}
	// The header's cost is bounded before the body is looked at: a body
	// is lowered once per use, with every reference a map lookup.
	if n := len(fd.StateParams); n > fold.MaxState {
		return errf(fd.Pos, "fold %s: %d state variables (max %d)", fd.Name, n, fold.MaxState)
	}
	// A user fold may share a builtin aggregate's name (the paper's own
	// example is "def ewma"); bare identifiers resolve to the user fold,
	// call syntax with arguments to the builtin.
	params := make(map[string]int, len(fd.StateParams)+len(fd.RowParams))
	for i, p := range fd.StateParams {
		if _, dup := params[p]; dup {
			return errf(fd.Pos, "parameter %q duplicated (state)", p)
		}
		params[p] = i
	}
	for i, p := range fd.RowParams {
		if prev, dup := params[p]; dup {
			kind := "row"
			if prev >= 0 {
				kind = "state"
			}
			return errf(fd.Pos, "parameter %q duplicated (%s)", p, kind)
		}
		params[p] = ^i
	}
	if len(fd.StateParams) == 0 {
		return errf(fd.Pos, "fold %q needs at least one state variable", fd.Name)
	}
	c.params[fd.Name] = params
	// Every declared fold is checked, used or not; a use lowers the body
	// again with what its row parameters read.
	binds := make([]fold.Expr, len(fd.RowParams))
	for i := range binds {
		binds[i] = fold.ColRef(i)
	}
	_, err := foldScope{c, fd, params, binds}.stmts(fd.Body)
	return err
}
