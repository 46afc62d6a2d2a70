package lang

import (
	"strings"

	"perfq/internal/fold"
	"perfq/internal/trace"
)

// fiveTupleNames is the expansion of the 5tuple shorthand.
var fiveTupleNames = []string{"srcip", "dstip", "srcport", "dstport", "proto"}

// checkQuery validates one query declaration and computes its schema.
func (c *Checked) checkQuery(qd *QueryDecl, name string, consumed map[string]bool) (*CheckedQuery, error) {
	switch q := qd.Query.(type) {
	case *SelectQuery:
		return c.checkSelect(q, name, consumed)
	case *JoinQuery:
		return c.checkJoin(q, name, consumed)
	default:
		return nil, errf(qd.Pos, "unknown query type %T", qd.Query)
	}
}

// resolveInput returns the upstream query for a table name, or nil for T.
func (c *Checked) resolveInput(table string, pos Pos, consumed map[string]bool) (*CheckedQuery, error) {
	if table == "T" || table == "" {
		return nil, nil
	}
	in, ok := c.ByName[table]
	if !ok {
		return nil, errf(pos, "query reads %q, which is not T or a previously defined query", table)
	}
	consumed[table] = true
	return in, nil
}

// columnIndex resolves name in a derived schema; -1 if absent.
func columnIndex(schema []Column, name string) int {
	for i := range schema {
		if schema[i].Matches(name) {
			return i
		}
	}
	return -1
}

// column resolves name in q's schema, or says which columns there are.
func (q *CheckedQuery) column(name string, pos Pos) (int, error) {
	if i := columnIndex(q.Schema, name); i >= 0 {
		return i, nil
	}
	return -1, errf(pos, "%q is not a column of %s (columns: %s)", name, q.Name, schemaNames(q.Schema))
}

func schemaNames(schema []Column) string {
	names := make([]string, len(schema))
	for i := range schema {
		names[i] = schema[i].Name
	}
	return strings.Join(names, ", ")
}

// canonicalCall renders an aggregate call in canonical column-name form
// ("sum((tout - tin))"), the spelling under which aggregate results are
// addressable downstream.
func canonicalCall(e *CallExpr) string {
	var sb strings.Builder
	sb.WriteString(strings.ToLower(e.Name))
	writeArgs(&sb, e.Args)
	return sb.String()
}

// expandGroupItems expands GROUPBY items (including 5tuple) into field IDs
// (over T) or column indices (over a derived input), plus display names.
func (c *Checked) expandGroupItems(input *CheckedQuery, items []Expr) (fields []trace.FieldID, cols []int, names []string, err error) {
	add := func(name string, pos Pos) error {
		if input == nil {
			f, ok := trace.FieldByName(name)
			if !ok {
				return errf(pos, "GROUPBY field %q is not in the packet-performance schema", name)
			}
			fields = append(fields, f)
			names = append(names, f.String())
			return nil
		}
		idx := columnIndex(input.Schema, name)
		if idx < 0 {
			return errf(pos, "GROUPBY column %q is not a column of %s (columns: %s)", name, input.Name, schemaNames(input.Schema))
		}
		cols = append(cols, idx)
		names = append(names, input.Schema[idx].Name)
		return nil
	}
	for _, item := range items {
		switch item := item.(type) {
		case *Ident:
			if item.Name == "5tuple" {
				for _, n := range fiveTupleNames {
					if err := add(n, item.Pos); err != nil {
						return nil, nil, nil, err
					}
				}
				continue
			}
			if err := add(item.Name, item.Pos); err != nil {
				return nil, nil, nil, err
			}
		case *Dotted:
			if err := add(item.String(), item.Pos); err != nil {
				return nil, nil, nil, err
			}
		default:
			return nil, nil, nil, errf(item.exprPos(), "GROUPBY items must be field or column names")
		}
	}
	if len(names) == 0 {
		return nil, nil, nil, errf(Pos{}, "empty GROUPBY")
	}
	return fields, cols, names, nil
}

// checkSelect validates plain and GROUPBY selects.
func (c *Checked) checkSelect(q *SelectQuery, name string, consumed map[string]bool) (*CheckedQuery, error) {
	input, err := c.resolveInput(q.From, q.Pos, consumed)
	if err != nil {
		return nil, err
	}
	cq := &CheckedQuery{Name: name, Input: input}
	sc := rowScope{c, input}
	if q.Where != nil {
		if cq.Where, err = lowerTyped(sc, q.Where, true, "WHERE needs a boolean predicate"); err != nil {
			return nil, err
		}
	}
	if len(q.GroupBy) == 0 {
		return c.checkPlainSelect(cq, q, sc)
	}
	return c.checkGroupSelect(cq, q, sc)
}

// checkPlainSelect handles per-record selection/projection.
func (c *Checked) checkPlainSelect(cq *CheckedQuery, q *SelectQuery, sc rowScope) (*CheckedQuery, error) {
	// add appends one output column; a name stands for itself, resolved
	// as the identifier would be.
	add := func(col SelectCol, out Column) error {
		x, err := lowerTyped(sc, col.Expr, false, "select columns must be numeric expressions")
		cq.Schema = append(cq.Schema, out)
		cq.Cols = append(cq.Cols, x)
		return err
	}
	for _, col := range q.Cols {
		if _, ok := col.Expr.(*StarExpr); ok {
			if len(q.Cols) != 1 {
				return nil, errf(col.Expr.exprPos(), "* cannot be combined with other columns")
			}
			if cq.Input == nil {
				// All schema fields.
				for f := trace.FieldID(1); int(f) < trace.NumFields; f++ {
					if err := add(SelectCol{Expr: &Ident{Name: f.String()}}, Column{Name: f.String(), Field: f}); err != nil {
						return nil, err
					}
				}
			} else {
				for _, in := range cq.Input.Schema {
					out := in
					out.IsKey = false
					if err := add(SelectCol{Expr: &Ident{Name: in.Name}}, out); err != nil {
						return nil, err
					}
				}
			}
			return cq, nil
		}
		// 5tuple shorthand in a select list.
		if id, ok := col.Expr.(*Ident); ok && id.Name == "5tuple" {
			for _, n := range fiveTupleNames {
				sub := SelectCol{Expr: &Ident{Name: n, Pos: id.Pos}}
				if err := add(sub, c.outputColumn(cq.Input, sub)); err != nil {
					return nil, err
				}
			}
			continue
		}
		if err := add(col, c.outputColumn(cq.Input, col)); err != nil {
			return nil, err
		}
	}
	return cq, nil
}

// outputColumn names a plain select's output column.
func (c *Checked) outputColumn(input *CheckedQuery, col SelectCol) Column {
	name := col.Alias
	if name == "" {
		switch e := col.Expr.(type) {
		case *Ident:
			name = e.Name
		case *Dotted:
			name = e.String()
		case *CallExpr:
			name = canonicalCall(e)
		default:
			name = e.String()
		}
	}
	out := Column{Name: name}
	if col.Alias != "" {
		out.Aliases = append(out.Aliases, col.Expr.String())
	}
	if input == nil {
		if f, ok := trace.FieldByName(name); ok {
			out.Field = f
		}
	} else if idx := columnIndex(input.Schema, name); idx >= 0 {
		// Propagate aliases of passed-through columns.
		out.Aliases = append(out.Aliases, input.Schema[idx].Aliases...)
	}
	return out
}

// checkGroupSelect handles GROUPBY aggregation queries.
func (c *Checked) checkGroupSelect(cq *CheckedQuery, q *SelectQuery, sc rowScope) (*CheckedQuery, error) {
	cq.IsGroup = true
	fields, cols, keyNames, err := c.expandGroupItems(cq.Input, q.GroupBy)
	if err != nil {
		return nil, err
	}
	cq.GroupFields = fields
	cq.GroupCols = cols

	// Key columns come first in the output schema.
	for i, kn := range keyNames {
		col := Column{Name: kn, IsKey: true}
		if cq.Input == nil {
			col.Field = fields[i]
		}
		cq.Schema = append(cq.Schema, col)
	}

	isKeyName := func(n string) bool {
		for _, kn := range keyNames {
			if strings.EqualFold(kn, n) {
				return true
			}
		}
		return false
	}

	for _, col := range q.Cols {
		switch e := col.Expr.(type) {
		case *StarExpr:
			return nil, errf(e.Pos, "* is not allowed in a GROUPBY select list")
		case *Ident:
			// Key field, 5tuple shorthand, user fold, or bare COUNT.
			if e.Name == "5tuple" {
				for _, n := range fiveTupleNames {
					if !isKeyName(n) {
						return nil, errf(e.Pos, "5tuple selected but %q is not in the GROUPBY key", n)
					}
				}
				continue
			}
			if isKeyName(e.Name) {
				continue // already in schema
			}
			fd, ok := c.Folds[e.Name]
			if !ok {
				if strings.EqualFold(e.Name, AggCount) {
					cq.Folds = append(cq.Folds, FoldUse{Name: AggCount})
					cq.Schema = append(cq.Schema, aggColumn(AggCount, nil, col.Alias))
					continue
				}
				return nil, errf(e.Pos, "%q is not a GROUPBY key, a fold, or COUNT", e.Name)
			}
			body, err := c.bindFold(sc, fd, e.Pos)
			if err != nil {
				return nil, err
			}
			cq.Folds = append(cq.Folds, FoldUse{Name: fd.Name, Decl: fd, Body: body})
			cq.Schema = append(cq.Schema, userFoldColumns(fd, col.Alias)...)
		case *CallExpr:
			if !IsAggregate(e.Name) {
				return nil, errf(e.Pos, "%q is not an aggregate (COUNT, SUM, MAX, MIN, AVG, EWMA)", e.Name)
			}
			fu, err := c.checkAgg(sc, e)
			if err != nil {
				return nil, err
			}
			cq.Folds = append(cq.Folds, fu)
			cq.Schema = append(cq.Schema, aggColumn(fu.Name, e, col.Alias))
		default:
			return nil, errf(col.Expr.exprPos(), "GROUPBY select columns must be key fields or aggregations")
		}
	}
	// No aggregation at all is DISTINCT over the key (the paper's
	// "SELECT 5tuple FROM R1 GROUPBY 5tuple").
	return cq, nil
}

// checkAgg validates a builtin aggregate's arguments and lowers them.
func (c *Checked) checkAgg(sc rowScope, e *CallExpr) (FoldUse, error) {
	fu := FoldUse{Name: strings.ToLower(e.Name)}
	switch fu.Name {
	case AggCount:
		if len(e.Args) != 0 {
			return fu, errf(e.Pos, "COUNT takes no arguments")
		}
		return fu, nil
	case AggSum, AggMax, AggMin, AggAvg:
		if len(e.Args) != 1 {
			return fu, errf(e.Pos, "%s takes one argument", strings.ToUpper(fu.Name))
		}
	case AggEwma:
		if len(e.Args) != 2 {
			return fu, errf(e.Pos, "EWMA takes (expr, alpha)")
		}
		alpha, err := c.evalConst(e.Args[1])
		if err != nil {
			return fu, errf(e.Args[1].exprPos(), "EWMA alpha must be a constant")
		}
		if alpha <= 0 || alpha >= 1 {
			return fu, errf(e.Args[1].exprPos(), "EWMA alpha must be in (0, 1), got %g", alpha)
		}
		fu.Alpha = alpha
	}
	var err error
	fu.Arg, err = lowerTyped(sc, e.Args[0], false, strings.ToUpper(fu.Name)+" needs a numeric argument")
	return fu, err
}

// aggColumn builds the output column for a builtin aggregate.
func aggColumn(agg string, e *CallExpr, alias string) Column {
	name := agg
	var aliases []string
	if e != nil && len(e.Args) > 0 {
		name = canonicalCall(e)
		aliases = append(aliases, agg)
	} else if agg == AggCount {
		name = AggCount
		aliases = append(aliases, "count()")
	}
	if alias != "" {
		aliases = append(aliases, name)
		name = alias
	}
	return Column{Name: name, Aliases: aliases}
}

// userFoldColumns builds the output columns of a user fold: one per state
// variable, named by the variable, aliased by fold.var (and by the fold
// name itself for single-variable folds).
func userFoldColumns(fd *FoldDecl, alias string) []Column {
	cols := make([]Column, len(fd.StateParams))
	for i, sv := range fd.StateParams {
		cols[i] = Column{
			Name:    sv,
			Aliases: []string{fd.Name + "." + sv},
		}
		if len(fd.StateParams) == 1 {
			cols[i].Aliases = append(cols[i].Aliases, fd.Name)
			if alias != "" {
				cols[i].Aliases = append(cols[i].Aliases, cols[i].Name)
				cols[i].Name = alias
			}
		}
	}
	return cols
}

// bindFold resolves a user fold's row parameters over the query's input
// and lowers its body with them bound.
func (c *Checked) bindFold(sc rowScope, fd *FoldDecl, pos Pos) ([]fold.Stmt, error) {
	binds := make([]fold.Expr, len(fd.RowParams))
	for i, p := range fd.RowParams {
		var err error
		if binds[i], err = sc.ident(&Ident{Name: p, Pos: pos}); err != nil {
			return nil, errf(pos, "fold %s parameter %q: %v", fd.Name, p, err)
		}
	}
	return foldScope{c, fd, c.params[fd.Name], binds}.stmts(fd.Body)
}

// checkJoin validates the restricted equi-join.
func (c *Checked) checkJoin(q *JoinQuery, name string, consumed map[string]bool) (*CheckedQuery, error) {
	left, err := c.resolveInput(q.Left, q.Pos, consumed)
	if err != nil {
		return nil, err
	}
	right, err := c.resolveInput(q.Right, q.Pos, consumed)
	if err != nil {
		return nil, err
	}
	if left == nil || right == nil {
		return nil, errf(q.Pos, "JOIN requires two named query results (T cannot be joined: per-packet joins are O(#pkts²))")
	}
	if !left.IsGroup || !right.IsGroup {
		return nil, errf(q.Pos, "JOIN sides must be GROUPBY results so the ON key uniquely identifies records")
	}

	// Expand the ON list and require it to equal both sides' keys.
	var onNames []string
	for _, item := range q.On {
		switch item := item.(type) {
		case *Ident:
			if item.Name == "5tuple" {
				onNames = append(onNames, fiveTupleNames...)
				continue
			}
			onNames = append(onNames, item.Name)
		default:
			return nil, errf(item.exprPos(), "ON items must be field names")
		}
	}
	checkKeys := func(side *CheckedQuery, label string) error {
		var keys []string
		for i := range side.Schema {
			if side.Schema[i].IsKey {
				keys = append(keys, side.Schema[i].Name)
			}
		}
		if len(keys) != len(onNames) {
			return errf(q.Pos, "%s side %s is keyed by (%s) but ON lists (%s); the compiler can only join on the full GROUPBY key",
				label, side.Name, strings.Join(keys, ", "), strings.Join(onNames, ", "))
		}
		for i := range keys {
			if !strings.EqualFold(keys[i], onNames[i]) {
				return errf(q.Pos, "%s side %s key %q does not match ON key %q", label, side.Name, keys[i], onNames[i])
			}
		}
		return nil
	}
	if err := checkKeys(left, "left"); err != nil {
		return nil, err
	}
	if err := checkKeys(right, "right"); err != nil {
		return nil, err
	}

	cq := &CheckedQuery{Name: name, Left: left, Right: right, OnCols: len(onNames)}
	sc := joinScope{c, left, right}

	// Output schema: the shared key columns, then the select columns.
	cq.Schema = append(cq.Schema, left.Schema[:len(onNames)]...)
	for _, col := range q.Cols {
		x, err := lowerTyped(sc, col.Expr, false, "join select columns must be numeric")
		if err != nil {
			return nil, err
		}
		name := col.Alias
		if name == "" {
			name = col.Expr.String()
		}
		cq.Schema = append(cq.Schema, Column{Name: name, Aliases: []string{col.Expr.String()}})
		cq.Cols = append(cq.Cols, x)
	}

	if q.Where != nil {
		if cq.Where, err = lowerTyped(sc, q.Where, true, "WHERE needs a boolean predicate"); err != nil {
			return nil, err
		}
	}
	return cq, nil
}
