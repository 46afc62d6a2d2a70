// Package exec evaluates compiled query plans in software. It serves two
// roles:
//
//   - Ground truth: Run streams a record source through every stage with
//     unbounded memory, yielding the results an infinite switch would
//     produce. Integration tests compare the cache+merge datapath against
//     it.
//   - Collector: the downstream (off-switch) stages of a plan — selects
//     over derived tables, second-level GROUPBYs, joins — are evaluated
//     here in production too, over tables materialized from the backing
//     store (Engine.SetTable).
package exec

import (
	"fmt"
	"io"
	"math"
	"slices"

	"perfq/internal/compiler"
	"perfq/internal/fold"
	"perfq/internal/packet"
	"perfq/internal/trace"
)

// Table is a materialized query result.
type Table struct {
	Schema []string
	Rows   [][]float64
}

// cmpFloat is a total order over float64: NaN sorts before every other
// value (and equal to itself). A comparator built on `a != b` is not
// antisymmetric when NaN appears in rows (NaN != NaN, yet neither side
// is smaller), which makes sort output depend on the input permutation —
// fatal for the sharded datapath, whose merged tables must be
// reproducible regardless of shard count.
func cmpFloat(a, b float64) int {
	an, bn := math.IsNaN(a), math.IsNaN(b)
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Sort orders rows lexicographically (NaN smallest) for deterministic
// output: any permutation of the same multiset of rows sorts to the same
// sequence. The comparator is branch-minimal: the three float compares
// decide every non-NaN case, and only the fall-through (all three false,
// so NaN is involved) delegates to cmpFloat's total order.
func (t *Table) Sort() {
	slices.SortFunc(t.Rows, func(a, b []float64) int {
		for k := range a {
			x, y := a[k], b[k]
			if x < y {
				return -1
			}
			if x > y {
				return 1
			}
			if x == y {
				continue
			}
			if c := cmpFloat(x, y); c != 0 {
				return c
			}
		}
		return 0
	})
}

// groupEntry is one group's accumulator during ground-truth evaluation.
type groupEntry struct {
	keyVals []float64
	state   []float64
}

// Engine evaluates a plan.
type Engine struct {
	plan   *compiler.Plan
	tables map[string]*Table
	// Per over-T stage streaming state.
	groups map[string]map[packet.Key128]*groupEntry
	srows  map[string][][]float64
	preset map[string]bool
}

// New creates an engine for the plan.
func New(plan *compiler.Plan) *Engine {
	return &Engine{
		plan:   plan,
		tables: map[string]*Table{},
		groups: map[string]map[packet.Key128]*groupEntry{},
		srows:  map[string][][]float64{},
		preset: map[string]bool{},
	}
}

// SetTable injects a pre-computed result for a stage (collector mode: the
// table came from the switch datapath's backing store). The stage is then
// skipped during evaluation.
func (e *Engine) SetTable(name string, t *Table) {
	e.tables[name] = t
	e.preset[name] = true
}

// ProcessRecord streams one record through every stage that reads T and is
// not preset.
func (e *Engine) ProcessRecord(rec *trace.Record) {
	in := fold.Input{Rec: rec}
	for _, st := range e.plan.Stages {
		if e.preset[st.Name] || st.Input != nil || st.Kind == compiler.KindJoin {
			continue
		}
		switch st.Kind {
		case compiler.KindSelect:
			e.processSelect(st, &in)
		case compiler.KindGroup:
			e.processGroup(st, rec, &in)
		}
	}
}

// matches evaluates an optional compiled predicate (nil: no WHERE, every
// row matches).
func matches(where *fold.Code, in *fold.Input) bool {
	return where == nil || where.EvalBool(in, nil)
}

// evalCols evaluates a compiled column list over one input row.
func evalCols(cols []*fold.Code, in *fold.Input, out []float64) []float64 {
	for _, c := range cols {
		out = append(out, c.Eval(in, nil))
	}
	return out
}

// processSelect streams one record through a select-over-T stage.
func (e *Engine) processSelect(st *compiler.Stage, in *fold.Input) {
	if !matches(st.WhereCode, in) {
		return
	}
	row := evalCols(st.ColCodes, in, make([]float64, 0, len(st.ColCodes)))
	e.srows[st.Name] = append(e.srows[st.Name], row)
}

// processGroup streams one record through a group-over-T stage.
func (e *Engine) processGroup(st *compiler.Stage, rec *trace.Record, in *fold.Input) {
	if !matches(st.WhereCode, in) {
		return
	}
	g := e.groups[st.Name]
	if g == nil {
		g = map[packet.Key128]*groupEntry{}
		e.groups[st.Name] = g
	}
	nk := st.Key.NumComponents()
	var kv [8]float64
	st.Key.Values(rec, kv[:nk])
	key := st.Key.Pack(kv[:nk])
	ent := g[key]
	if ent == nil {
		ent = &groupEntry{
			keyVals: append([]float64(nil), kv[:nk]...),
			state:   make([]float64, st.Fold.StateLen()),
		}
		st.Fold.Init(ent.state)
		g[key] = ent
	}
	st.Fold.Update(ent.state, in)
}

// RangeGroup iterates an over-T group stage's accumulators: the packed
// store key, key component values and raw state vector. Iteration order
// is unspecified (each key appears exactly once); the fabric ground
// truth consumes this as a switchsim.StateSource.
func (e *Engine) RangeGroup(name string, fn func(key packet.Key128, keyVals, state []float64)) {
	for key, ent := range e.groups[name] {
		fn(key, ent.keyVals, ent.state)
	}
}

// GroupLen returns how many keys an over-T group stage has accumulated.
func (e *Engine) GroupLen(name string) int { return len(e.groups[name]) }

// SelectRows returns the accumulated rows of a select-over-T stage (a
// multiset; callers sort after merging).
func (e *Engine) SelectRows(name string) [][]float64 { return e.srows[name] }

// Finish materializes every remaining stage in order and returns all
// tables by stage name.
func (e *Engine) Finish() (map[string]*Table, error) {
	for _, st := range e.plan.Stages {
		if e.preset[st.Name] {
			continue
		}
		switch {
		case st.Kind == compiler.KindJoin:
			t, err := e.runJoin(st)
			if err != nil {
				return nil, err
			}
			e.tables[st.Name] = t
		case st.Input == nil:
			e.tables[st.Name] = e.materializeT(st)
		default:
			t, err := e.runDerived(st)
			if err != nil {
				return nil, err
			}
			e.tables[st.Name] = t
		}
	}
	return e.tables, nil
}

// materializeT converts streaming state of an over-T stage into a table.
func (e *Engine) materializeT(st *compiler.Stage) *Table {
	t := &Table{Schema: st.Schema}
	switch st.Kind {
	case compiler.KindSelect:
		t.Rows = e.srows[st.Name]
	case compiler.KindGroup:
		t.Rows = materializeGroup(st, e.groups[st.Name])
	}
	t.Sort()
	return t
}

// materializeGroup renders group accumulators as rows (key values then
// projected value columns).
func materializeGroup(st *compiler.Stage, groups map[packet.Key128]*groupEntry) [][]float64 {
	rows := make([][]float64, 0, len(groups))
	for _, ent := range groups {
		rows = append(rows, GroupRow(st, ent.keyVals, ent.state))
	}
	return rows
}

// GroupRow builds one output row of a group stage from its key values and
// final state vector.
func GroupRow(st *compiler.Stage, keyVals, state []float64) []float64 {
	row := make([]float64, 0, len(keyVals)+len(st.Out))
	row = append(row, keyVals...)
	return AppendOutCols(st, state, row)
}

// AppendOutCols appends a group stage's projected value columns to row —
// the append-into-caller-storage form bulk materialization uses to build
// rows in a slab.
func AppendOutCols(st *compiler.Stage, state, row []float64) []float64 {
	var in fold.Input
	for i, idx := range st.OutStateIdx {
		if idx >= 0 {
			row = append(row, state[idx])
		} else {
			row = append(row, st.OutCodes[i].Eval(&in, state))
		}
	}
	return row
}

// runDerived evaluates a select or group stage over an upstream table.
func (e *Engine) runDerived(st *compiler.Stage) (*Table, error) {
	input, ok := e.tables[st.Input.Name]
	if !ok {
		return nil, fmt.Errorf("exec: stage %s input %s not materialized", st.Name, st.Input.Name)
	}
	t := &Table{Schema: st.Schema}
	switch st.Kind {
	case compiler.KindSelect:
		for _, row := range input.Rows {
			in := fold.Input{Cols: row}
			if !matches(st.WhereCode, &in) {
				continue
			}
			t.Rows = append(t.Rows, evalCols(st.ColCodes, &in, make([]float64, 0, len(st.ColCodes))))
		}
	case compiler.KindGroup:
		groups := map[packet.Key128]*groupEntry{}
		nk := st.Key.NumComponents()
		for _, row := range input.Rows {
			in := fold.Input{Cols: row}
			if !matches(st.WhereCode, &in) {
				continue
			}
			var kv [8]float64
			st.Key.ValuesRow(row, kv[:nk])
			key := st.Key.Pack(kv[:nk])
			ent := groups[key]
			if ent == nil {
				ent = &groupEntry{
					keyVals: append([]float64(nil), kv[:nk]...),
					state:   make([]float64, st.Fold.StateLen()),
				}
				st.Fold.Init(ent.state)
				groups[key] = ent
			}
			st.Fold.Update(ent.state, &in)
		}
		t.Rows = materializeGroup(st, groups)
	default:
		return nil, fmt.Errorf("exec: runDerived on %v stage", st.Kind)
	}
	t.Sort()
	return t, nil
}

// runJoin evaluates the restricted equi-join: both inputs are keyed by
// their first OnCols columns, which uniquely identify rows.
func (e *Engine) runJoin(st *compiler.Stage) (*Table, error) {
	left, ok := e.tables[st.Left.Name]
	if !ok {
		return nil, fmt.Errorf("exec: join %s left input %s not materialized", st.Name, st.Left.Name)
	}
	right, ok := e.tables[st.Right.Name]
	if !ok {
		return nil, fmt.Errorf("exec: join %s right input %s not materialized", st.Name, st.Right.Name)
	}
	k := st.OnCols
	index := make(map[string][]float64, len(right.Rows))
	for _, row := range right.Rows {
		index[rowKey(row[:k])] = row
	}
	t := &Table{Schema: st.Schema}
	for _, lrow := range left.Rows {
		rrow, ok := index[rowKey(lrow[:k])]
		if !ok {
			continue
		}
		combined := make([]float64, 0, len(lrow)+len(rrow))
		combined = append(combined, lrow...)
		combined = append(combined, rrow...)
		in := fold.Input{Cols: combined}
		if !matches(st.JoinWhereCode, &in) {
			continue
		}
		out := make([]float64, 0, k+len(st.JoinColCodes))
		out = append(out, lrow[:k]...)
		t.Rows = append(t.Rows, evalCols(st.JoinColCodes, &in, out))
	}
	t.Sort()
	return t, nil
}

// rowKey encodes a key prefix for hash-join lookup.
func rowKey(vals []float64) string {
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		u := uint64(int64(v))
		for j := 0; j < 8; j++ {
			b[i*8+j] = byte(u >> (8 * j))
		}
	}
	return string(b)
}

// Run evaluates the full plan over a source with unbounded memory.
func Run(plan *compiler.Plan, src trace.Source) (map[string]*Table, error) {
	e := New(plan)
	var rec trace.Record
	for {
		err := src.Next(&rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		e.ProcessRecord(&rec)
	}
	return e.Finish()
}
