package compiler

import (
	"fmt"
	"strings"

	"perfq/internal/fold"
	"perfq/internal/lang"
	"perfq/internal/linear"
)

// StageKind classifies plan stages.
type StageKind uint8

// Stage kinds.
const (
	KindSelect StageKind = iota // per-row filter/projection
	KindGroup                   // GROUPBY aggregation
	KindJoin                    // key-equal join of two group results
)

// String names the kind.
func (k StageKind) String() string {
	switch k {
	case KindSelect:
		return "select"
	case KindGroup:
		return "group"
	default:
		return "join"
	}
}

// OutCol materializes one output value column from a group stage's state
// vector (StateRef(i) reads state[i]; e.g. AVG projects sum/count).
type OutCol struct {
	Name string
	Expr fold.Expr
}

// Stage is one compiled query.
type Stage struct {
	Name   string
	Kind   StageKind
	Schema []string // output column names, keys first

	// Input is the upstream stage; nil means the stage reads the raw
	// table T. Joins use Left/Right.
	Input       *Stage
	Left, Right *Stage

	// Where filters input rows: a row passes when it is nonzero. Over T
	// it uses FieldRef nodes (the match part of a match-action entry);
	// over derived tables, ColRef. nil means no WHERE.
	Where fold.Expr

	// Select stages: output column expressions.
	Cols []fold.Expr

	// Group stages.
	Key      *KeySpec
	Fold     *fold.Func // the stage's (possibly multi-fold) aggregation
	Out      []OutCol   // value-column projections from the state vector
	OnSwitch bool       // true for group stages over T

	// Join stages: expressions over the combined row (left row columns
	// first, then right row columns).
	JoinCols  []fold.Expr
	JoinWhere fold.Expr
	OnCols    int

	// Switch placement (filled by the fusion pass for OnSwitch stages).
	Program *SwitchProgram // physical store this stage reads
	Member  int            // index of this stage within the program

	// Bytecode lowerings of the per-row work above, filled once by
	// Compile, which either lowers every expression or rejects the query.
	// The invariant every reader relies on: a code is nil iff its
	// expression is nil (no WHERE); the code slices are index-aligned with
	// Cols / Out / JoinCols and hold no nil entry.
	WhereCode     *fold.Code
	ColCodes      []*fold.Code
	OutCodes      []*fold.Code
	JoinWhereCode *fold.Code
	JoinColCodes  []*fold.Code
	// OutStateIdx[i] is the state word Out[i] projects when it is a bare
	// StateRef (the common projection), else -1; materialization reads
	// the word directly instead of running any evaluator.
	OutStateIdx []int
}

// SwitchProgram is one physical key-value store instance on the switch: a
// key spec plus a fused fold whose state vector concatenates every member
// stage's state (each guarded by its WHERE), with one presence counter per
// member so the collector can reconstruct which keys each logical stage
// would have produced.
type SwitchProgram struct {
	Key     *KeySpec
	Fold    *fold.Func
	Members []*Stage
	// Offsets[i] is where member i's state begins; PresIdx[i] its
	// presence counter, or -1 when none is needed: a single-member store
	// admits only records matching that member's WHERE (the guard stays
	// outside the fold), so every key present trivially belongs to the
	// member and the counter would burn a state word — and a per-packet
	// update — for nothing.
	Offsets []int
	PresIdx []int
	// MemberWhere[i] is member i's WHERE predicate compiled to bytecode
	// (Members[i].WhereCode); nil iff the member has no WHERE and so
	// matches every record. Filled once by Compile.
	MemberWhere []*fold.Code
}

// Plan is a compiled program.
type Plan struct {
	Stages   []*Stage // topological (declaration) order
	ByName   map[string]*Stage
	Results  []*Stage
	Programs []*SwitchProgram // physical switch-resident stores
}

// Compile assembles a checked program, whose expressions the checker has
// already lowered to fold IR, into a plan of stages and runs the fusion
// pass. Linear-in-state analysis annotates every switch program's fold so
// the datapath knows its merge class.
func Compile(chk *lang.Checked) (*Plan, error) {
	p := &Plan{ByName: map[string]*Stage{}}
	for _, cq := range chk.Queries {
		st, err := p.stage(cq)
		if err != nil {
			return nil, err
		}
		p.Stages = append(p.Stages, st)
		p.ByName[st.Name] = st
	}
	for _, cq := range chk.Results {
		p.Results = append(p.Results, p.ByName[cq.Name])
	}
	if err := p.fuse(); err != nil {
		return nil, err
	}
	if err := p.compileCodes(); err != nil {
		return nil, err
	}
	return p, nil
}

// compileCodes lowers every per-row expression in the plan — WHERE
// predicates, SELECT/JOIN columns, output projections, fold bodies and
// linear-in-state coefficients — to fold bytecode, exactly once, before
// any record is processed. Lowering is total or the query is rejected:
// bytecode is the only evaluator behind the packet path, so an expression
// the VM cannot hold (deeper than its register file) is an error naming
// the stage and the site.
func (p *Plan) compileCodes() error {
	for _, st := range p.Stages {
		if err := st.compileCodes(); err != nil {
			return fmt.Errorf("stage %s: %w", st.Name, err)
		}
	}
	for _, sp := range p.Programs {
		if err := sp.Fold.EnsureCompiled(); err != nil {
			return fmt.Errorf("%s: %w", sp.Fold.Name(), err)
		}
		sp.MemberWhere = make([]*fold.Code, len(sp.Members))
		for i, m := range sp.Members {
			sp.MemberWhere[i] = m.WhereCode
		}
	}
	return nil
}

// compileCodes lowers one stage's expressions.
func (st *Stage) compileCodes() error {
	var err error
	if st.WhereCode, err = fold.CompileExpr(st.Where); err != nil {
		return fmt.Errorf("WHERE: %w", err)
	}
	if st.JoinWhereCode, err = fold.CompileExpr(st.JoinWhere); err != nil {
		return fmt.Errorf("WHERE: %w", err)
	}
	if st.ColCodes, err = compileExprs(st.Cols); err != nil {
		return fmt.Errorf("column %w", err)
	}
	if st.JoinColCodes, err = compileExprs(st.JoinCols); err != nil {
		return fmt.Errorf("column %w", err)
	}
	if len(st.Out) > 0 {
		outs := make([]fold.Expr, len(st.Out))
		st.OutStateIdx = make([]int, len(st.Out))
		for i, oc := range st.Out {
			outs[i] = oc.Expr
			st.OutStateIdx[i] = -1
			if sr, ok := oc.Expr.(fold.StateRef); ok {
				st.OutStateIdx[i] = int(sr)
			}
		}
		if st.OutCodes, err = compileExprs(outs); err != nil {
			return fmt.Errorf("output column %w", err)
		}
	}
	if st.Fold != nil {
		return st.Fold.EnsureCompiled()
	}
	return nil
}

// compileExprs lowers a column list; the error names the 1-based column.
func compileExprs(exprs []fold.Expr) ([]*fold.Code, error) {
	if len(exprs) == 0 {
		return nil, nil
	}
	codes := make([]*fold.Code, len(exprs))
	for i, e := range exprs {
		var err error
		if codes[i], err = fold.CompileExpr(e); err != nil {
			return nil, fmt.Errorf("%d: %w", i+1, err)
		}
	}
	return codes, nil
}

// stage assembles one checked query's stage; its inputs are already in
// the plan.
func (p *Plan) stage(cq *lang.CheckedQuery) (*Stage, error) {
	st := &Stage{Name: cq.Name}
	for i := range cq.Schema {
		st.Schema = append(st.Schema, cq.Schema[i].Name)
	}
	switch {
	case cq.Left != nil:
		st.Kind = KindJoin
		st.Left, st.Right = p.ByName[cq.Left.Name], p.ByName[cq.Right.Name]
		st.JoinCols, st.JoinWhere, st.OnCols = cq.Cols, cq.Where, cq.OnCols
		return st, nil
	case cq.Input != nil:
		st.Input = p.ByName[cq.Input.Name]
	}
	st.Where = cq.Where
	if !cq.IsGroup {
		st.Kind, st.Cols = KindSelect, cq.Cols
		return st, nil
	}
	return st, st.group(cq)
}

// group assembles a GROUPBY stage: every fold use's state vector
// concatenated into one program (the single value of the key-value
// store), and each use's output columns projected from its slice of it.
func (st *Stage) group(cq *lang.CheckedQuery) error {
	st.Kind = KindGroup
	st.OnSwitch = st.Input == nil
	if st.OnSwitch {
		st.Key = newKeySpecFields(cq.GroupFields)
	} else {
		st.Key = newKeySpecCols(cq.GroupCols)
	}
	var (
		body   []fold.Stmt
		names  []string
		s0     []float64
		offset int
		funcs  []*fold.Func
		offs   []int
	)
	progName := make([]string, 0, len(cq.Folds)+1)
	for _, fu := range cq.Folds {
		f, outs, err := foldFunc(&fu)
		if err != nil {
			return err
		}
		funcs = append(funcs, f)
		offs = append(offs, offset)
		body = append(body, renumberStmts(f.Prog.Body, offset)...)
		for i := 0; i < f.StateLen(); i++ {
			if f.Prog.S0 != nil {
				s0 = append(s0, f.Prog.S0[i])
			} else {
				s0 = append(s0, 0)
			}
			n := fmt.Sprintf("s%d", offset+i)
			if f.Prog.StateNames != nil {
				n = f.Prog.StateNames[i]
			}
			names = append(names, n)
		}
		// Value columns follow the key columns in the schema, one per
		// projection, in fold-use order.
		for _, e := range outs {
			name := st.Schema[st.Key.NumComponents()+len(st.Out)]
			st.Out = append(st.Out, OutCol{Name: name, Expr: renumberExpr(e, offset)})
		}
		progName = append(progName, f.Name())
		offset += f.StateLen()
	}
	if len(cq.Folds) == 0 {
		// DISTINCT: a bare presence counter (never projected).
		cf := fold.Count()
		body = renumberStmts(cf.Prog.Body, 0)
		names = []string{"present"}
		s0 = []float64{0}
		progName = append(progName, "distinct")
		offset = 1
	}
	prog := &fold.Program{
		Name:       strings.Join(progName, "+"),
		NumState:   offset,
		S0:         s0,
		Body:       body,
		StateNames: names,
	}
	if err := prog.Validate(); err != nil {
		return fmt.Errorf("stage %s: %w", st.Name, err)
	}
	st.Fold = &fold.Func{Prog: prog}
	// A stage whose folds are all associative builtins (MAX/MIN) keeps
	// that merge metadata: each fold's state occupies a disjoint slice of
	// the concatenated vector, so the stage combines component-wise. The
	// linear analysis cannot recover this — the If-on-state bodies are
	// not linear — and losing it would demote such stages to epoch
	// semantics (which is exactly what happened before PR 4).
	if comb := concatCombine(funcs, offs); comb != nil {
		st.Fold.Merge = fold.MergeAssoc
		st.Fold.Combine = comb
	}
	// Annotate with merge metadata; non-linear folds simply stay
	// MergeNone (epoch semantics).
	_ = linear.Annotate(st.Fold)
	return nil
}

// concatCombine builds the pairwise combine of a concatenation of folds,
// or nil unless every fold (at least one) is associative. For a single
// fold at offset 0 this is that fold's own Combine.
func concatCombine(funcs []*fold.Func, offs []int) func(dst, src []float64) {
	if len(funcs) == 0 {
		return nil
	}
	for _, f := range funcs {
		if f.Merge != fold.MergeAssoc || f.Combine == nil {
			return nil
		}
	}
	if len(funcs) == 1 {
		return funcs[0].Combine
	}
	lens := make([]int, len(funcs))
	for i, f := range funcs {
		lens[i] = f.StateLen()
	}
	combines := make([]func(dst, src []float64), len(funcs))
	for i, f := range funcs {
		combines[i] = f.Combine
	}
	return func(dst, src []float64) {
		for i, comb := range combines {
			off, l := offs[i], lens[i]
			comb(dst[off:off+l], src[off:off+l])
		}
	}
}

// foldFunc builds one aggregation's fold and its output projections over
// that fold's own state.
func foldFunc(fu *lang.FoldUse) (*fold.Func, []fold.Expr, error) {
	word0 := []fold.Expr{fold.StateRef(0)}
	if fd := fu.Decl; fd != nil {
		prog := &fold.Program{
			Name:       fd.Name,
			NumState:   len(fd.StateParams),
			Body:       fu.Body,
			StateNames: append([]string(nil), fd.StateParams...),
		}
		if err := prog.Validate(); err != nil {
			return nil, nil, err
		}
		outs := make([]fold.Expr, len(fd.StateParams))
		for i := range outs {
			outs[i] = fold.StateRef(i)
		}
		return &fold.Func{Prog: prog}, outs, nil
	}
	switch fu.Name {
	case lang.AggCount:
		return fold.Count(), word0, nil
	case lang.AggSum:
		return fold.Sum(fu.Arg), word0, nil
	case lang.AggMax:
		return fold.Max(fu.Arg), word0, nil
	case lang.AggMin:
		return fold.Min(fu.Arg), word0, nil
	case lang.AggAvg:
		return fold.Avg(fu.Arg), []fold.Expr{fold.Bin{Op: fold.OpDiv, L: fold.StateRef(0), R: fold.StateRef(1)}}, nil
	case lang.AggEwma:
		return fold.Ewma(fu.Arg, fu.Alpha), word0, nil
	}
	return nil, nil, fmt.Errorf("compiler: unknown aggregate %q", fu.Name)
}

// fuse assigns switch-resident group stages to physical stores. Stages
// with identical keys share one store when the fused fold remains linear
// in state (the paper's "JOINs … can be represented by a more complex
// aggregation function"); otherwise each gets its own store. Fusing a
// history-using fold under another member's guard would break its
// previous-packet invariant, so such combinations are kept separate —
// the trial build below detects that automatically via the linearity
// analysis.
func (p *Plan) fuse() error {
	for _, st := range p.Stages {
		if st.Kind != KindGroup || !st.OnSwitch {
			continue
		}
		placed := false
		for _, sp := range p.Programs {
			if !sp.Key.Equal(st.Key) {
				continue
			}
			candidate := &SwitchProgram{Key: sp.Key, Members: append(append([]*Stage(nil), sp.Members...), st)}
			if err := candidate.build(); err != nil {
				continue
			}
			if candidate.Fold.Merge != fold.MergeLinear {
				continue // fusion would lose exact merging; keep separate
			}
			*sp = *candidate
			for mi, m := range sp.Members {
				m.Program, m.Member = sp, mi
			}
			placed = true
			break
		}
		if placed {
			continue
		}
		sp := &SwitchProgram{Key: st.Key, Members: []*Stage{st}}
		if err := sp.build(); err != nil {
			return err
		}
		st.Program, st.Member = sp, 0
		p.Programs = append(p.Programs, sp)
	}
	return nil
}

// build assembles the fused fold for a physical store. A single-member
// store keeps the member's WHERE outside the fold (the datapath admits
// only matching records); multi-member stores guard each member's body
// inside the fold, since a record may match one member but not another.
func (sp *SwitchProgram) build() error {
	var (
		body   []fold.Stmt
		names  []string
		s0     []float64
		offset int
	)
	single := len(sp.Members) == 1
	sp.Offsets = nil
	sp.PresIdx = nil
	progNames := make([]string, 0, len(sp.Members))
	for _, st := range sp.Members {
		sp.Offsets = append(sp.Offsets, offset)
		member := renumberStmts(st.Fold.Prog.Body, offset)
		for i := 0; i < st.Fold.StateLen(); i++ {
			if st.Fold.Prog.S0 != nil {
				s0 = append(s0, st.Fold.Prog.S0[i])
			} else {
				s0 = append(s0, 0)
			}
			names = append(names, fmt.Sprintf("%s.%s", st.Name, st.Fold.Prog.StateNames[i]))
		}
		offset += st.Fold.StateLen()

		if single {
			// No presence counter: the datapath admits only matching
			// records, so membership is implied by key presence.
			sp.PresIdx = append(sp.PresIdx, -1)
		} else {
			// Presence counter for this member.
			pres := offset
			sp.PresIdx = append(sp.PresIdx, pres)
			member = append(member, fold.Assign{Dst: pres, RHS: fold.Bin{Op: fold.OpAdd, L: fold.StateRef(pres), R: fold.Const(1)}})
			names = append(names, fmt.Sprintf("%s.present", st.Name))
			s0 = append(s0, 0)
			offset++
		}

		if st.Where != nil && !single {
			member = []fold.Stmt{fold.If{Cond: st.Where, Then: member}}
		}
		body = append(body, member...)
		progNames = append(progNames, st.Name)
	}
	if offset > fold.MaxState {
		return fmt.Errorf("compiler: fused store %s needs %d state words (max %d); split the queries across keys",
			strings.Join(progNames, "+"), offset, fold.MaxState)
	}
	prog := &fold.Program{
		Name:       "store[" + strings.Join(progNames, "+") + "]",
		NumState:   offset,
		S0:         s0,
		Body:       body,
		StateNames: names,
	}
	if err := prog.Validate(); err != nil {
		return err
	}
	sp.Fold = &fold.Func{Prog: prog}
	// A single-member store whose stage fold is associative keeps that
	// metadata (state indices are unchanged at offset 0, and no presence
	// counter was added), so the backing store reconciles its evictions
	// with Combine instead of degrading to epoch semantics.
	if single && sp.Members[0].Fold.Merge == fold.MergeAssoc {
		sp.Fold.Merge = fold.MergeAssoc
		sp.Fold.Combine = sp.Members[0].Fold.Combine
	}
	_ = linear.Annotate(sp.Fold)
	return nil
}

// renumberStmts shifts every state index in a statement list by off.
func renumberStmts(stmts []fold.Stmt, off int) []fold.Stmt {
	out := make([]fold.Stmt, len(stmts))
	for i, s := range stmts {
		switch s := s.(type) {
		case fold.Assign:
			out[i] = fold.Assign{Dst: s.Dst + off, RHS: renumberExpr(s.RHS, off)}
		case fold.If:
			out[i] = fold.If{
				Cond: renumberExpr(s.Cond, off),
				Then: renumberStmts(s.Then, off),
				Else: renumberStmts(s.Else, off),
			}
		}
	}
	return out
}

func renumberExpr(e fold.Expr, off int) fold.Expr {
	switch e := e.(type) {
	case nil:
		return nil
	case fold.StateRef:
		return fold.StateRef(int(e) + off)
	case fold.Bin:
		return fold.Bin{Op: e.Op, L: renumberExpr(e.L, off), R: renumberExpr(e.R, off)}
	case fold.Neg:
		return fold.Neg{X: renumberExpr(e.X, off)}
	case fold.Not:
		return fold.Not{X: renumberExpr(e.X, off)}
	case fold.Call:
		args := make([]fold.Expr, len(e.Args))
		for i, a := range e.Args {
			args[i] = renumberExpr(a, off)
		}
		return fold.Call{Fn: e.Fn, Args: args}
	case fold.CondExpr:
		return fold.CondExpr{P: renumberExpr(e.P, off), T: renumberExpr(e.T, off), E: renumberExpr(e.E, off)}
	default:
		return e
	}
}

// NumKeyCols returns the number of key columns of a group or join stage.
func (st *Stage) NumKeyCols() int {
	switch st.Kind {
	case KindGroup:
		return st.Key.NumComponents()
	case KindJoin:
		return st.OnCols
	default:
		return 0
	}
}
