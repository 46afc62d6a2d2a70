package switchsim

import (
	"fmt"

	"perfq/internal/compiler"
	"perfq/internal/fold"
	"perfq/internal/obs"
	"perfq/internal/packet"
	"perfq/internal/shard"
	"perfq/internal/trace"
)

// This file holds what the block loop (processBlock in blockpath.go)
// runs on: plan-wide compiled metadata built once in New (hotPath), the
// stateless stage whoever holds a block of records runs over it once
// (stage), and the per-shard scratch. All of it is reused, so the
// steady-state loop allocates nothing. Four properties matter:
//
//   - No IR tree-walking: WHERE predicates, SELECT columns, merge
//     coefficients and fold bodies run as fold bytecode and nothing else
//     (the plan compiler lowers every expression or rejects the query).
//   - One field extraction pass per field per block: the union of raw
//     fields the stage's codes read is extracted into a field-major
//     block that vectorized bytecode indexes directly.
//   - What is a function of the record alone — WHERE masks, and the A and
//     B coefficients of block-evaluable linear folds — is computed once
//     per block, before any cache is probed: the paper's stateless stages
//     ahead of the stateful ALU. Every plan takes this one path.
//   - One key computation per distinct GROUPBY key: programs sharing a
//     key spec form a key group whose packed key is computed lazily, at
//     most once per (group, lane).

// selectHot is one select-over-T stage, compiled.
type selectHot struct {
	where *fold.Code // nil: no WHERE, every record matches
	cols  []*fold.Code
}

// keyGroup is one distinct GROUPBY key spec shared by ≥1 programs.
type keyGroup struct {
	spec      *compiler.KeySpec
	nk        int
	fiveTuple bool // pack with Record.FiveTupleKey inline
}

// progHot is one switch program's per-record metadata. A record enters
// the program's store if any member's guard admits it — the match half
// of the match-action entry.
type progHot struct {
	wheres []*fold.Code // compiled member guards (SwitchProgram.MemberWhere)
	group  int          // index into hotPath.groups
	always bool         // some member is unguarded: every record matches
	// coefs, when the store merges exactly over a block-evaluable spec,
	// is that spec: the stage computes the program's coefficient columns.
	coefs *fold.LinearSpec
}

// hotPath is the compiled per-block schedule, shared read-only by every
// stage and shard.
type hotPath struct {
	fields  []trace.FieldID // dense-extraction list: what the stage's codes read
	selects []selectHot
	groups  []keyGroup
	progs   []progHot
}

// newHotPath builds the schedule for a compiled plan. The stage runs
// every WHERE through EvalBoolBlock without looking at the code again,
// so this is where a predicate that is not block-evaluable is refused —
// none the plan compiler produces is: a WHERE over the raw table has only
// field references. exact: linear folds' stores merge exactly.
func newHotPath(plan *compiler.Plan, selStgs []*compiler.Stage, exact bool) (*hotPath, error) {
	hp := &hotPath{}
	var mask uint32
	addWhere := func(st *compiler.Stage, w *fold.Code) error {
		if w == nil {
			return nil
		}
		if !w.Vectorizable() {
			return fmt.Errorf("switchsim: stage %s: WHERE over the raw table is not block-evaluable", st.Name)
		}
		mask |= w.FieldMask()
		return nil
	}
	for _, st := range selStgs {
		sel := selectHot{where: st.WhereCode, cols: st.ColCodes}
		if err := addWhere(st, sel.where); err != nil {
			return nil, err
		}
		hp.selects = append(hp.selects, sel)
	}
	for _, sp := range plan.Programs {
		ph := progHot{wheres: sp.MemberWhere, group: -1}
		for i, w := range ph.wheres {
			if err := addWhere(sp.Members[i], w); err != nil {
				return nil, err
			}
			if w == nil {
				ph.always = true
			}
		}
		if ls := sp.Fold.Linear; exact && sp.Fold.Merge == fold.MergeLinear && ls != nil {
			if ok, _ := ls.BlockEvaluable(); ok {
				ph.coefs = ls
				mask |= ls.FieldMask()
			}
		}
		for g := range hp.groups {
			if hp.groups[g].spec.Equal(sp.Key) {
				ph.group = g
				break
			}
		}
		if ph.group < 0 {
			hp.groups = append(hp.groups, keyGroup{
				spec:      sp.Key,
				nk:        sp.Key.NumComponents(),
				fiveTuple: sp.Key.IsFiveTuple(),
			})
			ph.group = len(hp.groups) - 1
		}
		hp.progs = append(hp.progs, ph)
	}
	hp.fields = fold.FieldIDs(mask)
	return hp, nil
}

// routing builds the shard routing config: one key extractor per distinct
// key group (nil for the five-tuple, which the router packs inline), with
// every program mapped onto its group's entry.
func (hp *hotPath) routing(shards int) shard.Config {
	keys := make([]shard.KeyFunc, len(hp.groups))
	for g := range hp.groups {
		if !hp.groups[g].fiveTuple {
			keys[g] = hp.groups[g].spec.Of
		}
	}
	targets := make([]int, len(hp.progs))
	for t := range hp.progs {
		targets[t] = hp.progs[t].group
	}
	var freeMask uint64
	if len(hp.selects) > 0 {
		freeMask = 1 << uint(len(hp.progs)) // the selects' shared target, one bit past the programs'
	}
	return shard.Config{
		Shards:   shards,
		Keys:     keys,
		Targets:  targets,
		FreeMask: freeMask,
	}
}

// stage is the stateless half of the block loop: what depends on (plan,
// block) and not on which shard applies which lane — the field-major
// block, every WHERE mask, every block-evaluable program's coefficient
// columns, the lazily packed keys — prepared once per block by whoever
// holds it (shard.Block.Holder), however many shards then take lanes of
// it: each ring worker, and the feeder (inline router, in-place runs).
type stage struct {
	seq      uint64 // shard.Block.Seq of the block prepared
	prepared uint64 // blocks prepared

	sel   []uint64    // per select stage: lanes its WHERE admits
	match []uint64    // per program: lanes some member's guard admits
	coefs [][]float64 // per program: its coefficient columns; nil: per record
	gmask []uint64    // per key group: lanes packed this block
	gkeys [][fold.BlockSize]packet.Key128
	ghash [][fold.BlockSize]uint64 // gkeys[g][l].Hash()

	blk   fold.InputBlock
	bregs fold.BlockRegs
}

func newStage(hp *hotPath) *stage {
	st := &stage{
		sel:   make([]uint64, len(hp.selects)),
		match: make([]uint64, len(hp.progs)),
		coefs: make([][]float64, len(hp.progs)),
		gmask: make([]uint64, len(hp.groups)),
		gkeys: make([][fold.BlockSize]packet.Key128, len(hp.groups)),
		ghash: make([][fold.BlockSize]uint64, len(hp.groups)),
	}
	for pi, ph := range hp.progs {
		if ph.coefs != nil {
			st.coefs[pi] = ph.coefs.NewCoefBlock()
		}
	}
	return st
}

// prepare runs the stage over every lane of a block of 1..BlockSize
// records; what it computes for lanes nobody applies is masked off.
func (st *stage) prepare(hp *hotPath, recs []trace.Record) {
	n := len(recs)
	full := ^uint64(0) >> (64 - uint(n))
	for _, f := range hp.fields { // Record.Field's switch resolves once per column
		lane := st.blk.Lane(f)
		for l := 0; l < n; l++ {
			lane[l] = float64(recs[l].Field(f))
		}
	}
	for si := range hp.selects {
		st.sel[si] = full
		if w := hp.selects[si].where; w != nil {
			st.sel[si] = w.EvalBoolBlock(&st.blk, n, &st.bregs)
		}
	}
	for pi := range hp.progs {
		ph, match := &hp.progs[pi], full
		if !ph.always {
			match = 0
			for _, w := range ph.wheres {
				if match |= w.EvalBoolBlock(&st.blk, n, &st.bregs); match == full {
					break
				}
			}
		}
		st.match[pi] = match
		if ph.coefs != nil && match != 0 {
			ph.coefs.EvalCoefBlock(&st.blk, n, &st.bregs, st.coefs[pi])
		}
	}
	clear(st.gmask)
	st.prepared++
}

// shardScratch is the per-shard mutable hot-path state: the Input sparse
// SELECT column evaluation points at a lane's record, a chunked slab that
// select rows / key-component copies are carved from, and the per-target
// owned-lane masks of the block in hand.
type shardScratch struct {
	in   fold.Input
	slab floatSlab
	own  []uint64 // per routing target: lanes this shard owns this block

	// spanSlot is the shard's trace-span mailbox: the pool parks the
	// in-flight record's sampled span here and the shard's caches append
	// their hops to it. Owned by the shard's processing goroutine; unused
	// when tracing is off.
	spanSlot obs.SpanSlot
}

// floatSlab hands out []float64 rows carved from large chunks, so
// per-row costs amortize to ~one allocation per slabChunk floats instead
// of one per row. Rows remain valid forever: a retired chunk stays
// reachable through the rows sliced from it.
type floatSlab struct {
	cur []float64
}

// slabChunk is the chunk size in float64s (64 KiB chunks).
const slabChunk = 8192

// take returns a zeroed n-float row with capacity clamped to n.
func (s *floatSlab) take(n int) []float64 {
	if len(s.cur)+n > cap(s.cur) {
		size := slabChunk
		if n > size {
			size = n
		}
		s.cur = make([]float64, 0, size)
	}
	off := len(s.cur)
	s.cur = s.cur[: off+n : cap(s.cur)]
	return s.cur[off : off+n : off+n]
}

// copyOf returns a slab-backed copy of vals.
func (s *floatSlab) copyOf(vals []float64) []float64 {
	row := s.take(len(vals))
	copy(row, vals)
	return row
}
