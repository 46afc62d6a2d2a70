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
// runs on: plan-wide compiled metadata built once in New (hotPath) and
// the per-shard scratch that keeps the steady-state loop
// allocation-free. Three properties matter:
//
//   - No IR tree-walking: WHERE predicates, SELECT columns and fold
//     bodies run as fold bytecode and nothing else (the plan compiler
//     lowers every expression or rejects the query).
//   - One field extraction pass per field per block: the union of raw
//     fields every compiled code reads is extracted into a field-major
//     block that vectorized bytecode indexes directly.
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
}

// hotPath is the compiled per-block schedule, shared read-only by every
// shard.
type hotPath struct {
	fields  []trace.FieldID // dense-extraction list (plan-wide union)
	selects []selectHot
	groups  []keyGroup
	progs   []progHot
}

// newHotPath builds the schedule for a compiled plan. The block loop
// runs every WHERE through EvalBoolBlock without looking at the code
// again, so this is where a predicate that is not block-evaluable is
// refused — none the plan compiler produces is: a WHERE over the raw
// table has only field references and no conditional.
func newHotPath(plan *compiler.Plan, selStgs []*compiler.Stage) (*hotPath, error) {
	hp := &hotPath{}
	var mask uint32
	codeMask := func(c *fold.Code) {
		if c != nil {
			mask |= c.FieldMask()
		}
	}
	addWhere := func(st *compiler.Stage, w *fold.Code) error {
		if w != nil && !w.Vectorizable() {
			return fmt.Errorf("switchsim: stage %s: WHERE over the raw table is not block-evaluable", st.Name)
		}
		codeMask(w)
		return nil
	}
	for _, st := range selStgs {
		sel := selectHot{where: st.WhereCode, cols: st.ColCodes}
		if err := addWhere(st, sel.where); err != nil {
			return nil, err
		}
		for _, c := range sel.cols {
			codeMask(c)
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
		codeMask(sp.Fold.Code)
		if sp.Fold.Linear != nil {
			mask |= sp.Fold.Linear.FieldMask()
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
	// Dense pre-extraction pays when several codes re-read the same
	// fields per record. A plan with one unguarded program and no
	// mirrored selects runs exactly one code per packet in the steady
	// state, so the VM's direct Record.Field fallback reads each field
	// once either way — skip the extraction pass entirely.
	if len(hp.selects) == 0 && len(hp.progs) == 1 && hp.progs[0].always {
		hp.fields = nil
	}
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

// shardScratch is the per-shard mutable hot-path state. Everything here
// exists so the steady-state block loop performs zero heap allocations:
// a field-major block and the block register file, per-target owned-lane
// masks, per-group packed keys and their hashes with a computed-lanes
// mask (unused when the router supplies both), the record-major Input (with its dense field vector) that sparse SELECT
// column evaluation gathers a lane into, and a chunked slab that select
// rows / key-component copies are carved from.
type shardScratch struct {
	in     fold.Input
	fields [trace.NumFields]float64
	slab   floatSlab

	blk   fold.InputBlock
	bregs fold.BlockRegs
	own   []uint64                        // per routing target: lanes this shard owns this block
	gkeys [][fold.BlockSize]packet.Key128 // per key group, per lane
	ghash [][fold.BlockSize]uint64        // gkeys[g][l].Hash()
	gmask []uint64                        // per key group: lanes packed this block
	run   shard.Block                     // processBlocks' block over the caller's slice

	// spanSlot is the shard's trace-span mailbox: the pool parks the
	// in-flight record's sampled span here and the shard's caches append
	// their hops to it. Owned by the shard's processing goroutine; unused
	// when tracing is off.
	spanSlot obs.SpanSlot
}

func (sc *shardScratch) init(hp *hotPath) {
	if hp.fields != nil {
		sc.in.Fields = sc.fields[:]
	}
	sc.own = make([]uint64, len(hp.progs)+1)
	sc.gkeys = make([][fold.BlockSize]packet.Key128, len(hp.groups))
	sc.ghash = make([][fold.BlockSize]uint64, len(hp.groups))
	sc.gmask = make([]uint64, len(hp.groups))
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
