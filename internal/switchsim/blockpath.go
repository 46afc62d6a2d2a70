package switchsim

import (
	"math/bits"

	"perfq/internal/compiler"
	"perfq/internal/fold"
	"perfq/internal/obs"
	"perfq/internal/trace"
)

// This file is the datapath's one per-record loop — the software
// stand-in for the paper's one-update-per-clock pipeline stage. Every
// entry reaches it a block at a time: a single-shard Feed cuts the
// caller's slice into blocks of up to fold.BlockSize records and runs
// them in place; every record-at-a-time entry (Datapath.Process and the
// pools behind it, inline or ring workers) copies into the owning
// shard's staging block, which runs when it fills or is drained. processBlock
// runs each pipeline step across the whole block — one field extraction
// pass per field (not per record), WHERE predicates through the VM's
// vectorized EvalBoolBlock, GROUPBY keys packed once per (group, lane),
// and one kvstore interface dispatch per program per block. Within a
// program or a select stage records are applied in arrival order
// (ascending lanes), so tables, stores and accuracy do not depend on
// how the stream was cut into blocks; only the interleaving *between*
// programs within a block does, which nothing observable depends on
// (Config.OnEvict ordering across programs is unspecified, like the
// sharded path's cross-shard ordering).

// processBlocks applies a run of records the caller owns every target
// of (the single-shard, unpartitioned datapath), in place.
func (sh *shardState) processBlocks(d *Datapath, recs []trace.Record) {
	for base := 0; base < len(recs); base += fold.BlockSize {
		n := min(len(recs)-base, fold.BlockSize)
		sh.processBlock(d, recs[base:base+n], nil)
		if d.obs != nil {
			// Refresh the atomic mirrors every pubBlocks blocks so a
			// scraper sees live progress mid-window; in-place runs only
			// happen on the single-owner shard 0.
			if sh.sincePub++; sh.sincePub >= pubBlocks {
				sh.sincePub = 0
				d.publishShard(0)
				d.publishPackets()
			}
		}
	}
}

// stageRec copies one routed record (mask: the targets this shard owns
// for it) into the staging block and runs the block when it fills. A
// record that arrives with a live span in the shard's trace mailbox is
// applied at once, as a block of one behind whatever was staged before
// it (drained with the mailbox cleared), so the span's cache and evict
// hops follow its route and transport hops and land on no other record.
func (sh *shardState) stageRec(d *Datapath, rec *trace.Record, mask uint64) {
	slot := &sh.scratch.spanSlot
	traced := slot.Ref.Live()
	if traced && sh.nStage > 0 {
		ref := slot.Ref
		slot.Ref = obs.SpanRef{}
		sh.drain(d)
		slot.Ref = ref
	}
	sh.stage[sh.nStage] = *rec
	sh.stageMask[sh.nStage] = mask
	sh.nStage++
	sh.nStagedRecs++
	if sh.nStage == fold.BlockSize || traced {
		sh.drain(d)
	}
}

// drain runs whatever is staged. The caller must own the shard: its
// worker, or the feeder on the inline paths and past a barrier.
func (sh *shardState) drain(d *Datapath) {
	n := sh.nStage
	if n == 0 {
		return
	}
	sh.nStage = 0
	var lanes []uint64
	if d.per > 1 {
		lanes = sh.stageMask[:n]
	}
	sh.processBlock(d, sh.stage[:n], lanes)
}

// gatherLane rebuilds the record-major dense field vector for one lane,
// so sparse per-record work (SELECT column evaluation) reuses the
// already-extracted block values through the scalar Input.
func (sc *shardScratch) gatherLane(hp *hotPath, l int) {
	for _, f := range hp.fields {
		sc.fields[f] = sc.blk.Lane(f)[l]
	}
}

// processBlock applies one block of 1..BlockSize records. lanes == nil
// means the caller owns every target for every record (a partition's
// only shard, which masks could not even represent beyond
// shard.MaxTargets programs); otherwise lanes[l] is record l's routing
// mask, and target t sees exactly the lanes whose mask has bit t set.
func (sh *shardState) processBlock(d *Datapath, recs []trace.Record, lanes []uint64) {
	hp := d.hot
	sc := &sh.scratch
	n := len(recs)
	sh.nBlockRecs += uint64(n)
	full := ^uint64(0) >> (64 - uint(n))

	// Transpose the per-lane routing masks into per-target lane masks.
	own := sc.own
	if lanes == nil {
		for t := range own {
			own[t] = full
		}
	} else {
		clear(own)
		for l, m := range lanes {
			for ; m != 0; m &= m - 1 {
				own[bits.TrailingZeros64(m)] |= 1 << uint(l)
			}
		}
	}

	// One extraction pass per field: the Record.Field dispatch switch
	// resolves once per field per block (perfectly predicted across the
	// lane loop) instead of once per field per record.
	for _, f := range hp.fields {
		lane := sc.blk.Lane(f)
		for l := 0; l < n; l++ {
			lane[l] = float64(recs[l].Field(f))
		}
	}

	// Mirror matching records for select-over-T stages (one shared
	// target, the bit past the programs'): batched WHERE, then
	// per-matched-lane column evaluation (matches are sparse, so
	// evaluating columns lane-wise would waste the non-matching lanes).
	if selOwn := own[len(hp.progs)]; selOwn != 0 {
		for si := range hp.selects {
			sel := &hp.selects[si]
			mask := selOwn
			if sel.where != nil {
				mask &= sel.where.EvalBoolBlock(&sc.blk, n, &sc.bregs)
			}
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				sc.gatherLane(hp, l)
				sc.in.Rec = &recs[l]
				row := sc.slab.take(len(sel.cols))
				for i, c := range sel.cols {
					row[i] = c.Eval(&sc.in, nil)
				}
				sh.selRows[si] = append(sh.selRows[si], row)
			}
		}
	}

	// Key-value store programs. A record enters a program's store if the
	// shard owns the program for it and it matches any member's guard
	// (the fused fold's internal guards keep per-member state exact):
	// per program, a block-wide match mask, lazily shared key packing per
	// (group, lane) — programs sharing a GROUPBY key share one key
	// computation — then one ProcessBlock call, ascending lanes inside.
	for g := range sc.gmask {
		sc.gmask[g] = 0
	}
	for pi := range hp.progs {
		ph := &hp.progs[pi]
		mask := own[pi]
		if mask == 0 {
			continue
		}
		if !ph.always {
			var match uint64
			for _, w := range ph.wheres {
				if match |= w.EvalBoolBlock(&sc.blk, n, &sc.bregs); match == full {
					break
				}
			}
			if mask &= match; mask == 0 {
				continue
			}
		}
		g := ph.group
		kg := &hp.groups[g]
		keys := &sc.gkeys[g]
		if need := mask &^ sc.gmask[g]; need != 0 {
			if kg.fiveTuple {
				for m := need; m != 0; m &= m - 1 {
					l := bits.TrailingZeros64(m)
					keys[l] = compiler.FiveTupleKey(&recs[l]) // inlines
				}
			} else {
				for m := need; m != 0; m &= m - 1 {
					l := bits.TrailingZeros64(m)
					keys[l] = kg.spec.Of(&recs[l])
				}
			}
			sc.gmask[g] |= need
		}
		ps := sh.progs[pi]
		inserted := ps.cache.ProcessBlock(keys, recs, mask)
		if inserted != 0 && ps.keyVals != nil {
			// Digest-mode keys are irreversible, so component values ride
			// alongside. Recording only on insert keeps map traffic off
			// the hit path entirely; the containment check makes
			// re-inserts after eviction idempotent so slab rows aren't
			// duplicated.
			for m := inserted; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				key := keys[l]
				if _, ok := ps.keyVals[key]; !ok {
					var kv [8]float64
					kg.spec.Values(&recs[l], kv[:kg.nk])
					ps.keyVals[key] = sc.slab.copyOf(kv[:kg.nk])
				}
			}
		}
	}
}
