package switchsim

import (
	"math/bits"

	"perfq/internal/fold"
	"perfq/internal/packet"
	"perfq/internal/shard"
	"perfq/internal/trace"
)

// This file is the datapath's one per-record loop — the software
// stand-in for the paper's one-update-per-clock pipeline stage. Every
// entry reaches it a block at a time, on memory somebody else already
// holds: a single-shard Feed cuts the caller's slice into blocks of up
// to fold.BlockSize records and runs them in place; the block router
// hands each shard its lanes of the caller's block (inline) or of a ring
// slot (worker pool), with the keys and hashes it routed by; and
// Datapath.Process fills one pending block on the feeder that then takes
// the same way. The block's holder has run the stateless stage over it
// (hotpath.go); processBlock is the stateful half, per shard: GROUPBY keys
// packed and hashed once per (group, lane), and one kvstore interface
// dispatch per program per block. Within a program or a select stage
// records are applied in arrival order (ascending lanes), so tables,
// stores and accuracy do not depend on how the stream was cut into
// blocks; only the interleaving *between* programs within a block does,
// which nothing observable depends on. A program's evictions leave its
// cache once per block, as one batch that its store reconciles before
// ProcessBlock returns; Config.OnEvict then sees the batch's lanes, so a
// key's evictions reach it in order and nothing is promised about the
// order across keys, programs or shards.

// processBlocks applies a run of records the caller owns every target
// of (the single-shard, unpartitioned datapath), in place.
func (sh *shardState) processBlocks(d *Datapath, recs []trace.Record) {
	b := &d.run
	for base := 0; base < len(recs); base += fold.BlockSize {
		n := min(len(recs)-base, fold.BlockSize)
		b.Recs, b.Lanes = recs[base:base+n], ^uint64(0)>>(fold.BlockSize-uint(n))
		b.Seq++
		sh.processBlock(d, b)
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

// processBlock applies the lanes b.Lanes of one block of 1..BlockSize
// records. b.Masks == nil means the shard owns every target of those
// lanes (a partition's only shard, which masks could not even represent
// beyond shard.MaxTargets programs, or the one owner of a record with
// one key group); otherwise b.Masks[l] is record l's routing mask, and
// target t sees exactly the lanes whose mask has bit t set. b.Keys, when
// set, are the packed keys and hashes of every key group and lane as the
// router computed them; when nil the key stage packs and hashes, lazily.
// The block's first delivery prepares its holder's stage for them all.
func (sh *shardState) processBlock(d *Datapath, b *shard.Block) {
	hp := d.hot
	sc := &sh.scratch
	recs, active := b.Recs, b.Lanes
	sh.nBlockRecs += uint64(bits.OnesCount64(active))
	st := d.stages[b.Holder]
	if st.seq != b.Seq {
		st.seq = b.Seq
		st.prepare(hp, recs)
	}

	// Transpose the per-lane routing masks into per-target lane masks.
	own := sc.own
	if b.Masks == nil {
		for t := range own {
			own[t] = active
		}
	} else {
		clear(own)
		for a := active; a != 0; a &= a - 1 {
			l := bits.TrailingZeros64(a)
			for m := b.Masks[l]; m != 0; m &= m - 1 {
				own[bits.TrailingZeros64(m)] |= 1 << uint(l)
			}
		}
	}

	// Mirror matching records for select-over-T stages (one shared
	// target, the bit past the programs'): per-matched-lane column
	// evaluation straight off the record (matches are sparse, so
	// evaluating columns lane-wise would waste the non-matching lanes).
	if selOwn := own[len(hp.progs)]; selOwn != 0 {
		for si := range hp.selects {
			sel := &hp.selects[si]
			for m := selOwn & st.sel[si]; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
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
	// per program, the lanes to apply, the group's key and hash columns —
	// the router's, or packed and hashed here lazily per (group, lane),
	// programs sharing a GROUPBY key sharing one computation — then one
	// ProcessBlock call over the coefficient columns, ascending lanes.
	for pi := range hp.progs {
		mask := own[pi] & st.match[pi]
		if mask == 0 {
			continue
		}
		g := hp.progs[pi].group
		kg := &hp.groups[g]
		keys, hashes := st.gkeys[g][:], st.ghash[g][:]
		if b.Keys != nil {
			keys, hashes = b.Keys[g], b.Hashes[g]
		} else if need := mask &^ st.gmask[g]; need != 0 {
			if kg.fiveTuple {
				for m := need; m != 0; m &= m - 1 {
					l := bits.TrailingZeros64(m)
					lo, hi := recs[l].FiveTupleWords() // all three inline
					keys[l].SetWords(lo, hi)
					hashes[l] = packet.HashWords(lo, hi)
				}
			} else {
				for m := need; m != 0; m &= m - 1 {
					l := bits.TrailingZeros64(m)
					keys[l] = kg.spec.Of(&recs[l])
					hashes[l] = keys[l].Hash()
				}
			}
			st.gmask[g] |= need
		}
		ps := sh.progs[pi]
		inserted := ps.cache.ProcessBlock(keys, hashes, recs, mask, st.coefs[pi])
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
