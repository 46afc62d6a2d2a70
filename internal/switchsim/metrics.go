package switchsim

import (
	"strconv"
	"sync/atomic"

	"perfq/internal/obs"
	"perfq/internal/shard"
)

// Datapath instrumentation. The hot loop keeps its existing plain
// (non-atomic) counters — d.packets, per-shard path counters, the
// kvstore/backing stat structs — and this file mirrors them into
// striped atomic cells at batch boundaries: every pubBlocks blocks of
// an in-place Feed, after every consumed ring batch on the sharded
// path (shard.Config.AfterBatch), and at every Feed/Sync/Flush/
// CloseWindow edge. The scraper reads only the mirrors, so enabling
// metrics adds zero work per record and the whole surface is clean
// under -race.

// pubBlocks is the mirror cadence of a single-shard Feed: one publish
// per 256 blocks ≈ one per 16k records.
const pubBlocks = 256

// progObs mirrors one program's cache + store counters, striped per
// shard.
type progObs struct {
	accesses  *obs.Counter
	hits      *obs.Counter
	inserts   *obs.Counter
	evictions *obs.Counter
	flushed   *obs.Counter
	merges    *obs.Counter
	appends   *obs.Counter
	keys      *obs.Counter
}

// dpObs is one datapath's mirror set.
type dpObs struct {
	packets    *obs.Counter // stripe 0: feeder-owned
	blockRecs  *obs.Counter // per shard: records the block loop has applied
	stagedRecs *obs.Counter // per shard: of those, records that came through the staging copy
	progs      []progObs

	// pool mirrors the datapath's lazily-started worker pool for the
	// scrape-time occupancy gauge (the scraper must not read d.pool,
	// which is feeder-owned).
	pool atomic.Pointer[shard.Pool]
}

// newDpObs builds the mirrors and registers every family under labels
// (e.g. `switch="leaf0"`; empty for the single-switch datapath).
func newDpObs(reg *obs.Registry, labels string, nShards, nProgs int) *dpObs {
	o := &dpObs{
		packets:    obs.NewCounter(1),
		blockRecs:  obs.NewCounter(nShards),
		stagedRecs: obs.NewCounter(nShards),
		progs:      make([]progObs, nProgs),
	}
	reg.CounterVal("perfq_packets_total",
		"Records processed by the datapath", labels, o.packets)
	reg.CounterVal("perfq_path_block_records_total",
		"Records applied by the block loop, once per owning shard (equals perfq_packets_total after a Sync while every program shares one GROUPBY key)", labels, o.blockRecs)
	reg.CounterVal("perfq_path_staged_records_total",
		"Records that reached the block loop through a shard's staging copy (block - staged = run in place by Feed)", labels, o.stagedRecs)
	for p := range o.progs {
		po := &o.progs[p]
		pl := obs.JoinLabels(labels, `prog="`+strconv.Itoa(p)+`"`)
		po.accesses = obs.NewCounter(nShards)
		po.hits = obs.NewCounter(nShards)
		po.inserts = obs.NewCounter(nShards)
		po.evictions = obs.NewCounter(nShards)
		po.flushed = obs.NewCounter(nShards)
		po.merges = obs.NewCounter(nShards)
		po.appends = obs.NewCounter(nShards)
		po.keys = obs.NewCounter(nShards)
		reg.CounterVal("perfq_cache_accesses_total",
			"Key-value store lookups", pl, po.accesses)
		reg.CounterVal("perfq_cache_hits_total",
			"Key-value store hits", pl, po.hits)
		reg.CounterVal("perfq_cache_inserts_total",
			"Key-value store inserts", pl, po.inserts)
		reg.CounterVal("perfq_cache_evictions_total",
			"Capacity evictions into the backing store", pl, po.evictions)
		reg.CounterVal("perfq_cache_flushed_total",
			"Entries flushed at window close", pl, po.flushed)
		reg.CounterVal("perfq_store_merges_total",
			"Backing-store exact merges", pl, po.merges)
		reg.CounterVal("perfq_store_appends_total",
			"Backing-store epoch appends (rollovers of non-mergeable folds)", pl, po.appends)
		keys := po.keys
		reg.Gauge("perfq_store_keys",
			"Keys resident in the backing store", pl,
			func() float64 { return float64(keys.Value()) })
	}
	return o
}

// publishShard mirrors shard s's plain counters into the atomic cells.
// It must run on the goroutine that owns shard s (its ring worker, or
// the feeder on the serial paths / after a barrier).
func (d *Datapath) publishShard(s int) {
	o := d.obs
	if o == nil {
		return
	}
	sh := d.shards[s]
	o.blockRecs.Store(s, sh.nBlockRecs)
	o.stagedRecs.Store(s, sh.nStagedRecs)
	for pi, ps := range sh.progs {
		po := &o.progs[pi]
		cs := ps.cache.Stats()
		po.accesses.Store(s, cs.Accesses)
		po.hits.Store(s, cs.Hits)
		po.inserts.Store(s, cs.Inserts)
		po.evictions.Store(s, cs.Evictions)
		po.flushed.Store(s, cs.Flushed)
		ss := ps.store.Stats()
		po.merges.Store(s, ss.Merges)
		po.appends.Store(s, ss.Appends)
		po.keys.Store(s, uint64(ss.Keys))
	}
}

// publishPackets mirrors the feeder-owned packet count.
func (d *Datapath) publishPackets() {
	if d.obs != nil {
		d.obs.packets.Store(0, d.packets)
	}
}

// PublishMetrics mirrors every plain counter — packets plus all shard
// state. Callers must own the whole datapath: either no worker pool is
// running (the fabric's per-switch pump, the serial paths) or a Sync
// barrier has just completed.
func (d *Datapath) PublishMetrics() {
	if d.obs == nil {
		return
	}
	d.publishPackets()
	for s := range d.shards {
		d.publishShard(s)
	}
}
