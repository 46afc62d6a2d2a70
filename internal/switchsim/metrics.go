package switchsim

import (
	"strconv"

	"perfq/internal/obs"
)

// Datapath instrumentation. The hot loop keeps its existing plain
// (non-atomic) counters — d.pkts, d.staged, per-shard block counters,
// the kvstore/backing stat structs — and this file mirrors them into
// striped atomic cells at batch boundaries: every pubBlocks blocks of
// an in-place Feed (each program set its own programs), after every
// consumed ring slot on the sharded path (shard.Config.AfterBatch), and
// at every Feed/Sync/Flush/CloseWindow edge. The scraper reads only the
// mirrors, so enabling metrics adds zero work per record and the whole
// surface is clean under -race.

// pubBlocks is the mirror cadence of a single-shard Feed: one publish
// per 256 blocks ≈ one per 16k records.
const pubBlocks = 256

// progObs mirrors one program's cache + store counters, striped per
// shard of its partition. batch is the exception: written directly, by
// whichever shard's cache delivers a batch, once per batch — it is the
// number that says how many backing-index misses the store could overlap
// (lanes per batch near fold.BlockSize under eviction churn and at a
// flush, near 1 when the cache absorbs the stream).
type progObs struct {
	batch     obs.Hist
	accesses  *obs.Counter
	hits      *obs.Counter
	inserts   *obs.Counter
	evictions *obs.Counter
	flushed   *obs.Counter
	merges    *obs.Counter
	appends   *obs.Counter
	keys      *obs.Counter
}

// partObs is one partition's mirror set — the per-switch drill-down of
// a fabric, the whole datapath otherwise.
type partObs struct {
	packets    *obs.Counter // stripe 0: feeder-owned
	stagedRecs *obs.Counter // stripe 0: of those, records Process staged on the feeder
	blockRecs  *obs.Counter // per shard: records the block loop has applied
	progs      []progObs
}

// dpObs is one datapath's mirror set: a partObs per partition, plus
// what only a partitioned datapath has.
type dpObs struct {
	parts      []partObs
	unrouted   *obs.Counter // records no partition owned (feeder-owned)
	mergeNs    obs.Hist     // wall time of one cross-partition reconcile
	closePhase [len(closePhases)]obs.Hist
}

// closePhases labels CloseWindow's phases in order; tables is the
// gather, sort and row carve of every switch-resident table.
var closePhases = [...]string{"sync", "flush", "tables", "collector", "reset"}

// newDpObs builds the mirrors and registers every family, the
// partitions' transport sets included, one series per partition under
// its label (`switch="leaf0"`; a single empty label for the
// unpartitioned datapath).
func newDpObs(d *Datapath, reg *obs.Registry, labels []string, transport []*obs.TransportMetrics) *dpObs {
	o := &dpObs{parts: make([]partObs, len(labels)), unrouted: obs.NewCounter(1)}
	if d.part != nil {
		reg.CounterVal("perfq_fabric_unrouted_total",
			"Records whose switch ID is absent from the topology", "", o.unrouted)
		reg.HistVal("perfq_fabric_merge_ns",
			"Wall time of one network-wide collector reconciliation, nanoseconds", "", &o.mergeNs)
	}
	for i, phase := range closePhases {
		reg.HistVal("perfq_window_close_phase_ns",
			"Window close wall time by phase, nanoseconds", `phase="`+phase+`"`, &o.closePhase[i])
	}
	for p, label := range labels {
		part := p
		transport[p].Register(reg, label, func() int {
			if d.pool == nil {
				return 0
			}
			return d.pool.Occupancy(part)
		})
		po := &o.parts[p]
		*po = partObs{
			packets:    obs.NewCounter(1),
			stagedRecs: obs.NewCounter(1),
			blockRecs:  obs.NewCounter(d.per),
			progs:      make([]progObs, len(d.plan.Programs)),
		}
		reg.CounterVal("perfq_packets_total",
			"Records processed by the datapath", label, po.packets)
		reg.CounterVal("perfq_path_block_records_total",
			"Records applied by the block loop, once per owning shard (equals perfq_packets_total after a Sync while every program shares one GROUPBY key)", label, po.blockRecs)
		reg.CounterVal("perfq_path_staged_records_total",
			"Records Process copied into the feeder's pending block (packets - staged = fed as runs: applied in place, or on ring slots in place)", label, po.stagedRecs)
		for i := range po.progs {
			c := &po.progs[i]
			pl := obs.JoinLabels(label, `prog="`+strconv.Itoa(i)+`"`)
			counter := func(name, help string) *obs.Counter {
				v := obs.NewCounter(d.per)
				reg.CounterVal(name, help, pl, v)
				return v
			}
			c.accesses = counter("perfq_cache_accesses_total", "Key-value store lookups")
			c.hits = counter("perfq_cache_hits_total", "Key-value store hits")
			c.inserts = counter("perfq_cache_inserts_total", "Key-value store inserts")
			c.evictions = counter("perfq_cache_evictions_total", "Capacity evictions into the backing store")
			c.flushed = counter("perfq_cache_flushed_total", "Entries flushed at window close")
			c.merges = counter("perfq_store_merges_total", "Backing-store exact merges")
			c.appends = counter("perfq_store_appends_total", "Backing-store epoch appends (rollovers of non-mergeable folds)")
			keys := obs.NewCounter(d.per)
			c.keys = keys
			reg.Gauge("perfq_store_keys",
				"Keys resident in the backing store, the flushed keys it holds back unindexed included", pl,
				func() float64 { return float64(keys.Value()) })
			reg.HistVal("perfq_backing_batch_evictions",
				"Evictions per batch handed from a cache to its backing store", pl, &c.batch)
			for _, sh := range d.shards[p*d.per : (p+1)*d.per] {
				sh.progs[i].batchLanes = &c.batch
			}
		}
	}
	return o
}

// publishShard mirrors shard s's plain counters into its partition's
// atomic cells. It must run on the goroutine that owns shard s (its ring
// worker, or the feeder on the serial paths / after a barrier).
func (d *Datapath) publishShard(s int) { d.publishProgs(s, d.shards[s].all) }

// publishProgs mirrors what set writes of shard s — its programs' cache
// and store counters, the lead's block records — and reads nothing else.
func (d *Datapath) publishProgs(s int, set *progSet) {
	o := d.obs
	if o == nil {
		return
	}
	sh := d.shards[s]
	part, s := &o.parts[s/d.per], s%d.per
	if set.lead {
		part.blockRecs.Store(s, sh.nBlockRecs)
	}
	for pi := set.lo; pi < set.hi; pi++ {
		ps, po := sh.progs[pi], &part.progs[pi]
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

// publishPackets mirrors the feeder-owned record counts.
func (d *Datapath) publishPackets() {
	if d.obs == nil {
		return
	}
	for p, n := range d.pkts {
		d.obs.parts[p].packets.Store(0, n)
		d.obs.parts[p].stagedRecs.Store(0, d.staged[p])
	}
	d.obs.unrouted.Store(0, d.Unrouted())
}

// PublishMetrics mirrors every plain counter — packets plus all shard
// state. Callers must own the whole datapath: either no worker pool is
// running or a Sync barrier has just completed.
func (d *Datapath) PublishMetrics() {
	if d.obs == nil {
		return
	}
	d.publishPackets()
	for s := range d.shards {
		d.publishShard(s)
	}
}
