// Package switchsim models the switch side of the co-design: a
// programmable parser feeding a match-action pipeline whose stateful
// stage is the programmable key-value store of §3.
//
// For every compiled SwitchProgram the datapath instantiates an on-chip
// cache (internal/kvstore) wired to a backing store (internal/backing);
// WHERE predicates execute as the match part of a match-action entry,
// GROUPBY key extraction as the action, and one initialize-or-update per
// packet as the stateful ALU operation. Plain SELECT stages over T are
// realized the way real switches do it — match and mirror matching
// records to the collector.
//
// The datapath is one engine partitioned two levels deep. An optional
// partition (Config.Partition — the fabric's record → switch map) splits
// the stream into K independent stores-per-program, the way the paper
// puts one key-value store on every switch; within a partition records
// are hash-partitioned by each program's GROUPBY key across N shards
// (Config.Shards, internal/shard). The K·N shard states form one flat
// array fed by one feeder, each owning an independent cache + backing
// store per program; shards of one partition hold disjoint keys, and keys
// two partitions both hold are reduced at materialization (reconcile.go).
// The configured cache geometry is divided across partitions, then
// shards, so total on-chip capacity stays at the configured operating
// point regardless of the layout.
//
// The simulation operates on trace.Records rather than raw bytes (the
// parser stage is exercised by internal/packet); timing is not modeled
// beyond the one-update-per-packet constraint, which matches the paper's
// own evaluation methodology.
package switchsim

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"perfq/internal/backing"
	"perfq/internal/compiler"
	"perfq/internal/exec"
	"perfq/internal/fold"
	"perfq/internal/kvstore"
	"perfq/internal/obs"
	"perfq/internal/packet"
	"perfq/internal/shard"
	"perfq/internal/trace"
)

// Partition describes the routing level above the key hash: a deployment
// that runs the plan on several independent sets of stores (the fabric:
// one per switch) hands the datapath the map from a record to its set.
// It is wiring, built by fabric.New from the topology — not a knob.
type Partition struct {
	// Labels holds one metric label fragment per partition
	// (`switch="leaf0"`); its length is the partition count.
	Labels []string
	// Of maps a record to its partition index, or -1 for a record no
	// partition owns (counted by Unrouted, applied nowhere).
	Of func(*trace.Record) int
	// Merge returns how a group stage's states for one key held by two
	// partitions combine (dst ← dst ⊕ src, partitions in index order), or
	// nil when no sound merge exists — such a key is dropped from the
	// tables and counted invalid (see Reconcile).
	Merge func(st *compiler.Stage) func(dst, src []float64)
}

// Config configures the datapath.
type Config struct {
	// Geometry is the cache layout used for every switch program: the
	// TOTAL layout, divided evenly across partitions and then across each
	// partition's shards. The zero value defaults to the paper's
	// preferred point: an 8-way set-associative cache sized 2^18 pairs
	// (32 Mbit at 128 bits/pair).
	Geometry kvstore.Geometry
	// DisableExactMerge turns off the linear-in-state merge machinery
	// even for linear folds (evictions then degrade to epoch semantics) —
	// the ablation knob for the paper's central mechanism.
	DisableExactMerge bool
	// OnEvictBatch, when set, observes every eviction batch of every
	// program, once, after the program's backing store has consumed it. A
	// key's evictions arrive in the order they happened; the order across
	// keys, programs and shards is unspecified. With more than one shard
	// batches come from concurrent workers, and with more than one program
	// from concurrent program sets; the datapath serializes the callbacks
	// with an internal mutex, taken once per batch. b is valid until the
	// callback returns.
	OnEvictBatch func(prog int, b *kvstore.EvictBatch)
	// OnEvict is its per-eviction form: New walks each batch's lanes into
	// it, after OnEvictBatch when both are set.
	OnEvict func(prog int, ev *kvstore.Eviction)
	// Shards is the number of parallel shards per partition; values < 2
	// give each partition a single owner.
	Shards int
	// Partition, when non-nil, partitions the datapath above the key
	// hash (see Partition).
	Partition *Partition
	// Metrics, when non-nil, registers this datapath's metric families
	// (packets, path mix, per-program cache/store counters, transport)
	// into the registry, one series per partition under its label. The
	// hot loop is untouched: plain counters are mirrored into atomic
	// cells at batch boundaries (see metrics.go).
	Metrics *obs.Registry
	// Trace, when non-nil, enables sampled packet tracing: the shard
	// router marks 1-in-2^k records by key hash and the marked records
	// carry a span through transport → cache → eviction (see obs.Tracer).
	// The unsampled hot path pays one AND+compare per key group, against
	// hashes it computes anyway.
	Trace *obs.Tracer
	// Journal, when non-nil, receives control-plane events (barrier
	// syncs). The packet path never touches it.
	Journal *obs.Journal
}

// progState is one physical key-value store instance, owned by exactly
// one shard.
type progState struct {
	sp    *compiler.SwitchProgram
	cache kvstore.Cache
	store *backing.Store
	// keyVals records component values for digest-mode keys (hardware
	// would use wider key SRAM; see DESIGN.md).
	keyVals map[packet.Key128][]float64
	exact   bool
	// batchLanes, when metrics are on, is the program's histogram of
	// lanes per delivered eviction batch (see metrics.go).
	batchLanes *obs.Hist
}

// shardState is the per-shard slice of datapath state: one store
// instance per switch program, the mirrored rows of select-over-T stages
// this shard was assigned (selRows[i] parallels selStgs) and the reused
// scratch that keeps the block loop allocation-free.
type shardState struct {
	progs   []*progState
	selStgs []*compiler.Stage // the datapath's select-over-T stages, shared
	selRows [][][]float64
	scratch shardScratch
	all     *progSet // the one set of every program its serial paths run

	// Plain path-mix counter, owned by the shard's processing goroutine (a
	// program set's lead) and mirrored by publishShard at batch boundaries.
	nBlockRecs uint64 // records the block loop has applied
}

// Datapath executes a plan's switch-resident stages.
type Datapath struct {
	plan *compiler.Plan
	hot  *hotPath
	// shards is the flat, partition-major state array: partition p owns
	// shards[p*per : (p+1)*per]. A view (Partition) holds its partition's
	// slice of the same states.
	shards  []*shardState
	per     int               // shards per partition
	srcs    []StateSource     // shards, as Reconcile's sources
	selStgs []*compiler.Stage // select-over-T stages, in plan order
	part    *Partition        // nil: one partition that owns every record
	partGeo kvstore.Geometry  // one partition's cache slice
	views   []*Datapath       // per-partition read views (partitioned only)

	// stages holds each block holder's stateless stage (shard.Block.Holder):
	// one per shard's ring worker and the feeder's last, or the feeder's
	// alone when nothing is routed — then the stage of in-place runs and
	// of program set 0 (the other sets hold their own).
	stages []*stage
	sets   []*progSet // the last in-place run's program sets (programSets)

	// pool is the block router: inline (blocks run on the feeder) until
	// Feed starts its ring workers, and again after EndFeed. nil: one
	// shard, no partition — nothing to route, blocks run in place.
	pool *shard.Pool
	// pkts counts records routed, per partition (feeder-owned): the
	// pool's own counters when there is one.
	pkts []uint64

	// pend is Process's pending block — the record-at-a-time entry stages
	// here on the feeder and the block takes Feed's path when it fills —
	// and staged counts, per partition, the records that came that way.
	pend    []trace.Record
	staged  []uint64
	pktsWas []uint64 // flushPending's scratch: pkts before the block went

	accBuf []Acc  // CloseWindow's reused accuracy snapshot (borrowed by callers)
	tscr   Gather // Tables' reused materialization scratch
	// A partitioned datapath's tables and accuracy come out of one
	// reconcile pass, memoized until the stores next change (Flush,
	// ResetWindow): CloseWindow → Collect → Accuracy read it once.
	netTabs map[string]*exec.Table
	netAcc  []Acc

	obs     *dpObs       // atomic mirrors for the metrics registry (nil = off)
	journal *obs.Journal // control-plane event journal (nil = off)
}

// newShardState builds one shard's stores for the plan. shardIdx is the
// shard's flat position, used as the tracer's span-ring writer stripe.
func newShardState(d *Datapath, geo kvstore.Geometry, cfg Config, shardIdx int, evictMu *sync.Mutex) (*shardState, error) {
	sh := &shardState{selStgs: d.selStgs, selRows: make([][][]float64, len(d.selStgs))}
	sh.scratch.own = make([]uint64, len(d.hot.progs)+1)
	sh.all = newProgSet(d.hot, 0, len(d.hot.progs), true, nil, &sh.scratch)
	for i, sp := range d.plan.Programs {
		ps := &progState{
			sp:    sp,
			store: backing.New(sp.Fold),
			exact: sp.Fold.Merge == fold.MergeLinear && !cfg.DisableExactMerge,
		}
		if !sp.Key.Packed {
			ps.keyVals = map[packet.Key128][]float64{}
		}
		idx := i
		cache, err := kvstore.New(kvstore.Config{
			Geometry:   geo,
			Fold:       sp.Fold,
			ExactMerge: ps.exact,
			OnEvictBatch: func(b *kvstore.EvictBatch) {
				if b.Reason == kvstore.EvictFlush {
					ps.store.HandleFlush(b)
				} else {
					ps.store.HandleBatch(b)
				}
				if ps.batchLanes != nil {
					ps.batchLanes.Record(uint64(b.N))
				}
				if cfg.OnEvictBatch == nil {
					return
				}
				evictMu.Lock()
				defer evictMu.Unlock() // an observer's panic must not hold up the other program sets
				cfg.OnEvictBatch(idx, b)
			},
			Trace:       cfg.Trace,
			TraceSpan:   &sh.scratch.spanSlot,
			TraceWriter: shardIdx,
		})
		if err != nil {
			return nil, fmt.Errorf("switchsim: program %d: %w", i, err)
		}
		ps.cache = cache
		sh.progs = append(sh.progs, ps)
	}
	return sh, nil
}

// New builds a datapath for the plan.
func New(plan *compiler.Plan, cfg Config) (*Datapath, error) {
	if cfg.Geometry == (kvstore.Geometry{}) {
		cfg.Geometry = kvstore.SetAssociative(1<<18, 8)
	}
	n := max(cfg.Shards, 1)
	// The routing mask carries one bit per program plus one for the
	// select-over-T stages; plans are far below the 64-target ceiling,
	// but degrade safely rather than corrupt masks (a partition's single
	// shard ignores masks entirely, so any program count works at n = 1).
	if len(plan.Programs)+1 > shard.MaxTargets {
		n = 1
	}
	k, labels := 1, []string{""}
	if cfg.Partition != nil {
		k, labels = len(cfg.Partition.Labels), cfg.Partition.Labels
	}
	d := &Datapath{
		plan: plan, per: n, part: cfg.Partition,
		partGeo: cfg.Geometry.Split(k),
		journal: cfg.Journal,
	}
	for _, st := range plan.Stages {
		if st.Kind == compiler.KindSelect && st.Input == nil {
			d.selStgs = append(d.selStgs, st)
		}
	}
	var err error
	if d.hot, err = newHotPath(plan, d.selStgs, !cfg.DisableExactMerge); err != nil {
		return nil, err
	}

	if onLane, onBatch := cfg.OnEvict, cfg.OnEvictBatch; onLane != nil {
		ev := new(kvstore.Eviction) // one view: the callbacks never overlap
		cfg.OnEvictBatch = func(prog int, b *kvstore.EvictBatch) {
			if onBatch != nil {
				onBatch(prog, b)
			}
			for l := 0; l < b.N; l++ {
				b.Lane(l, ev)
				onLane(prog, ev)
			}
		}
	}
	geo := d.partGeo.Split(n)
	evictMu := new(sync.Mutex) // shared by every shard and program
	for s := 0; s < k*n; s++ {
		sh, err := newShardState(d, geo, cfg, s, evictMu)
		if err != nil {
			return nil, err
		}
		d.shards = append(d.shards, sh)
		d.srcs = append(d.srcs, sh)
	}

	routing := d.hot.routing(n)
	if d.part != nil {
		routing.Partition = shard.Partition{N: k, Of: d.part.Of}
	}
	if cfg.Trace != nil {
		routing.Trace = cfg.Trace
		routing.SpanSlots = make([]*obs.SpanSlot, len(d.shards))
		for s, sh := range d.shards {
			routing.SpanSlots[s] = &sh.scratch.spanSlot
		}
	}
	if cfg.Metrics != nil {
		for range labels {
			routing.Obs = append(routing.Obs, obs.NewTransportMetrics(n))
		}
		routing.AfterBatch = d.publishShard
		d.staged, d.pktsWas = make([]uint64, k), make([]uint64, k)
	}
	d.stages = []*stage{newStage(d.hot)}
	if len(d.shards) > 1 || d.part != nil {
		d.pool = shard.NewInline(routing, d.runBlock)
		d.pkts = d.pool.Routed()
		for range d.shards {
			d.stages = append(d.stages, newStage(d.hot))
		}
	} else {
		d.pkts = make([]uint64, 1)
	}
	if d.pool == nil {
		d.shards[0].all.st = d.stages[0] // in-place runs: the feeder's
	}
	if cfg.Metrics != nil {
		// After the pool: the occupancy gauges read it at scrape time.
		d.obs = newDpObs(d, cfg.Metrics, labels, routing.Obs)
	}
	for p := 0; p < k && d.part != nil; p++ {
		d.views = append(d.views, &Datapath{
			plan: plan, per: n, selStgs: d.selStgs,
			shards: d.shards[p*n : (p+1)*n], srcs: d.srcs[p*n : (p+1)*n],
			pkts: d.pkts[p : p+1],
		})
	}
	return d, nil
}

// Partition returns a read view of partition p: a datapath over that
// partition's slice of the shard states, on which Tables, Collect,
// Stats, StoreStats, Accuracy and Packets report the partition alone
// (the fabric's per-switch drill-down). A view shares its states with
// the datapath that owns them: read it when the owner may be read (after
// Sync or Flush), and feed records only to the owner.
func (d *Datapath) Partition(p int) *Datapath { return d.views[p] }

// PartitionGeometry returns the cache slice each partition actually
// received — the configured total after Split, which rounds bucket
// counts down to a power of two.
func (d *Datapath) PartitionGeometry() kvstore.Geometry { return d.partGeo }

// Packets returns how many records the datapath has routed to a shard —
// what Process still holds pending is counted when its block goes (the
// next Feed, Sync or Flush).
func (d *Datapath) Packets() uint64 {
	var n uint64
	for _, p := range d.pkts {
		n += p
	}
	return n
}

// StageBlocks returns how many blocks the stateless stage has prepared:
// one per routed block, however many shards applied lanes of it.
func (d *Datapath) StageBlocks() uint64 {
	var n uint64
	for _, st := range d.stages {
		n += st.prepared
	}
	return n
}

// Unrouted returns how many records no partition owned (skipped; for the
// fabric, a trace/topology mismatch). Always zero without a Partition.
func (d *Datapath) Unrouted() uint64 {
	if d.pool == nil {
		return 0
	}
	return d.pool.Unrouted()
}

// Process applies one packet observation to every switch-resident stage
// — the record-at-a-time entry; anything holding a run of records should
// Feed it. The record is copied into the feeder's pending block, which
// takes the path a fed run takes (in place on one shard; through the
// router otherwise — into the worker pool when one is running, else
// inline with the same routing) when it fills: its effect is visible
// after Sync or Flush, not necessarily on return.
func (d *Datapath) Process(rec *trace.Record) {
	if d.pend == nil {
		d.pend = make([]trace.Record, 0, fold.BlockSize)
	}
	if d.pend = append(d.pend, *rec); len(d.pend) == cap(d.pend) {
		d.flushPending()
	}
}

// flushPending sends Process's pending block down Feed's path, counting
// its records as staged under the partitions that took them.
func (d *Datapath) flushPending() {
	n := len(d.pend)
	if n == 0 {
		return
	}
	d.pend = d.pend[:0]
	if d.staged == nil {
		d.route(d.pend[:n])
		return
	}
	copy(d.pktsWas, d.pkts)
	d.route(d.pend[:n])
	for p, was := range d.pktsWas {
		d.staged[p] += d.pkts[p] - was
	}
}

// route applies a run of records: through the block router when there is
// one, else on the single shard in place (as program sets, programSets).
func (d *Datapath) route(recs []trace.Record) {
	if d.pool != nil {
		d.pool.FeedRun(recs)
		return
	}
	d.pkts[0] += uint64(len(recs))
	if sets := d.programSets(len(recs)); sets != nil {
		d.runSets(recs, sets)
	} else {
		d.shards[0].processBlocks(d, recs, d.shards[0].all)
	}
}

// setsMinRun is the shortest in-place run split into program sets: below
// it a second core gains too little over the goroutine hand-off
// (BenchmarkProgramSets, EXPERIMENTS.md "Program sets").
const setsMinRun = 4096

// programSets returns the sets a single-shard in-place run of n records
// is split into (nil: one set, on the feeder): with two or more programs,
// GOMAXPROCS ≥ 2 and n ≥ setsMinRun, min(programs, GOMAXPROCS) sets,
// programs dealt in plan order, set 0 the lead. The first split is
// journaled.
func (d *Datapath) programSets(n int) []*progSet {
	hp := d.hot
	k := min(len(hp.progs), runtime.GOMAXPROCS(0))
	if k < 2 || n < setsMinRun {
		return nil
	} else if len(d.sets) == k {
		return d.sets
	}
	if d.sets == nil {
		d.journal.Append(obs.EvProgramSets, int64(k), int64(len(hp.progs)), "in-place")
	}
	d.sets = make([]*progSet, k)
	for i := range d.sets {
		st, sc := d.stages[0], &d.shards[0].scratch // the lead's: the feeder's
		if i > 0 {
			st, sc = newStage(hp), &shardScratch{own: make([]uint64, len(hp.progs)+1)}
		}
		d.sets[i] = newProgSet(hp, i*len(hp.progs)/k, (i+1)*len(hp.progs)/k, i == 0, st, sc)
	}
	return d.sets
}

// runSets has every set apply its programs to every record of a run in
// arrival order, as the serial path does: set 0 on the caller's goroutine,
// each other on its own, all joined before a panic in any is re-panicked.
func (d *Datapath) runSets(recs []trace.Record, sets []*progSet) {
	var wg sync.WaitGroup
	run := func(set *progSet) {
		defer func() { set.panicked = recover() }()
		d.shards[0].processBlocks(d, recs, set)
	}
	for _, set := range sets[1:] {
		wg.Add(1)
		go func(set *progSet) {
			defer wg.Done()
			run(set)
		}(set)
	}
	run(sets[0])
	wg.Wait()
	for _, set := range sets {
		if set.panicked != nil {
			panic(set.panicked)
		}
	}
}

// runBlock is the pool's BlockFunc: shard s applies a block routed to it
// — a ring slot's lanes on its worker, or the feeder's own block inline.
func (d *Datapath) runBlock(s int, b *shard.Block) {
	d.shards[s].processBlock(d, b, d.shards[s].all)
}

// serialFeed reports whether a multi-shard stream should skip the worker
// pool and apply records inline through the router: with no second
// processor the pool hop is pure overhead, and the inline path is
// bit-identical (same routing masks, same per-shard arrival order). Only
// consulted while no pool is running: a live pool keeps the stream on it,
// so a mid-stream GOMAXPROCS change cannot split one window across the
// two paths.
func serialFeed() bool { return runtime.GOMAXPROCS(0) < 2 }

// Run streams a whole source through Feed and flushes — so a slice, a
// pqt file and a live source all take the path Feed picks: blocks of the
// slice in place on one shard, the block router's worker pool (or the
// same router inline at GOMAXPROCS=1) on several. A source error is
// returned verbatim once every record read before it has been applied;
// the caches are then left unflushed.
func (d *Datapath) Run(src trace.Source) error {
	err := trace.EachBatch(src, func(recs []trace.Record) error {
		d.Feed(recs)
		return nil
	})
	d.EndFeed()
	if err != nil {
		return err
	}
	d.Flush()
	return nil
}

// Flush applies what Process has pending and evicts all cache-resident
// entries into the backing stores (end of a measurement window, or the
// paper's periodic refresh). Flushed keys a store has never seen are held
// back beside it (backing.Store.HandleFlush) and a tumbling close's
// ResetWindow drops them unindexed; so each store first settles what its
// previous flush held back, since a key re-inserted and re-flushed with
// only cache hits in between reaches the store by no other path. It
// requires sole ownership of the caches: callers with a live pool Sync
// first.
func (d *Datapath) Flush() {
	d.flushPending()
	for _, sh := range d.shards {
		for _, ps := range sh.progs {
			ps.store.Settle()
			ps.cache.Flush()
		}
	}
	d.netTabs, d.netAcc = nil, nil
	d.PublishMetrics()
}

// Feed processes a run of records without ending the window — the
// streaming half of the epoch runtime. A single unpartitioned shard runs
// the slice through the block loop in place, behind anything Process has
// pending — a long run of a plan with several programs as program sets,
// one per core, all finished before Feed returns (programSets). With
// several shards (and a second processor to run workers
// on) the router's worker pool — one worker per shard of every partition
// — is started lazily and the run is routed into its ring slots a block
// at a time; call Sync to barrier at a window boundary and EndFeed when
// the stream ends. Feed copies what it retains before returning, so
// callers may reuse recs.
func (d *Datapath) Feed(recs []trace.Record) {
	if len(recs) == 0 {
		return
	}
	d.flushPending()
	if d.pool != nil && !d.pool.Running() && len(d.shards) > 1 && !serialFeed() {
		d.pool.Start()
	}
	d.route(recs)
	d.publishPackets()
}

// Sync blocks until every record handed to Feed or Process has been
// applied to its shard's stores — the epoch-boundary alignment: Process's
// pending block takes its path, then a barrier through the worker pool
// when one is running. A single feeder preserves per-shard arrival
// order, so state trajectories do not depend on the path taken.
func (d *Datapath) Sync() {
	d.flushPending()
	if d.pool != nil && d.pool.Running() {
		d.pool.Barrier()
		d.journal.Append(obs.EvBarrier, int64(d.pool.Fed()), int64(len(d.shards)), "shard-pool")
	}
	// Past the barrier the feeder owns every shard (happens-before via
	// the barrier WaitGroup) — the consistency point the scrape tests pin.
	d.PublishMetrics()
}

// EndFeed stops the streaming worker pool (idempotent; a later Feed
// restarts it). Outstanding records are applied first.
func (d *Datapath) EndFeed() {
	d.flushPending()
	if d.pool != nil {
		d.pool.Close()
	}
	d.PublishMetrics()
}

// Acc is a per-program accuracy snapshot at a window close. Valid/Total
// count every key since the store's last reset — the accuracy of the
// window's materialized tables (whole-run, under carry-over boundaries).
// WinValid/WinTotal count only the keys touched since the previous
// boundary — the per-window stability metric of carry-over windows,
// where a non-mergeable key that survives a boundary is window-invalid.
// Under tumbling boundaries the two scopes coincide (the store is reset
// at every close, so every key present was touched this window).
type Acc struct {
	Valid, Total       int
	WinValid, WinTotal int
}

// CloseWindow ends the current measurement window: it syncs outstanding
// fed records (epoch boundaries are aligned in record order across every
// shard of every partition), flushes every cache into its backing store,
// materializes every plan table (downstream collector stages included),
// snapshots per-program accuracy, and then either resets every store for
// an independent next window (carry == false, tumbling) or carries all
// backing state across the boundary (carry == true — the paper's
// periodic SRAM refresh, where linear folds keep merging exactly because
// each new cache epoch snapshots its own first packet, and non-mergeable
// folds accumulate one epoch per boundary crossing).
//
// The returned []Acc is borrowed from the datapath and valid only until
// the next CloseWindow; callers that retain snapshots across closes must
// copy (the window scheduler does). With metrics attached, each phase's
// wall time is one observation of its perfq_window_close_phase_ns series:
// one clock read per phase, and one to start.
func (d *Datapath) CloseWindow(carry bool) (map[string]*exec.Table, []Acc, error) {
	var t time.Time
	lap := func(int) {}
	if o := d.obs; o != nil {
		t, lap = time.Now(), func(i int) { now := time.Now(); o.closePhase[i].Record(uint64(now.Sub(t))); t = now }
	}
	d.Sync()
	lap(0)
	d.Flush()
	lap(1)
	tabs := d.Tables()
	lap(2)
	tables, err := d.collect(tabs)
	lap(3)
	if err != nil {
		return nil, nil, err
	}
	if cap(d.accBuf) < len(d.plan.Programs) {
		d.accBuf = make([]Acc, len(d.plan.Programs))
	}
	acc := d.accBuf[:len(d.plan.Programs)]
	for i := range acc {
		acc[i].Valid, acc[i].Total = d.Accuracy(i)
		acc[i].WinValid, acc[i].WinTotal = d.WindowAccuracy(i)
	}
	if carry {
		d.BeginWindow()
	} else {
		d.ResetWindow()
	}
	// Re-publish after the boundary so the store-keys gauge reflects
	// the reset rather than the pre-close state until the next batch.
	d.PublishMetrics()
	lap(4)
	return tables, acc, nil
}

// BeginWindow restarts the window-scoped accuracy accounting of every
// backing store without touching state — the carry-over boundary.
func (d *Datapath) BeginWindow() {
	for _, sh := range d.shards {
		for _, ps := range sh.progs {
			ps.store.BeginWindow()
		}
	}
}

// ResetWindow drops all per-window state — backing stores, digest-key
// component values, mirrored select rows — so the next window starts
// from a clean slate (caches must already be empty; call Flush first).
// Rows previously materialized into tables stay valid: they were copied
// (group stages) or their slab chunks stay reachable through the emitted
// tables (select stages) until the caller drops them.
func (d *Datapath) ResetWindow() {
	for _, sh := range d.shards {
		for _, ps := range sh.progs {
			ps.store.Reset()
			if ps.keyVals != nil {
				clear(ps.keyVals)
			}
		}
		for i := range sh.selRows {
			sh.selRows[i] = sh.selRows[i][:0]
		}
	}
	d.netTabs, d.netAcc = nil, nil
}

// Tables materializes every switch-resident stage's result from the
// backing stores (call Flush first) — one Reconcile over the shard
// states. Shards of one partition never share a key, so without a
// Partition that is a concatenation and the deterministic total-order
// sort; across partitions equal keys are reduced by Partition.Merge, in
// partition order. For programs whose fold is not mergeable, only valid
// (single-epoch) keys appear — the accuracy semantics of §3.2.
func (d *Datapath) Tables() map[string]*exec.Table {
	if d.part == nil {
		tabs, _ := reconcile(d.plan, d.srcs, nil, &d.tscr)
		return tabs
	}
	if d.netTabs == nil {
		t0 := time.Now()
		d.netTabs, d.netAcc = reconcile(d.plan, d.srcs, d.part.Merge, &d.tscr)
		if d.obs != nil {
			d.obs.mergeNs.Record(uint64(time.Since(t0)))
		}
	}
	return d.netTabs
}

// Collect runs the collector: downstream stages evaluated over the
// switch-materialized tables, returning every stage's table (Tables' own
// map, which callers only read, when every stage is switch-resident).
func (d *Datapath) Collect() (map[string]*exec.Table, error) { return d.collect(d.Tables()) }

// collect is Collect over the switch-materialized tables tabs.
func (d *Datapath) collect(tabs map[string]*exec.Table) (map[string]*exec.Table, error) {
	if len(tabs) == len(d.plan.Stages) {
		return tabs, nil
	}
	eng := exec.New(d.plan)
	for name, t := range tabs {
		eng.SetTable(name, t)
	}
	return eng.Finish()
}

// Stats reports per-program cache statistics, aggregated across shards.
func (d *Datapath) Stats() []kvstore.Stats {
	out := make([]kvstore.Stats, len(d.plan.Programs))
	for _, sh := range d.shards {
		for i, ps := range sh.progs {
			out[i] = out[i].Add(ps.cache.Stats())
		}
	}
	return out
}

// StoreStats reports per-program backing-store statistics, aggregated
// across shards.
func (d *Datapath) StoreStats() []backing.Stats {
	out := make([]backing.Stats, len(d.plan.Programs))
	for _, sh := range d.shards {
		for i, ps := range sh.progs {
			out[i] = out[i].Add(ps.store.Stats())
		}
	}
	return out
}

// Accuracy returns (valid, total) key counts for program i — Figure 6's
// metric for non-mergeable folds. Without a Partition the backing
// stores' own counts are summed over shards (keys are disjoint across
// shards, so the sums are exact). With one the counts come from the
// reconcile, summed over the program's members: a key is invalid if any
// partition's store holds an untrustworthy value for it, or if several
// partitions observed it under a fold with no sound merge across them —
// the spatial extension of the same metric.
func (d *Datapath) Accuracy(i int) (valid, total int) {
	if d.part != nil {
		d.Tables()
		return d.netAcc[i].Valid, d.netAcc[i].Total
	}
	for _, sh := range d.shards {
		v, t := sh.progs[i].store.Accuracy()
		valid += v
		total += t
	}
	return valid, total
}

// WindowAccuracy returns (valid, total) counts over the keys program i's
// backing stores were touched for since the last window boundary — the
// per-window stability metric of carry-over windows: a key of a
// non-mergeable fold that survives a boundary counts window-invalid even
// though each of its per-epoch values is correct over its own interval.
// Under tumbling windows this coincides with Accuracy. The counts are
// backing-store level, summed over every shard of every partition — the
// within-store temporal metric; the merge across partitions has no
// per-window notion of its own.
func (d *Datapath) WindowAccuracy(i int) (valid, total int) {
	for _, sh := range d.shards {
		v, t := sh.progs[i].store.WindowAccuracy()
		valid += v
		total += t
	}
	return valid, total
}
