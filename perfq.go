// Package perfq is a performance-query system for network telemetry,
// reproducing "Hardware-Software Co-Design for Network Performance
// Measurement" (HotNets 2016): a declarative SQL-like language over
// per-packet, per-queue performance records, compiled onto a switch
// datapath built around a programmable key-value store — an on-chip cache
// merged exactly into an off-chip backing store for every aggregation
// that is linear in state.
//
// Quick start:
//
//	q, err := perfq.Compile(`
//	    def ewma(lat_est, (tin, tout)):
//	        lat_est = (1 - alpha) * lat_est + alpha * (tout - tin)
//	    const alpha = 0.125
//	    SELECT 5tuple, ewma GROUPBY 5tuple
//	`)
//	res, err := q.Run(perfq.WANTrace(1, 30*time.Second))
//	res.Table("_1").Format(os.Stdout, 10)
//
// The packages under internal/ implement the substrates: the fold VM and
// linear-in-state analysis, the cache geometries of Figure 4, the
// backing-store merge of §3.2, a queue-level network simulator that
// produces the record schema, and the experiment harness that regenerates
// the paper's figures (see DESIGN.md and EXPERIMENTS.md).
package perfq

import (
	"fmt"
	"io"
	"time"

	"perfq/internal/compiler"
	"perfq/internal/exec"
	"perfq/internal/fabric"
	"perfq/internal/fold"
	"perfq/internal/kvstore"
	"perfq/internal/lang"
	"perfq/internal/obs"
	"perfq/internal/switchsim"
	"perfq/internal/topo"
	"perfq/internal/trace"
	"perfq/internal/tracegen"
	"perfq/internal/window"
)

// Record is one packet observation at one queue — the row type of the
// abstract table T that queries range over.
type Record = trace.Record

// Source yields records in time order.
type Source = trace.Source

// Infinity is the tout value of dropped packets; the query literal
// "infinity" matches it.
const Infinity = trace.Infinity

// Query is a compiled query program.
type Query struct {
	plan *compiler.Plan
}

// Compile parses, checks and compiles a query program.
func Compile(src string) (*Query, error) {
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	chk, err := lang.Check(prog)
	if err != nil {
		return nil, err
	}
	plan, err := compiler.Compile(chk)
	if err != nil {
		return nil, err
	}
	return &Query{plan: plan}, nil
}

// MustCompile is Compile for known-good sources; it panics on error.
func MustCompile(src string) *Query {
	q, err := Compile(src)
	if err != nil {
		panic(fmt.Sprintf("perfq.MustCompile: %v", err))
	}
	return q
}

// Plan exposes the compiled plan (stage DAG, switch programs).
func (q *Query) Plan() *compiler.Plan { return q.plan }

// Results names the query's result stages (DAG sinks).
func (q *Query) Results() []string {
	out := make([]string, len(q.plan.Results))
	for i, st := range q.plan.Results {
		out[i] = st.Name
	}
	return out
}

// LinearInState reports whether every switch-resident aggregation is
// linear in state — the paper's condition for exact merging (Figure 2's
// last column, per query).
func (q *Query) LinearInState() bool {
	for _, sp := range q.plan.Programs {
		if sp.Fold.Merge != fold.MergeLinear {
			return false
		}
	}
	return true
}

// Describe prints a human-readable compilation report: stages, physical
// key-value stores after fusion, key layouts, fold programs, merge
// classes, cache entry size and, for linear folds, whether coefficients
// are computed per block ahead of the cache or per record in it, and why.
func (q *Query) Describe(w io.Writer) {
	fmt.Fprintf(w, "stages:\n")
	for _, st := range q.plan.Stages {
		loc := "collector"
		if st.OnSwitch {
			loc = "switch"
		}
		fmt.Fprintf(w, "  %-8s %-7s on %-9s columns=%v\n", st.Name, st.Kind, loc, st.Schema)
	}
	fmt.Fprintf(w, "switch key-value stores (%d):\n", len(q.plan.Programs))
	for i, sp := range q.plan.Programs {
		members := ""
		for j, m := range sp.Members {
			if j > 0 {
				members += "+"
			}
			members += m.Name
		}
		linear := sp.Fold.Merge == fold.MergeLinear
		fmt.Fprintf(w, "  store %d: members=%s %v state=%d words merge=%v slot=%d words",
			i, members, sp.Key, sp.Fold.StateLen(), sp.Fold.Merge, kvstore.SlotWords(sp.Fold, linear))
		if linear {
			path := "block"
			if ok, why := sp.Fold.Linear.BlockEvaluable(); !ok {
				path = "record (" + why + ")"
			}
			fmt.Fprintf(w, " coefficients=%s", path)
		}
		fmt.Fprintln(w)
		if sp.Fold.Merge == fold.MergeLinear && sp.Fold.Linear.NeedsFirstPacket {
			fmt.Fprintf(w, "           (history fold: entries snapshot their first packet for merging)\n")
		}
		fmt.Fprintf(w, "           fold: %v\n", sp.Fold.Prog)
	}
}

// runConfig collects everything the run options configure: the (per-
// switch) datapath template, the topology of a fabric deployment, and
// the window schedule of a continuous run.
type runConfig struct {
	sw      switchsim.Config
	topo    *topo.Topology
	win     *WindowSpec
	metrics *obs.Registry
	trace   *obs.Tracer
	journal *obs.Journal
	pool    *BackingPool
}

// wireMetrics threads an attached registry (and the trace sampler +
// flight recorder riding with it) into the layers the run will build
// (the datapath template) and registers the pool's families. Called
// once per run after the options are applied.
func (c *runConfig) wireMetrics() {
	c.sw.Trace = c.trace
	c.sw.Journal = c.journal
	if c.metrics == nil {
		return
	}
	c.sw.Metrics = c.metrics
	if c.pool != nil {
		c.pool.register(c.metrics)
	}
}

// RunOption configures Run.
type RunOption func(*runConfig)

// WithCache sets the on-chip cache geometry (pairs total, ways per
// bucket). ways = 0 selects fully associative; ways = 1 a plain hash
// table. The default is the paper's preferred point: 2^18 pairs, 8-way
// (32 Mbit at 128 bits per pair). Under WithFabric the pair count is the
// total budget for the whole network, divided evenly across switches.
func WithCache(pairs, ways int) RunOption {
	return func(c *runConfig) {
		switch {
		case ways <= 0:
			c.sw.Geometry = kvstore.FullyAssociative(pairs)
		case ways == 1:
			c.sw.Geometry = kvstore.HashTable(pairs)
		default:
			c.sw.Geometry = kvstore.SetAssociative(pairs, ways)
		}
	}
}

// WithoutExactMerge disables the linear-in-state merge machinery (the
// ablation of §3.2: evictions degrade to per-epoch values).
func WithoutExactMerge() RunOption {
	return func(c *runConfig) { c.sw.DisableExactMerge = true }
}

// WithFabric deploys the query network-wide: one independent switch
// datapath (its own cache slice and backing store) per switch of the
// topology, records demultiplexed to the owning switch by the switch
// half of their queue ID, and a collector that reconciles per-switch
// stores into network-wide tables — disjoint union when the GROUPBY
// includes the switch, exact state merge for commutative/associative
// folds, and epoch-in-space semantics otherwise (see internal/fabric).
// Per-switch views are available through Results.SwitchTable. The cache
// budget (WithCache, or the default) is split across switches so the
// fabric occupies the same silicon operating point as the single-switch
// baseline; WithShards applies inside each switch. GroundTruth honors
// the option too, demultiplexing its unbounded evaluation the same way.
func WithFabric(t *topo.Topology) RunOption {
	return func(c *runConfig) { c.topo = t }
}

// WithShards runs the datapath across n parallel shards: the record
// stream is hash-partitioned by each switch program's GROUPBY key, every
// shard owns an independent cache + backing store slice, and the
// per-shard tables (disjoint by construction) are merged
// deterministically. n <= 1 is the serial datapath — today's exact
// behavior. The configured cache geometry is the total across shards.
// For linear-in-state queries the merged output is byte-identical at any
// shard count (decay folds like EWMA agree to within last-bit rounding
// of the §3.2 merge reconstruction); non-mergeable folds keep their
// epoch semantics per shard, so accuracy varies with n the same way it
// varies with cache size. GroundTruth ignores the option: sharding never
// changes the answer it is the reference for.
func WithShards(n int) RunOption {
	return func(c *runConfig) { c.sw.Shards = n }
}

// WindowSpec configures the continuous windowed runtime (WithWindow):
// the record stream is sliced into measurement windows, every datapath
// flushes + materializes at each boundary, and results are delivered per
// window. Exactly one of Count/Interval must be positive.
type WindowSpec struct {
	// Count > 0 closes a window after every Count records.
	Count int64
	// Interval > 0 closes windows at virtual-time boundaries of the
	// record stream (Record.Tin), anchored at the first record.
	Interval time.Duration
	// Carry keeps backing-store state across boundaries, making windows
	// cumulative (the paper's periodic SRAM refresh: linear folds stay
	// exact, non-mergeable folds lose one epoch of accuracy per boundary
	// a key survives). The default is tumbling: every store resets, so
	// each window is an independent run over its own record slice.
	Carry bool
	// Keep bounds the ring of retained WindowResults on the Results of a
	// Run / Stream (<= 0 selects 16). Emitted callbacks see every window
	// regardless.
	Keep int
}

// WithWindow runs the query as a continuous stream of measurement
// windows instead of one run-to-completion epoch. With Run, the last K
// window results are retained (Results.Windows); Stream additionally
// delivers every window to a callback as it closes, with memory bounded
// by the ring regardless of stream length.
func WithWindow(spec WindowSpec) RunOption {
	return func(c *runConfig) { c.win = &spec }
}

// WithBackingPool mirrors the run's switch-resident evictions into a
// resilient pool of TCP backing stores (see Query.DialBackingPool): the
// scale-out, failure-tolerant deployment of §3.2's split key-value
// store. The datapath side is an encode into the owning backend's open
// chunk — a slow or dead backend costs accuracy
// (BackingPool.DroppedEvictions), never feed latency. Call pool.Sync
// after the run to settle the books. Composes with WithFabric and
// WithShards: callbacks may then fire from concurrent datapaths, and the
// pool is safe for that — it has no pool-wide lock, producers meet only
// at the owning backend's queue lock. What still serialises the shards
// of ONE datapath is that datapath's own OnEvict mutex
// (switchsim.Config.OnEvict's contract: observers never run
// concurrently), taken around every eviction callback when the datapath
// has more than one shard or more than one program (program sets);
// switches of a fabric do not share it.
func WithBackingPool(p *BackingPool) RunOption {
	return func(c *runConfig) {
		c.pool = p
		prev := c.sw.OnEvict
		c.sw.OnEvict = func(prog int, ev *kvstore.Eviction) {
			p.onEvict(prog, ev)
			if prev != nil {
				prev(prog, ev)
			}
		}
	}
}

// engine is what the facade drives: a deployed query that takes a record
// stream (whole, or window by window) and reports tables, cache
// statistics and accuracy. *switchsim.Datapath is the single-switch
// engine, *fabric.Fabric the network-wide one.
type engine interface {
	window.Runner
	Run(src trace.Source) error
	Collect() (map[string]*exec.Table, error)
	Stats() []kvstore.Stats
	Accuracy(i int) (valid, total int)
}

// deploy builds the engine the run options describe.
func (q *Query) deploy(cfg *runConfig) (engine, error) {
	if cfg.topo != nil {
		fab, err := fabric.New(q.plan, cfg.topo, fabric.Config{Switch: cfg.sw})
		if err != nil {
			return nil, err
		}
		return fab, nil
	}
	dp, err := switchsim.New(q.plan, cfg.sw)
	if err != nil {
		return nil, err
	}
	return dp, nil
}

// Run executes the query on the full co-designed datapath: switch-stage
// aggregations run through the cache + backing-store pipeline, downstream
// stages on the collector. It returns every stage's table.
func (q *Query) Run(src Source, opts ...RunOption) (*Results, error) {
	var cfg runConfig
	for _, o := range opts {
		o(&cfg)
	}
	cfg.wireMetrics()
	if cfg.win != nil {
		return q.stream(src, &cfg, nil)
	}
	eng, err := q.deploy(&cfg)
	if err != nil {
		return nil, err
	}
	if err := eng.Run(src); err != nil {
		return nil, err
	}
	tables, err := eng.Collect()
	if err != nil {
		return nil, err
	}
	r := &Results{q: q, tables: tables}
	r.setTotals(eng, eng.Accuracy)
	return r, nil
}

// setTotals fills the whole-run totals from the engine a run drove: the
// eviction and flush counts (cumulative across windows), the fabric
// handle behind the per-switch accessors, and the per-program accuracy
// list with its summed ValidKeys/TotalKeys headline, read through acc.
// Plans with no switch program, and runs with nothing to read accuracy
// from (acc == nil), report 1/1: nothing can be invalid.
func (r *Results) setTotals(eng engine, acc func(i int) (valid, total int)) {
	for _, s := range eng.Stats() {
		r.Evictions += s.Evictions
		r.Flushed += s.Flushed
	}
	r.fab, _ = eng.(*fabric.Fabric)
	n := len(r.q.plan.Programs)
	if n == 0 || acc == nil {
		r.ValidKeys, r.TotalKeys = 1, 1
		return
	}
	r.accs = make([]switchsim.Acc, n)
	for i := range r.accs {
		r.accs[i].Valid, r.accs[i].Total = acc(i)
		r.ValidKeys += r.accs[i].Valid
		r.TotalKeys += r.accs[i].Total
	}
}

// WindowResult is one closed measurement window of a windowed run: its
// tables, the records it covered, and its accuracy.
type WindowResult struct {
	// Index is the window's position in the schedule, from 0.
	Index int64
	// Records is how many records the window received (0 for the empty
	// windows a virtual-time gap produces).
	Records int64
	// Start/End bound the window in virtual trace time (Interval
	// schedules only; zero for count-based windows).
	Start, End time.Duration
	// Evictions counts capacity evictions during this window.
	Evictions uint64
	// ValidKeys/TotalKeys sum backing-store accuracy over every switch
	// store at the window close — the accuracy of this window's tables
	// (whole-run, under Carry, since carry-over tables are cumulative).
	ValidKeys, TotalKeys int
	// WindowValidKeys/WindowTotalKeys count only the keys touched since
	// the previous boundary — the per-window stability metric of
	// carry-over windows (a non-mergeable key that survives a boundary
	// counts window-invalid). Identical to ValidKeys/TotalKeys under
	// tumbling windows.
	WindowValidKeys, WindowTotalKeys int

	q      *Query
	tables map[string]*exec.Table
	accs   []switchsim.Acc
}

// Table returns a stage's table for this window by name (nil if absent).
func (w *WindowResult) Table(name string) *Table {
	t, ok := w.tables[name]
	if !ok {
		return nil
	}
	return &Table{Schema: t.Schema, Rows: t.Rows}
}

// Result returns the window's primary result (the query's last DAG sink).
func (w *WindowResult) Result() *Table {
	names := w.q.Results()
	if len(names) == 0 {
		return nil
	}
	return w.Table(names[len(names)-1])
}

// Accuracy returns program i's (valid, total) key counts for this
// window's tables (whole-run, under Carry).
func (w *WindowResult) Accuracy(i int) (valid, total int) {
	if i < 0 || i >= len(w.accs) {
		return 1, 1
	}
	return w.accs[i].Valid, w.accs[i].Total
}

// WindowAccuracy returns program i's (valid, total) counts over only the
// keys touched since the previous boundary — see WindowValidKeys.
func (w *WindowResult) WindowAccuracy(i int) (valid, total int) {
	if i < 0 || i >= len(w.accs) {
		return 1, 1
	}
	return w.accs[i].WinValid, w.accs[i].WinTotal
}

// Stream runs the query as a continuous windowed stream, invoking emit
// for every window as it closes — the deployment mode of a live
// measurement system: results arrive while the stream is still running,
// and memory stays bounded by the cache geometry, the backing stores'
// per-window key sets (tumbling), and the ring of Keep retained windows.
// WithWindow is required; WithCache, WithShards and WithFabric compose
// as with Run. An emit error aborts the stream and is returned. The
// returned Results carries the retained ring (Windows), the final
// window's tables, and whole-run totals.
func (q *Query) Stream(src Source, emit func(*WindowResult) error, opts ...RunOption) (*Results, error) {
	var cfg runConfig
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.win == nil {
		return nil, fmt.Errorf("perfq: Stream requires the WithWindow option")
	}
	cfg.wireMetrics()
	return q.stream(src, &cfg, emit)
}

// stream is the windowed runtime behind Run(WithWindow) and Stream.
func (q *Query) stream(src Source, cfg *runConfig, emit func(*WindowResult) error) (*Results, error) {
	if (cfg.win.Count > 0) == (cfg.win.Interval > 0) {
		return nil, fmt.Errorf("perfq: WindowSpec needs exactly one of Count and Interval > 0")
	}
	spec := window.Spec{
		Count:      cfg.win.Count,
		IntervalNs: cfg.win.Interval.Nanoseconds(),
		Carry:      cfg.win.Carry,
		Journal:    cfg.journal,
	}
	var wm *obs.WindowMetrics
	if cfg.metrics != nil {
		keep := cfg.win.Keep
		if keep <= 0 {
			keep = 16
		}
		wm = obs.NewWindowMetrics(keep)
		wm.Register(cfg.metrics, "")
		spec.Obs = wm
	}
	eng, err := q.deploy(cfg)
	if err != nil {
		return nil, err
	}
	evictions := func() uint64 {
		var n uint64
		for _, s := range eng.Stats() {
			n += s.Evictions
		}
		return n
	}

	res := &Results{q: q, windows: window.NewRing[*WindowResult](cfg.win.Keep)}
	var prevEv uint64
	var prevDropped int64
	_, err = window.Stream(src, spec, eng, func(wr *window.Result) error {
		ev := evictions()
		out := &WindowResult{
			Index:     wr.Index,
			Records:   wr.Records,
			Start:     time.Duration(wr.StartNs),
			End:       time.Duration(wr.EndNs),
			Evictions: ev - prevEv,
			q:         q,
			tables:    wr.Tables,
			accs:      wr.Acc,
		}
		prevEv = ev
		for _, a := range wr.Acc {
			out.ValidKeys += a.Valid
			out.TotalKeys += a.Total
			out.WindowValidKeys += a.WinValid
			out.WindowTotalKeys += a.WinTotal
		}
		if len(wr.Acc) == 0 {
			out.ValidKeys, out.TotalKeys = 1, 1
			out.WindowValidKeys, out.WindowTotalKeys = 1, 1
		}
		res.windows.Push(out)
		res.windowCount++
		if d := res.windows.Dropped(); d > prevDropped {
			cfg.journal.Append(obs.EvWindowDrop, d-prevDropped, out.Index, "")
			prevDropped = d
		}
		if wm != nil {
			frac := 1.0
			if out.WindowTotalKeys > 0 {
				frac = float64(out.WindowValidKeys) / float64(out.WindowTotalKeys)
			}
			wm.Stability.Push(frac)
			wm.Dropped.Store(0, uint64(res.windows.Dropped()))
		}
		if emit != nil {
			return emit(out)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if last, ok := res.windows.Last(); ok {
		// The stores may have been reset by the final close; the last
		// window's snapshot is the run's accuracy.
		res.tables = last.tables
		res.setTotals(eng, last.Accuracy)
	} else {
		// Zero windows closed (empty source). Keep Run's contract: every
		// declared stage materializes, as an empty table.
		res.tables = make(map[string]*exec.Table, len(q.plan.Stages))
		for _, st := range q.plan.Stages {
			res.tables[st.Name] = &exec.Table{Schema: st.Schema}
		}
		res.setTotals(eng, nil)
	}
	return res, nil
}

// GroundTruth executes the query with unbounded memory (no cache, no
// merging) — the reference the datapath is validated against, evaluated
// serially. Of the run options only WithFabric applies: cache options
// are meaningless without a cache, and WithShards partitions a datapath
// without changing the answer the reference defines.
func (q *Query) GroundTruth(src Source, opts ...RunOption) (*Results, error) {
	var cfg runConfig
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.topo != nil {
		tables, err := fabric.GroundTruth(q.plan, cfg.topo, src)
		if err != nil {
			return nil, err
		}
		return &Results{tables: tables, q: q}, nil
	}
	tables, err := exec.Run(q.plan, src)
	if err != nil {
		return nil, err
	}
	return &Results{tables: tables, q: q}, nil
}

// Results holds the tables a run produced.
type Results struct {
	tables map[string]*exec.Table
	q      *Query

	// fab is set for fabric runs (WithFabric) and backs the per-switch
	// table accessors; switchTabs memoizes their materialization.
	fab        *fabric.Fabric
	switchTabs map[uint16]map[string]*exec.Table

	// accs is the per-program (valid, total) accuracy (see Accuracy).
	accs []switchsim.Acc

	// windows is the bounded ring of a windowed run (WithWindow), and
	// windowCount the total number of windows closed (≥ ring length).
	windows     *window.Ring[*WindowResult]
	windowCount int64

	// Evictions counts capacity evictions across all switch stores.
	Evictions uint64
	// Flushed counts the end-of-run cache flush evictions (the entries
	// still resident when the stream ended). Evictions + Flushed is the
	// total eviction stream an OnEvict observer — e.g. WithBackingPool —
	// saw during the run.
	Flushed uint64
	// ValidKeys/TotalKeys report backing-store accuracy summed over every
	// switch store (1/1 for ground truth, or plans with no switch
	// program; always valid == total for mergeable folds). Fabric runs
	// report the network-wide spatial accuracy instead. Per-program
	// counts are available through Accuracy.
	ValidKeys, TotalKeys int
}

// Accuracy returns program i's (valid, total) backing-store key counts —
// Figure 6's metric, per physical switch store rather than summed. Ground
// truth results (and out-of-range programs) report 1/1.
func (r *Results) Accuracy(i int) (valid, total int) {
	if i < 0 || i >= len(r.accs) {
		return 1, 1
	}
	return r.accs[i].Valid, r.accs[i].Total
}

// Programs returns how many physical switch stores the plan compiled to
// (the index domain of Accuracy).
func (r *Results) Programs() int { return len(r.q.plan.Programs) }

// Unrouted returns how many records of a fabric run carried a switch ID
// absent from the topology (skipped as a trace/topology mismatch); zero
// for single-datapath runs.
func (r *Results) Unrouted() uint64 {
	if r.fab == nil {
		return 0
	}
	return r.fab.Unrouted()
}

// Windows returns the retained per-window results of a windowed run
// (WithWindow), oldest first — at most WindowSpec.Keep of them; nil
// otherwise.
func (r *Results) Windows() []*WindowResult {
	if r.windows == nil {
		return nil
	}
	return r.windows.Results()
}

// WindowCount returns how many windows a windowed run closed in total
// (including windows the ring has since dropped).
func (r *Results) WindowCount() int64 { return r.windowCount }

// WindowsDropped returns how many closed windows fell out of the
// bounded ring.
func (r *Results) WindowsDropped() int64 {
	if r.windows == nil {
		return 0
	}
	return r.windows.Dropped()
}

// Switches lists the hardware switch IDs of a fabric run (WithFabric) in
// ascending order; nil for single-datapath runs. ID 0 is the host-NIC
// pseudo switch.
func (r *Results) Switches() []uint16 {
	if r.fab == nil {
		return nil
	}
	return r.fab.Switches()
}

// SwitchName names a fabric switch for reports ("leaf0", "hostnic", …).
func (r *Results) SwitchName(sw uint16) string {
	if r.fab == nil {
		return ""
	}
	return r.fab.SwitchName(sw)
}

// SwitchPairs returns the cache capacity (key-value pairs) each switch
// datapath actually received after the budget split — Geometry.Split
// rounds down to a power-of-two bucket count, so this can be below
// budget/len(Switches()). Zero for single-datapath runs.
func (r *Results) SwitchPairs() int {
	if r.fab == nil {
		return 0
	}
	return r.fab.PartitionGeometry().Pairs()
}

// SwitchTable returns a stage's table as materialized from one switch's
// stores alone — the per-switch view of a fabric run, with downstream
// stages evaluated over that switch's tables. Nil for single-datapath
// runs, unknown switches or unknown stages.
func (r *Results) SwitchTable(sw uint16, name string) *Table {
	tabs := r.switchTables(sw)
	if tabs == nil {
		return nil
	}
	t, ok := tabs[name]
	if !ok {
		return nil
	}
	return &Table{Schema: t.Schema, Rows: t.Rows}
}

// SwitchResult returns one switch's view of the query's primary result.
func (r *Results) SwitchResult(sw uint16) *Table {
	names := r.q.Results()
	if len(names) == 0 {
		return nil
	}
	return r.SwitchTable(sw, names[len(names)-1])
}

// switchTables materializes (and memoizes) one switch's full table set.
// A materialization failure is memoized as nil so repeated probes do not
// re-run the failing collector pass; SwitchTables on the fabric itself
// surfaces the error for callers that need it.
func (r *Results) switchTables(sw uint16) map[string]*exec.Table {
	if r.fab == nil {
		return nil
	}
	if tabs, ok := r.switchTabs[sw]; ok {
		return tabs
	}
	tabs, err := r.fab.SwitchTables(sw)
	if err != nil {
		tabs = nil
	}
	if r.switchTabs == nil {
		r.switchTabs = map[uint16]map[string]*exec.Table{}
	}
	r.switchTabs[sw] = tabs
	return tabs
}

// Table returns a stage's result by name (a named query like "R2", or
// "_1" for the first anonymous query). Nil if absent.
func (r *Results) Table(name string) *Table {
	t, ok := r.tables[name]
	if !ok {
		return nil
	}
	return &Table{Schema: t.Schema, Rows: t.Rows}
}

// Result returns the query's primary result (its last DAG sink).
func (r *Results) Result() *Table {
	names := r.q.Results()
	if len(names) == 0 {
		return nil
	}
	return r.Table(names[len(names)-1])
}

// Table is a materialized result: named columns over float64 rows. Key
// columns (IP addresses, ports, queue IDs, …) are exact integers stored
// in float64.
type Table struct {
	Schema []string
	Rows   [][]float64
}

// Len returns the row count.
func (t *Table) Len() int { return len(t.Rows) }

// Format pretty-prints up to maxRows rows (0 = all).
func (t *Table) Format(w io.Writer, maxRows int) {
	for _, c := range t.Schema {
		fmt.Fprintf(w, "%-16s", c)
	}
	fmt.Fprintln(w)
	n := len(t.Rows)
	if maxRows > 0 && n > maxRows {
		n = maxRows
	}
	for i := 0; i < n; i++ {
		for j, v := range t.Rows[i] {
			if isAddrColumn(t.Schema[j]) {
				fmt.Fprintf(w, "%-16s", fmtAddr(v))
			} else if v == float64(int64(v)) {
				fmt.Fprintf(w, "%-16d", int64(v))
			} else {
				fmt.Fprintf(w, "%-16.4f", v)
			}
		}
		fmt.Fprintln(w)
	}
	if n < len(t.Rows) {
		fmt.Fprintf(w, "… (%d more rows)\n", len(t.Rows)-n)
	}
}

func isAddrColumn(name string) bool { return name == "srcip" || name == "dstip" }

func fmtAddr(v float64) string {
	u := uint32(int64(v))
	return fmt.Sprintf("%d.%d.%d.%d", u>>24, u>>16&0xff, u>>8&0xff, u&0xff)
}

// WANTrace returns a deterministic CAIDA-like synthetic capture: Poisson
// flow arrivals, heavy-tailed flow sizes, ~85% TCP (see
// internal/tracegen).
func WANTrace(seed int64, duration time.Duration) Source {
	return tracegen.New(tracegen.WANConfig(seed, duration))
}

// DCTrace returns a datacenter-flavored synthetic capture with higher
// incast pressure and drop rates.
func DCTrace(seed int64, duration time.Duration) Source {
	return tracegen.New(tracegen.DCConfig(seed, duration))
}

// Records adapts a slice to a Source.
func Records(recs []Record) Source {
	return &trace.SliceSource{Records: recs}
}
