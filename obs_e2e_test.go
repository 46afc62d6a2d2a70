package perfq

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"perfq/internal/queries"
	"perfq/internal/trace"
	"perfq/internal/tracegen"
)

// TestObsScrapeWhileFeeding runs a windowed sharded query with the
// metrics surface attached and hammers /metrics + /debug/perfq over
// HTTP for the whole run — the live-scrape deployment shape, and (under
// -race) the proof that the scraper never races the hot path. After the
// run the scraped families must sum consistently with Results.
func TestObsScrapeWhileFeeding(t *testing.T) {
	cfg := tracegen.DCConfig(4, 2*time.Second)
	recs, err := trace.Collect(tracegen.New(cfg))
	if err != nil {
		t.Fatal(err)
	}
	q := MustCompile("SELECT COUNT GROUPBY 5tuple")
	m := NewMetrics()
	srv := httptest.NewServer(m.Handler(func() any {
		return map[string]string{"run": "scrape-while-feeding"}
	}))
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, path := range []string{"/metrics", "/debug/perfq"} {
				resp, err := http.Get(srv.URL + path)
				if err != nil {
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()

	res, err := q.Run(Records(recs),
		WithCache(256, 8), WithShards(2),
		WithWindow(WindowSpec{Count: 20_000, Keep: 4}),
		WithMetrics(m))
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	// Packets: every fed record, counted once, and every one of them
	// applied by the block loop — on a sharded run on its shard's ring
	// slots in place: nothing is staged unless Datapath.Process staged it.
	packets, ok := m.Value("perfq_packets_total")
	if !ok {
		t.Fatal("perfq_packets_total not registered")
	}
	if packets != float64(len(recs)) {
		t.Errorf("perfq_packets_total = %.0f, fed %d records", packets, len(recs))
	}
	blockRecs, _ := m.Value("perfq_path_block_records_total")
	stagedRecs, ok := m.Value("perfq_path_staged_records_total")
	if !ok {
		t.Fatal("perfq_path_staged_records_total not registered")
	}
	if blockRecs != packets || stagedRecs != 0 {
		t.Errorf("sharded run: %.0f block, %.0f staged records, want %.0f (= packets) and 0",
			blockRecs, stagedRecs, packets)
	}

	// Path attribution: the same records as a pqt file on one shard run
	// through the block loop in place, straight from the batch pull — not
	// one record is copied on the way, and the scrape says so.
	fm := NewMetrics()
	if _, err := q.Run(pqtSource(t, recs), WithCache(256, 8), WithMetrics(fm)); err != nil {
		t.Fatal(err)
	}
	fileBlock, _ := fm.Value("perfq_path_block_records_total")
	fileStaged, _ := fm.Value("perfq_path_staged_records_total")
	if fileBlock != float64(len(recs)) || fileStaged != 0 {
		t.Errorf("file-sourced serial run: %.0f block, %.0f staged records, want %d and 0",
			fileBlock, fileStaged, len(recs))
	}

	// Evictions: the mirror is the same cumulative kvstore counter the
	// Results read.
	ev, _ := m.Value("perfq_cache_evictions_total")
	if uint64(ev) != res.Evictions {
		t.Errorf("perfq_cache_evictions_total = %.0f, Results.Evictions = %d", ev, res.Evictions)
	}
	if res.Evictions == 0 {
		t.Error("tiny cache produced no evictions; nothing exercised the mirrors")
	}

	// Window runtime: closes and ring drops.
	wins, _ := m.Value("perfq_windows_closed_total")
	if int64(wins) != res.WindowCount() {
		t.Errorf("perfq_windows_closed_total = %.0f, WindowCount = %d", wins, res.WindowCount())
	}
	dropped, _ := m.Value("perfq_windows_dropped_total")
	if int64(dropped) != res.WindowsDropped() {
		t.Errorf("perfq_windows_dropped_total = %.0f, WindowsDropped = %d", dropped, res.WindowsDropped())
	}
	closeCount, _ := m.Value("perfq_window_close_ns")
	if int64(closeCount) != res.WindowCount() {
		t.Errorf("close-latency histogram count %.0f != %d windows", closeCount, res.WindowCount())
	}

	// The final scrape must render both formats. Prometheus text:
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"# TYPE perfq_packets_total counter",
		"perfq_transport_batch_size_bucket",
		`le="+Inf"`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// JSON drill-down, with the extra block attached:
	resp, err = http.Get(srv.URL + "/debug/perfq")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics []struct {
			Name string `json:"name"`
		} `json:"metrics"`
		Extra map[string]string `json:"extra"`
	}
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/debug/perfq is not JSON: %v", err)
	}
	if len(doc.Metrics) == 0 {
		t.Error("/debug/perfq has no families")
	}
	if doc.Extra["run"] != "scrape-while-feeding" {
		t.Errorf("extra block = %v", doc.Extra)
	}
}

// TestWindowClosePhases: with metrics attached every window close is
// timed by phase — sync, flush, tables, collector, reset — one
// observation per phase per close, and the phases add up to no more than
// the close latency the window runtime measures around them.
func TestWindowClosePhases(t *testing.T) {
	recs, err := trace.Collect(tracegen.New(tracegen.WANConfig(7, 2*time.Second)))
	if err != nil {
		t.Fatal(err)
	}
	m := NewMetrics()
	res, err := MustCompile(queries.LossByQueue).Run(Records(recs),
		WithCache(1024, 8), WithWindow(WindowSpec{Count: 5000}), WithMetrics(m))
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string]float64{}
	for _, s := range m.reg.Gather(nil) {
		vals[s.Name] = s.Value
	}
	closes := vals["perfq_window_close_ns_count"]
	if closes != float64(res.WindowCount()) || closes < 2 {
		t.Fatalf("%.0f closes timed, %d windows", closes, res.WindowCount())
	}
	var sum float64
	for _, phase := range []string{"sync", "flush", "tables", "collector", "reset"} {
		name := `perfq_window_close_phase_ns_count{phase="` + phase + `"}`
		if n, ok := vals[name]; !ok || n != closes {
			t.Errorf("%s = %.0f (registered %v), want %.0f", name, n, ok, closes)
		}
		sum += vals[`perfq_window_close_phase_ns_sum{phase="`+phase+`"}`]
	}
	if total := vals["perfq_window_close_ns_sum"]; sum == 0 || sum > total {
		t.Errorf("phases sum to %.0f ns, close latency to %.0f ns", sum, total)
	}
}

// TestObsBackingPoolMetrics checks that -backing and metrics compose:
// attaching both a pool and a registry to one run surfaces the pool's
// per-backend families, and the scraped drop/ack books agree with the
// pool's own accessors.
func TestObsBackingPoolMetrics(t *testing.T) {
	q := MustCompile("SELECT COUNT GROUPBY 5tuple")
	cluster, err := q.ServeBackingStores(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	pool, err := q.DialBackingPool(cluster.Addrs(), BackingPoolConfig{QueueDepth: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	m := NewMetrics()
	res, err := q.Run(DCTrace(4, 2*time.Second),
		WithCache(128, 8), WithBackingPool(pool), WithMetrics(m))
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Sync(); err != nil {
		t.Fatal(err)
	}
	offered, ok := m.Value("perfq_pool_offered_total")
	if !ok {
		t.Fatal("pool families not registered through WithMetrics+WithBackingPool")
	}
	if want := res.Evictions + res.Flushed; uint64(offered) != want {
		t.Errorf("perfq_pool_offered_total = %.0f, datapath emitted %d", offered, want)
	}
	dropped, _ := m.Value("perfq_pool_dropped_total")
	noBackend, _ := m.Value("perfq_pool_no_backend_total")
	if uint64(dropped+noBackend) != pool.DroppedEvictions() {
		t.Errorf("scraped drops %.0f+%.0f != DroppedEvictions %d",
			dropped, noBackend, pool.DroppedEvictions())
	}
	healthy, _ := m.Value("perfq_pool_backend_healthy")
	if int(healthy) != len(pool.Addrs()) {
		t.Errorf("perfq_pool_backend_healthy sums to %.0f, want %d", healthy, len(pool.Addrs()))
	}
	if n, _ := m.Value("perfq_pool_sync_ns"); n == 0 {
		t.Error("no sync barriers recorded in perfq_pool_sync_ns")
	}
}

// TestBackingPoolMultiProgram pins the multi-program backing tier: a
// two-store plan (distinct GROUPBY keys, so the programs cannot fuse)
// mirrored into a pool must ship BOTH programs' evictions — each to its
// own per-program server store — and keep exact books. This is the
// regression for the ROADMAP-flagged gap where the pool mirrored only
// program 0's fold and silently discarded the rest.
func TestBackingPoolMultiProgram(t *testing.T) {
	q := MustCompile(`
R1 = SELECT COUNT GROUPBY srcip
def nonmt((maxseq, nm_count), tcpseq):
    if maxseq > tcpseq:
        nm_count = nm_count + 1
    maxseq = max(maxseq, tcpseq)
R2 = SELECT 5tuple, nonmt GROUPBY 5tuple WHERE proto == 6
`)
	if got := len(q.plan.Programs); got != 2 {
		t.Fatalf("plan has %d programs, want 2", got)
	}
	cluster, err := q.ServeBackingStores(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	pool, err := q.DialBackingPool(cluster.Addrs(), BackingPoolConfig{QueueDepth: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if pool.Programs() != 2 {
		t.Fatalf("pool runs %d program keyspaces, want 2", pool.Programs())
	}

	res, err := q.Run(DCTrace(4, 2*time.Second), WithCache(128, 8), WithBackingPool(pool))
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Sync(); err != nil {
		t.Fatal(err)
	}
	if d := pool.DroppedEvictions(); d != 0 {
		t.Fatalf("healthy pool dropped %d evictions", d)
	}

	var applied uint64
	for prog := 0; prog < pool.Programs(); prog++ {
		var progApplied uint64
		for _, bs := range pool.StatsFor(prog) {
			if !bs.Reachable {
				t.Fatalf("program %d backend %s unreachable for stats", prog, bs.Addr)
			}
			progApplied += bs.Server.Applied()
		}
		if progApplied == 0 {
			t.Errorf("program %d mirrored nothing into the backing tier", prog)
		}
		applied += progApplied
	}
	if want := res.Evictions + res.Flushed; applied != want {
		t.Fatalf("backends applied %d evictions across programs, datapath emitted %d", applied, want)
	}
}
