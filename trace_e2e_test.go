package perfq

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"perfq/internal/fabric"
	"perfq/internal/kvstore"
	"perfq/internal/obs"
	"perfq/internal/packet"
	"perfq/internal/queries"
	"perfq/internal/switchsim"
	"perfq/internal/trace"
	"perfq/internal/tracegen"
)

// End-to-end suite for the sampled-tracing layer and the flight
// recorder: the sampler must select the same keys no matter how the
// datapath is laid out (that's what makes a sampled key's story
// followable across deployments), and the live /debug surfaces must
// serve internally consistent spans and a gap-free journal while a
// sharded windowed run is in flight.

// sampledKeysAtHop runs the datapath built by run and returns the set
// of sampled keys whose span recorded the named hop, asserting no span
// ring overwrote (which would silently shrink the set).
func sampledKeysAtHop(t *testing.T, tr *obs.Tracer, ringSlots int, hop string, run func()) map[string]bool {
	t.Helper()
	run()
	if n := tr.Begun(); n == 0 || n > uint64(ringSlots) {
		t.Fatalf("tracer began %d spans; want 1..%d so no ring slot was recycled", n, ringSlots)
	}
	keys := keysAtHop(tr, hop)
	if len(keys) == 0 {
		t.Fatalf("no %s hops sampled; sampling rate too coarse for this trace", hop)
	}
	return keys
}

// keysAtHop returns the keys of the retained spans that recorded hop.
func keysAtHop(tr *obs.Tracer, hop string) map[string]bool {
	keys := make(map[string]bool)
	for _, s := range tr.Spans() {
		for _, h := range s.Hops {
			if h.Hop == hop {
				keys[s.Key] = true
				break
			}
		}
	}
	return keys
}

// TestTraceDeterministicSampling pins sampling as a pure function of
// the key: the set of keys that record cache hops is identical across
// shard counts, and across worker and inline layouts, because
// Key128.Hash is fixed and the cache key does not depend on the layout.
// Every sampled key's hash must also actually pass the sampler mask.
func TestTraceDeterministicSampling(t *testing.T) {
	forceProcs(t)
	cfg := tracegen.DCConfig(23, 2*time.Second)
	recs, err := trace.Collect(tracegen.New(cfg))
	if err != nil {
		t.Fatal(err)
	}
	q := MustCompile(queries.ByName("Per-flow counters").Source)

	const k = 8                   // 1-in-256: plenty of sampled keys, far below ring capacity
	const perRing = 4096          // per-stripe slots; Begun() is asserted under this
	var routeKeys map[string]bool // route-hop keys of the last serialSet run
	serialSet := func(shards int) map[string]bool {
		tr := obs.NewTracer(k, perRing)
		dp, err := switchsim.New(q.Plan(), switchsim.Config{
			Geometry: kvstore.SetAssociative(1<<14, 8),
			Shards:   shards,
			Trace:    tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer dp.EndFeed()
		cache := sampledKeysAtHop(t, tr, perRing, "cache", func() {
			dp.Feed(recs)
			dp.Sync()
			dp.Flush()
		})
		routeKeys = keysAtHop(tr, "route")
		return cache
	}

	base := serialSet(1)
	for _, key := range sortedKeys(base) {
		raw, err := hex.DecodeString(key)
		if err != nil || len(raw) != 16 {
			t.Fatalf("span key %q is not a hex Key128", key)
		}
		var kk packet.Key128
		copy(kk[:], raw)
		if kk.Hash()&(1<<k-1) != 0 {
			t.Fatalf("span key %s fails the sampler mask: an unsampled key was traced", key)
		}
	}
	for _, shards := range []int{2, 4} {
		got := serialSet(shards)
		if !sameKeySet(base, got) {
			t.Errorf("shards=%d sampled %d cache keys, shards=1 sampled %d — sets differ",
				shards, len(got), len(base))
		}
	}
	// One span shape: the router begins the route span whether the
	// records then ride the ring (GOMAXPROCS 4) or land inline on the
	// feeder (GOMAXPROCS 1), so a sharded datapath's route-hop key set is
	// the same non-empty set either way.
	serialSet(4)
	pooledRoute := routeKeys
	atProcs(1, func() { serialSet(4) })
	if len(pooledRoute) == 0 || !sameKeySet(pooledRoute, routeKeys) {
		t.Errorf("sharded datapath began route spans for %d keys on workers, %d inline — want the same non-empty set",
			len(pooledRoute), len(routeKeys))
	}

	// Fabric: the router samples on the five-tuple and each switch's
	// cache samples its own keys; neither depends on whether the records
	// ride the ring or land inline, so the sampled cache-key set is
	// layout-independent there too.
	tp := equivFabric()
	frecs := fabricTrace(t, tp, 80)
	// The netsim workload has ~80 distinct flows, so sample 1-in-4 there:
	// key-based sampling needs the key universe to be dense relative to
	// the rate for any key to pass.
	const kFab = 2
	fabricSet := func() (evict, route map[string]bool) {
		tr := obs.NewTracer(kFab, perRing)
		fab, err := fabric.New(q.Plan(), tp, fabric.Config{
			Switch: switchsim.Config{
				Geometry: kvstore.SetAssociative(1<<16, 8),
				Trace:    tr,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer fab.EndFeed()
		// Compare at the evict hop: evict spans always begin fresh with
		// the cache's own key, so the set is key-space-pure (cache hops
		// ride the router's five-tuple-keyed route spans) — and at the
		// route hop, which the one router begins in both layouts.
		evict = sampledKeysAtHop(t, tr, perRing, "evict", func() {
			if err := fab.Run(Records(frecs)); err != nil {
				t.Fatal(err)
			}
		})
		return evict, keysAtHop(tr, "route")
	}
	var serialEvict, serialRoute map[string]bool
	atProcs(1, func() { serialEvict, serialRoute = fabricSet() })
	parallelEvict, parallelRoute := fabricSet()
	if !sameKeySet(serialEvict, parallelEvict) {
		t.Errorf("fabric serial sampled %d cache keys, parallel sampled %d — sets differ",
			len(serialEvict), len(parallelEvict))
	}
	if len(serialRoute) == 0 || !sameKeySet(serialRoute, parallelRoute) {
		t.Errorf("fabric serial began route spans for %d keys, parallel for %d — want the same non-empty set",
			len(serialRoute), len(parallelRoute))
	}
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func sameKeySet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// traceDoc mirrors /debug/trace's JSON shape.
type traceDoc struct {
	SampleRate   uint64 `json:"sample_rate"`
	SpansStarted uint64 `json:"spans_started"`
	Spans        []struct {
		Seq     uint64 `json:"seq"`
		Key     string `json:"key"`
		TotalNs int64  `json:"total_ns"`
		Hops    []struct {
			Hop     string `json:"hop"`
			Outcome string `json:"outcome"`
			T       int64  `json:"t_ns"`
		} `json:"hops"`
	} `json:"spans"`
	Hops map[string]struct {
		Count uint64  `json:"count"`
		P50Ns float64 `json:"p50_ns"`
	} `json:"hops"`
}

// eventsDoc mirrors /debug/events' JSON shape.
type eventsDoc struct {
	Seq         uint64 `json:"seq"`
	Overwritten uint64 `json:"overwritten"`
	Events      []struct {
		Kind string `json:"kind"`
		Seq  uint64 `json:"seq"`
		A    int64  `json:"a"`
		B    int64  `json:"b"`
		Msg  string `json:"msg"`
	} `json:"events"`
}

// scrapeJSON fetches url and decodes into out.
func scrapeJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// checkTraceDoc asserts structural invariants of a /debug/trace scrape:
// spans in sequence order, hop offsets nondecreasing from zero, and
// hops in datapath order within the route→transport→cache leg.
func checkTraceDoc(t *testing.T, doc *traceDoc) {
	t.Helper()
	hopOrder := map[string]int{"route": 0, "transport": 1, "cache": 2, "evict": 3, "ship": 4}
	var lastSeq uint64
	for _, s := range doc.Spans {
		if s.Seq <= lastSeq {
			t.Fatalf("spans out of sequence order: %d after %d", s.Seq, lastSeq)
		}
		lastSeq = s.Seq
		if len(s.Hops) == 0 {
			t.Fatal("span with no hops")
		}
		if s.Hops[0].T != 0 {
			t.Fatalf("span %d first hop offset %d, want 0", s.Seq, s.Hops[0].T)
		}
		for i := 1; i < len(s.Hops); i++ {
			if s.Hops[i].T < s.Hops[i-1].T {
				t.Fatalf("span %d hop offsets not monotone: %d then %d",
					s.Seq, s.Hops[i-1].T, s.Hops[i].T)
			}
			a, aok := hopOrder[s.Hops[i-1].Hop]
			b, bok := hopOrder[s.Hops[i].Hop]
			if !aok || !bok {
				t.Fatalf("span %d has unknown hop %q/%q", s.Seq, s.Hops[i-1].Hop, s.Hops[i].Hop)
			}
			if b < a {
				t.Fatalf("span %d hops out of datapath order: %s after %s",
					s.Seq, s.Hops[i].Hop, s.Hops[i-1].Hop)
			}
		}
	}
}

// checkEventsDoc asserts a journal scrape is gap-free: with no
// overwrites the tail is a contiguous ascending sequence run.
func checkEventsDoc(t *testing.T, doc *eventsDoc) {
	t.Helper()
	if doc.Overwritten != 0 {
		t.Fatalf("journal overwrote %d events; size the test journal up", doc.Overwritten)
	}
	for i := 1; i < len(doc.Events); i++ {
		if doc.Events[i].Seq != doc.Events[i-1].Seq+1 {
			t.Fatalf("journal tail has a gap: seq %d follows %d",
				doc.Events[i].Seq, doc.Events[i-1].Seq)
		}
	}
}

// TestTraceScrapeLive drives a sharded windowed run while scraping
// /debug/trace and /debug/events over real HTTP: the surfaces must stay
// internally consistent mid-run (hop order monotone, journal gap-free)
// and, after the run, the journal must hold one window-close event per
// closed window plus the barrier trail.
func TestTraceScrapeLive(t *testing.T) {
	forceProcs(t)
	cfg := tracegen.DCConfig(31, 2*time.Second)
	recs, err := trace.Collect(tracegen.New(cfg))
	if err != nil {
		t.Fatal(err)
	}
	q := MustCompile(queries.ByName("Per-flow counters").Source)

	m := NewMetrics()
	m.SetTraceSampling(4)     // 1-in-16: dense spans on a small trace
	m.SetJournalSize(1 << 16) // large enough that nothing overwrites
	srv := httptest.NewServer(m.Handler(nil))
	defer srv.Close()

	scraped := 0
	emit := func(w *WindowResult) error {
		// Scrape mid-run from the second window on (the first closes
		// before any span is guaranteed to be retained).
		if w.Index < 1 || scraped >= 3 {
			return nil
		}
		scraped++
		var td traceDoc
		scrapeJSON(t, srv.URL+"/debug/trace?spans=64", &td)
		if td.SampleRate != 16 {
			t.Fatalf("sample_rate = %d, want 16", td.SampleRate)
		}
		if td.SpansStarted == 0 {
			t.Fatal("mid-run scrape sees no spans started")
		}
		checkTraceDoc(t, &td)
		var ed eventsDoc
		scrapeJSON(t, fmt.Sprintf("%s/debug/events?n=%d", srv.URL, 1<<16), &ed)
		checkEventsDoc(t, &ed)
		return nil
	}
	res, err := q.Stream(Records(recs), emit,
		WithCache(1<<12, 8), WithShards(4),
		WithWindow(WindowSpec{Count: int64(len(recs) / 8), Keep: 4}),
		WithMetrics(m))
	if err != nil {
		t.Fatal(err)
	}
	if scraped == 0 {
		t.Fatal("run closed too few windows to scrape mid-flight")
	}

	// Post-run: the journal tells the run's story. One window-close per
	// closed window, barriers from every Sync, all still gap-free.
	var ed eventsDoc
	scrapeJSON(t, fmt.Sprintf("%s/debug/events?n=%d", srv.URL, 1<<16), &ed)
	checkEventsDoc(t, &ed)
	byKind := map[string]int{}
	for _, ev := range ed.Events {
		byKind[ev.Kind]++
	}
	if int64(byKind["window-close"]) != res.WindowCount() {
		t.Errorf("journal has %d window-close events, run closed %d windows",
			byKind["window-close"], res.WindowCount())
	}
	if byKind["barrier"] == 0 {
		t.Error("journal has no barrier events from a sharded run")
	}

	// The kind filter narrows without reordering.
	var filtered eventsDoc
	scrapeJSON(t, srv.URL+"/debug/events?n=65536&kind=window-close", &filtered)
	if len(filtered.Events) != byKind["window-close"] {
		t.Errorf("kind filter returned %d events, want %d",
			len(filtered.Events), byKind["window-close"])
	}
	for _, ev := range filtered.Events {
		if ev.Kind != "window-close" {
			t.Fatalf("kind filter leaked a %q event", ev.Kind)
		}
	}

	// And the facade accessors see the same world as the HTTP surface.
	if got := len(m.Events(0)); got != len(ed.Events) {
		t.Errorf("Metrics.Events sees %d events, /debug/events saw %d", got, len(ed.Events))
	}
	if len(m.Spans()) == 0 {
		t.Error("Metrics.Spans is empty after a traced run")
	}
}
