package main

import (
	"runtime"
	"slices"
	"time"

	"perfq"
)

// layers makes the workload's traced run — the staged pipeline, then
// the isolated replays — and reduces its spans and counts, together
// with the untraced trials, to the per-layer metrics and the ns/packet
// budget.
func (s *state) layers(rec *recorder) (map[string]metricValue, []budgetRow, error) {
	rec.workload = s.w.name
	root := rec.begin(-1, -1, s.w.name, "bench")
	// The staged pipeline runs tracedTrials times and the fastest one is
	// the one reduced, for the reason the end-to-end figures come from the
	// best trial; all of them stay in the span file.
	var st *staged
	for i := 0; i < tracedTrials; i++ {
		runtime.GC()
		t, err := s.w.stagedRun(rec, root, s.in)
		if err != nil {
			return nil, nil, err
		}
		if st == nil || rec.spans[t.trial].dur() < rec.spans[st.trial].dur() {
			st = t
		}
	}
	recs, err := s.in.records()
	if err != nil {
		return nil, nil, err
	}
	runtime.GC()
	rp, err := s.w.replay(rec, root, s.in.q.Plan(), recs)
	if err != nil {
		return nil, nil, err
	}
	rec.end(root, s.in.n)

	spans := rec.spans
	n := float64(s.in.n)
	rows := budget(spans, st.trial, s.in.n)
	row := func(names ...string) float64 {
		var t float64
		for _, r := range rows {
			for _, name := range names {
				if r.Name == name {
					t += r.NsPerPkt
				}
			}
		}
		return t
	}
	durs := func(name string) []float64 { return durations(spans, st.trial, name) }
	p50 := func(vals []float64) float64 {
		if len(vals) == 0 {
			return 0
		}
		return median(vals)
	}

	L := map[string]float64{}
	L["compiler.compile_us"] = compileUs(&s.w)
	L["trace.read_ns_per_pkt"] = row("trace.read")
	L["compiler.key_ns_per_pkt"] = float64(rp.keyNs) / n
	L["fold.update_ns_per_pkt"] = float64(rp.updateNs) / n
	L["fold.pred_ns_per_pkt"] = float64(rp.predNs) / n
	L["kvstore.process_ns_per_pkt"] = float64(rp.cacheNs) / n
	var accesses, hits, evictions float64
	for _, c := range st.cache {
		accesses += float64(c.Accesses)
		hits += float64(c.Hits)
		evictions += float64(c.Evictions)
	}
	L["kvstore.hit_frac"] = ratio(hits, accesses)
	L["kvstore.evict_frac"] = ratio(evictions, accesses)
	flushes := durs("kvstore.flush")
	L["kvstore.flush_us_p50"] = p50(flushes) / 1e3
	L["backing.merge_ns_per_evict"] = ratio(float64(rp.mergeNs), float64(rp.mergeN))
	L["backing.keys"] = float64(st.keys)
	L["backing.valid_frac"] = ratio(float64(st.valid), float64(st.total))
	if s.in.topo == nil {
		// The cache replay includes the fold update it performs, so the
		// update is not subtracted twice.
		feed := row("switchsim.feed", "switchsim.feed.sync")
		L["switchsim.feed_ns_per_pkt"] = feed
		L["switchsim.self_ns_per_pkt"] = feed - float64(rp.keyNs+rp.predNs+rp.cacheNs+rp.mergeNs)/n
	} else {
		L["fabric.feed_ns_per_pkt"] = row("fabric.feed", "fabric.feed.sync")
		L["fabric.collect_ms"] = sum(durs("fabric.collect")) / 1e6
		var most, total float64
		for _, p := range st.swPackets {
			most = max(most, float64(p))
			total += float64(p)
		}
		L["fabric.switch_skew"] = ratio(most, total/float64(len(st.swPackets)))
		L["fabric.unrouted_frac"] = float64(st.unrouted) / n
	}
	// What CloseWindow costs the facade: the flush the driver made
	// explicit, plus the rest of the close.
	closes := durs("switchsim.close_window")
	for i := range closes {
		closes[i] += flushes[i]
	}
	L["switchsim.close_us_p50"] = p50(closes) / 1e3
	L["switchsim.collect_ms"] = sum(durs("switchsim.collect")) / 1e6
	L["exec.finish_ms"] = sum(durs("exec.finish")) / 1e6
	L["exec.truth_ns_per_pkt"] = s.truthNs
	if s.w.shards > 1 {
		L["shard.route_ns_per_pkt"] = float64(rp.routeNs) / n
		L["shard.imbalance"] = ratio(rp.shardMax, rp.shardMean)
		L["shard.speedup"] = bestPktsPerS(s.trials) / bestPktsPerS(s.serial)
	}

	// Window and pool figures come from the untraced trials.
	var closeNs []float64
	var closeSum, wall, offered, acked, overflow float64
	for _, o := range s.trials {
		closeNs = append(closeNs, o.closeNs...)
		closeSum += sum(o.closeNs)
		wall += float64(o.wall)
		offered += float64(o.books.Offered)
		acked += float64(o.books.Acked)
		overflow += float64(o.books.Overflow)
	}
	if len(closeNs) > 0 {
		L["window.close_ms_p99"] = quantile(closeNs, 0.99) / 1e6
		L["window.close_share"] = closeSum / wall
		L["window.windows"] = float64(s.trials[0].windows)
		L["window.rows_per_window"] = float64(s.trials[0].rows) / float64(s.trials[0].windows)
	}
	if s.w.pool {
		L["netstore.offer_ns_per_evict"] = ratio(sum(durs("netstore.offer")), float64(st.offered))
		L["netstore.sync_ms_p50"] = p50(durs("netstore.sync")) / 1e6
		L["netstore.evictions_per_s"] = median(perTrial(s.trials, func(o *outcome) float64 {
			return float64(o.books.Offered) / o.wall.Seconds()
		}))
		L["netstore.applied_frac"] = ratio(acked, offered)
		L["netstore.queue_overflow"] = overflow
	}
	L["proc.cpu_ns_per_pkt"] = median(perTrial(s.trials, func(o *outcome) float64 { return float64(o.cpuNs) / float64(o.records) }))
	L["proc.gc_cycles"] = median(perTrial(s.trials, func(o *outcome) float64 { return float64(o.gcs) }))
	L["proc.heap_peak_mb"] = slices.Max(perTrial(s.trials, func(o *outcome) float64 { return o.heapMB }))
	L["proc.procs"] = float64(runtime.GOMAXPROCS(0))

	untraced := 1e9 / bestPktsPerS(s.trials)
	var staged float64
	for _, r := range rows {
		staged += r.NsPerPkt
	}
	L["bench.residual_ns_per_pkt"] = untraced - staged
	L["bench.trace_overhead_frac"] = (float64(spans[st.trial].dur())/n - untraced) / untraced

	out := map[string]metricValue{}
	for _, def := range perLayer {
		out[def.Name] = metricValue{Unit: def.Unit, Value: L[def.Name]}
	}
	return out, rows, nil
}

// bestPktsPerS is the pkts_per_s figure of a set of trials, reduced as
// the end-to-end metric is.
func bestPktsPerS(trials []*outcome) float64 {
	return best(perTrial(trials, pktsPerS), "higher")
}

// compileUs is the median cost of parse + check + compile of the
// workload's program, through the facade.
func compileUs(w *workload) float64 {
	vals := make([]float64, compileReps)
	for i := range vals {
		t := time.Now()
		perfq.MustCompile(w.program) // compiled once already in set-up
		vals[i] = float64(time.Since(t)) / 1e3
	}
	return median(vals)
}
