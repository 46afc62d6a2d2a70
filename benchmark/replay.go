package main

import (
	"sync/atomic"
	"time"

	"perfq/internal/backing"
	"perfq/internal/compiler"
	"perfq/internal/fold"
	"perfq/internal/kvstore"
	"perfq/internal/packet"
	"perfq/internal/shard"
	"perfq/internal/trace"
)

// Isolated replays. The layers buried inside switchsim — key packing,
// the fold VM, the cache, the backing store, the shard router — cannot
// be given spans from outside, so each one's public entry point is
// replayed alone over inputs captured from the same workload: the
// record stream, the key stream it packs to, and a deep copy of the
// eviction stream the cache produces. Their times are recorded as
// replay.* aggregate spans under the workload's root.

// replayChunk is how many records have their fields pre-extracted at a
// time (untimed) before the timed per-record loops run over them, so a
// loop pays what the datapath's hot path pays and no more.
const replayChunk = 4096

// replayed is what the replays yield: total ns and the operation count
// each total divides by.
type replayed struct {
	keyNs, predNs, updateNs, cacheNs, mergeNs, routeNs int64
	predN, updateN, cacheN, mergeN                     int64
	shardMax, shardMean                                float64
}

// evictionLog is a flat deep copy of an eviction stream: evictions
// borrow cache storage only for the callback, and per-eviction heap
// copies would turn the replay into a GC benchmark.
type evictionLog struct {
	stateLen int
	keys     []packet.Key128
	state    []float64 // stateLen per eviction
	p        []float64 // coefficient products, back to back
	pEnd     []int     // where eviction i's product ends in p (empty = nil P)
	recs     []trace.Record
	hasRec   []bool
	cuts     []int // evictions before each window boundary
}

func (l *evictionLog) add(ev *kvstore.Eviction) {
	l.keys = append(l.keys, ev.Key)
	l.state = append(l.state, ev.State...)
	l.p = append(l.p, ev.P...)
	l.pEnd = append(l.pEnd, len(l.p))
	l.hasRec = append(l.hasRec, ev.FirstRec != nil)
	if ev.FirstRec != nil {
		l.recs = append(l.recs, *ev.FirstRec)
	} else {
		l.recs = append(l.recs, trace.Record{})
	}
}

// at rebuilds eviction i over the log's storage.
func (l *evictionLog) at(i int, ev *kvstore.Eviction) {
	lo, hi := i*l.stateLen, (i+1)*l.stateLen
	*ev = kvstore.Eviction{Key: l.keys[i], State: l.state[lo:hi]}
	pLo := 0
	if i > 0 {
		pLo = l.pEnd[i-1]
	}
	if pHi := l.pEnd[i]; pHi > pLo {
		ev.P = l.p[pLo:pHi]
	}
	if l.hasRec[i] {
		ev.FirstRec = &l.recs[i]
	}
}

// replay runs every isolated replay of w over recs and records one
// aggregate span per layer entry point under root.
func (w *workload) replay(r *recorder, root int, plan *compiler.Plan, recs []trace.Record) (*replayed, error) {
	rp := &replayed{}
	parent := r.begin(root, -1, "replay", "bench")
	n := len(recs)
	geo := kvstore.SetAssociative(w.cachePairs, ways)
	window := n
	if w.window > 0 {
		window = int(w.window)
	}

	// Key pack + hash, once per distinct GROUPBY key, as the datapath does.
	specs, group := keySpecs(plan)
	keys := make([][]packet.Key128, len(specs))
	var sink uint64
	for g, spec := range specs {
		keys[g] = make([]packet.Key128, n)
		t := time.Now()
		for i := range recs {
			k := spec.Of(&recs[i])
			sink ^= k.Hash()
			keys[g][i] = k
		}
		rp.keyNs += int64(time.Since(t))
	}

	// Per program: a timed cache whose evictions go nowhere, and an
	// untimed twin that logs its evictions for the backing replay.
	type progReplay struct {
		where  []*fold.Code // member guards; a nil entry matches everything
		all    bool
		state  []float64
		timed  kvstore.Cache
		logged kvstore.Cache
		log    *evictionLog
	}
	progs := make([]*progReplay, len(plan.Programs))
	for pi, sp := range plan.Programs {
		pr := &progReplay{where: sp.MemberWhere, state: make([]float64, sp.Fold.StateLen())}
		for mi := range sp.Members {
			if sp.MemberWhere[mi] == nil {
				pr.all = true
			}
		}
		sp.Fold.Init(pr.state)
		exact := sp.Fold.Merge == fold.MergeLinear
		var err error
		pr.timed, err = kvstore.New(kvstore.Config{Geometry: geo, Fold: sp.Fold, ExactMerge: exact,
			OnEvict: func(*kvstore.Eviction) {}})
		if err != nil {
			return nil, err
		}
		pr.log = &evictionLog{stateLen: sp.Fold.StateLen()}
		pr.logged, err = kvstore.New(kvstore.Config{Geometry: geo, Fold: sp.Fold, ExactMerge: exact,
			OnEvict: pr.log.add})
		if err != nil {
			return nil, err
		}
		progs[pi] = pr
	}

	fields := make([][trace.NumFields]float64, replayChunk)
	match := make([]bool, replayChunk)
	var in fold.Input
	for lo := 0; lo < n; {
		hi := min(lo+replayChunk, n, (lo/window+1)*window)
		chunk := recs[lo:hi]
		for i := range chunk {
			for f := 1; f < trace.NumFields; f++ {
				fields[i][f] = float64(chunk[i].Field(trace.FieldID(f)))
			}
		}
		for pi, pr := range progs {
			sp := plan.Programs[pi]
			// WHERE: a record enters the store if any member's guard
			// admits it.
			for i := range chunk {
				match[i] = true
			}
			if !pr.all {
				t := time.Now()
				for i := range chunk {
					in.Rec, in.Fields = &chunk[i], fields[i][:]
					m := false
					for _, code := range pr.where {
						m = m || code.EvalBool(&in, nil)
					}
					match[i] = m
				}
				rp.predNs += int64(time.Since(t))
				rp.predN += int64(len(chunk))
			}
			// Fold update alone, on one scratch accumulator.
			t := time.Now()
			for i := range chunk {
				if match[i] {
					in.Rec, in.Fields = &chunk[i], fields[i][:]
					sp.Fold.Update(pr.state, &in)
				}
			}
			rp.updateNs += int64(time.Since(t))
			// Cache: probe + initialize-or-update + evict.
			ks := keys[group[pi]][lo:hi]
			admitted := int64(0)
			t = time.Now()
			for i := range chunk {
				if match[i] {
					in.Rec, in.Fields = &chunk[i], fields[i][:]
					pr.timed.Process(ks[i], &in)
					admitted++
				}
			}
			rp.cacheNs += int64(time.Since(t))
			rp.cacheN += admitted
			rp.updateN += admitted
			for i := range chunk {
				if match[i] {
					in.Rec, in.Fields = &chunk[i], fields[i][:]
					pr.logged.Process(ks[i], &in)
				}
			}
			if hi%window == 0 || hi == n {
				pr.timed.Flush()
				pr.logged.Flush()
				pr.log.cuts = append(pr.log.cuts, len(pr.log.keys))
			}
		}
		lo = hi
	}

	// Backing store: merge (linear) or append (epoch-keeping) every
	// logged eviction, resetting at window boundaries as tumbling does.
	for pi, pr := range progs {
		store := backing.New(plan.Programs[pi].Fold)
		var ev kvstore.Eviction
		cut := 0
		t := time.Now()
		for i := range pr.log.keys {
			for cut < len(pr.log.cuts) && pr.log.cuts[cut] == i {
				store.Reset()
				cut++
			}
			pr.log.at(i, &ev)
			store.HandleEviction(&ev)
		}
		rp.mergeNs += int64(time.Since(t))
		rp.mergeN += int64(len(pr.log.keys))
	}

	// Shard router + ring transport + barrier, workers doing nothing.
	if w.shards > 1 {
		keyFns := make([]shard.KeyFunc, len(specs))
		for g, spec := range specs {
			keyFns[g] = spec.Of
		}
		// One padded counter per shard: each is written by its own worker.
		counts := make([]struct {
			n atomic.Int64
			_ [56]byte
		}, w.shards)
		pool := shard.NewPool(shard.Config{Shards: w.shards, Keys: keyFns, Targets: group},
			func(s int, _ *trace.Record, _ uint64) { counts[s].n.Add(1) })
		t := time.Now()
		for i := range recs {
			pool.Feed(&recs[i])
		}
		pool.Barrier()
		rp.routeNs = int64(time.Since(t))
		pool.Close()
		var total float64
		for s := range counts {
			c := float64(counts[s].n.Load())
			total += c
			rp.shardMax = max(rp.shardMax, c)
		}
		rp.shardMean = total / float64(w.shards)
	}
	r.end(parent, int64(n))
	_ = sink

	at := r.spans[parent].StartNs
	at = r.agg(parent, -1, "replay.key", "compiler", at, rp.keyNs, int64(n))
	at = r.agg(parent, -1, "replay.pred", "fold", at, rp.predNs, rp.predN)
	at = r.agg(parent, -1, "replay.update", "fold", at, rp.updateNs, rp.updateN)
	at = r.agg(parent, -1, "replay.cache", "kvstore", at, rp.cacheNs, rp.cacheN)
	at = r.agg(parent, -1, "replay.merge", "backing", at, rp.mergeNs, rp.mergeN)
	r.agg(parent, -1, "replay.route", "shard", at, rp.routeNs, int64(n))
	return rp, nil
}
