package backing

import (
	"math/rand"
	"testing"

	"perfq/internal/fold"
	"perfq/internal/kvstore"
	"perfq/internal/packet"
	"perfq/internal/trace"
)

// TestKeyIndexDifferential drives the open-addressing index and a plain
// map[packet.Key128]int32 reference through the same randomized schedule
// of find-or-insert claims, lookups and resets — enough keys per round to
// force several grow-rebuilds past indexMinSize — and checks every claim
// and lookup against the map.
func TestKeyIndexDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	var ix keyIndex
	ix.init(indexMinSize)
	ref := map[packet.Key128]int32{}

	checkAll := func(round int, space []packet.Key128) {
		t.Helper()
		for _, k := range space {
			got, ok := ix.get(k)
			want, wok := ref[k]
			if ok != wok || (ok && got != want) {
				t.Fatalf("round %d: get(%v) = (%d,%v), reference (%d,%v)", round, k, got, ok, want, wok)
			}
		}
	}

	for round := 0; round < 4; round++ {
		// Disjoint key space per round: after a reset, every prior key must
		// read as absent even though its bytes linger in the slots.
		n := indexMinSize*4 + rng.Intn(2000) // ≥2 grows per round
		space := make([]packet.Key128, n)
		for i := range space {
			space[i] = keyN(round*1_000_000 + i)
		}
		next := int32(0)
		claim := func(k packet.Key128) {
			t.Helper()
			want, present := ref[k]
			if got, ok := ix.claim(k, k.Hash()); ok != present || (ok && got != want) || (!ok && got != next) {
				t.Fatalf("round %d: claim(%v, %d) = (%d,%v), reference (%d,%v)", round, k, next, got, ok, want, present)
			}
			if !present {
				ref[k] = next
				next++
			}
		}
		for _, i := range rng.Perm(n) {
			claim(space[i]) // every key once, unless a random claim got there first
			claim(space[rng.Intn(n)])
			probe := space[rng.Intn(n)]
			got, ok := ix.get(probe)
			want, wok := ref[probe]
			if ok != wok || (ok && got != want) {
				t.Fatalf("round %d: get(%v) = (%d,%v), reference (%d,%v)", round, probe, got, ok, want, wok)
			}
		}
		checkAll(round, space)
		ix.reset()
		clear(ref)
		checkAll(round, space) // everything absent after reset
	}
}

// refEvent is one eviction in the reference store's per-key log.
type refEvent struct {
	win uint32
	val float64
}

// refAccuracy derives every accuracy counter from a raw per-key event
// log — independently of the store's incremental bookkeeping. A key is
// invalid once it holds ≥2 epochs; it counts toward the window metrics
// when any event carries the current window index.
func refAccuracy(log map[packet.Key128][]refEvent, curWin uint32) (valid, total, winValid, winTotal int) {
	for _, evs := range log {
		total++
		invalid := len(evs) >= 2
		if !invalid {
			valid++
		}
		touched := false
		for _, e := range evs {
			if e.win == curWin {
				touched = true
				break
			}
		}
		if touched {
			winTotal++
			if !invalid {
				winValid++
			}
		}
	}
	return
}

// TestStoreDifferentialWindows replays a randomized schedule of
// non-mergeable evictions, BeginWindow boundaries and Resets against the
// arena-backed store and an event-log reference, comparing Len, Get,
// Valid, Epochs, Accuracy and WindowAccuracy at every boundary. The key
// space is large enough to grow the index and arenas mid-run, and keys
// are re-touched across windows to exercise the fresh-touch accounting.
func TestStoreDifferentialWindows(t *testing.T) {
	last := &fold.Func{
		Prog: &fold.Program{
			Name:     "lastlen",
			NumState: 1,
			Body:     []fold.Stmt{fold.Assign{Dst: 0, RHS: fold.FieldRef(trace.FieldPktLen)}},
		},
	}
	const keySpace = 3000 // grows the index past indexMinSize twice
	rng := rand.New(rand.NewSource(72))
	zipf := rand.NewZipf(rng, 1.2, 8, keySpace-1)
	store := New(last)
	log := map[packet.Key128][]refEvent{}
	var curWin uint32
	compare := func(step int) {
		t.Helper()
		if store.Len() != len(log) {
			t.Fatalf("step %d: Len = %d, reference %d", step, store.Len(), len(log))
		}
		v, tot := store.Accuracy()
		wv, wt := store.WindowAccuracy()
		rv, rtot, rwv, rwt := refAccuracy(log, curWin)
		if v != rv || tot != rtot {
			t.Fatalf("step %d: Accuracy = %d/%d, reference %d/%d", step, v, tot, rv, rtot)
		}
		if wv != rwv || wt != rwt {
			t.Fatalf("step %d: WindowAccuracy = %d/%d, reference %d/%d", step, wv, wt, rwv, rwt)
		}
		for probe := 0; probe < 64; probe++ {
			k := keyN(rng.Intn(keySpace))
			evs := log[k]
			if got := store.Epochs(k); len(got) != len(evs) {
				t.Fatalf("step %d: Epochs(%v) has %d entries, reference %d", step, k, len(got), len(evs))
			} else {
				for i := range got {
					if got[i].State[0] != evs[i].val {
						t.Fatalf("step %d: epoch %d of %v = %v, reference %v", step, i, k, got[i].State[0], evs[i].val)
					}
				}
			}
			st, ok := store.Get(k)
			if wantOK := len(evs) == 1; ok != wantOK {
				t.Fatalf("step %d: Get(%v) ok=%v, reference %v", step, k, ok, wantOK)
			} else if ok && st[0] != evs[0].val {
				t.Fatalf("step %d: Get(%v) = %v, reference %v", step, k, st[0], evs[0].val)
			}
			if store.Valid(k) != (len(evs) == 1) {
				t.Fatalf("step %d: Valid(%v) = %v, reference %v", step, k, store.Valid(k), len(evs) == 1)
			}
		}
	}

	for step := 0; step < 20000; step++ {
		switch r := rng.Intn(1000); {
		case r < 4: // tumbling boundary
			compare(step)
			store.Reset()
			clear(log)
			curWin = 0 // Reset keeps curWin, but no event carries it anymore
			compare(step)
		case r < 24: // carry-over boundary
			compare(step)
			store.BeginWindow()
			curWin++
			compare(step)
		default:
			// Zipf-ish skew: low keys re-evict often (multi-epoch), the tail
			// stays single-epoch.
			k := keyN(int(zipf.Uint64()))
			v := float64(rng.Intn(1 << 20))
			store.HandleEviction(&kvstore.Eviction{Key: k, State: []float64{v}})
			log[k] = append(log[k], refEvent{win: curWin, val: v})
		}
	}
	compare(20000)
}
