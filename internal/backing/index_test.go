package backing

import (
	"math/rand"
	"sync"
	"testing"

	"perfq/internal/packet"
)

// testIndex is a keyIndex over an entry arena of its own that claims as
// the store does: a new key's entry is created right after its claim, so
// the index reads every key it compares from an entry.
type testIndex struct {
	keyIndex
	arena chunked[entry]
}

func newTestIndex() *testIndex {
	ix := &testIndex{}
	ix.ents = &ix.arena
	ix.init(indexMinSize)
	return ix
}

func (ix *testIndex) claim(k packet.Key128, h uint64) (int32, bool) {
	id, ok := ix.keyIndex.claim(k, h)
	if !ok {
		_, e := ix.arena.alloc()
		*e = entry{key: k, head: -1}
	}
	return id, ok
}

func (ix *testIndex) reset() {
	ix.keyIndex.reset()
	ix.arena.reset()
}

// fpPairs are two pairs of keys whose hashes share their upper 32 bits,
// the index's fingerprint: a birthday search over seeded random keys,
// which meets two such pairs after about 2^17 keys.
var fpPairs = sync.OnceValue(func() (pairs [][2]packet.Key128) {
	rng := rand.New(rand.NewSource(38))
	seen := map[uint32]packet.Key128{}
	for len(pairs) < 2 {
		var k packet.Key128
		rng.Read(k[:])
		fp := uint32(k.Hash() >> 32)
		if o, ok := seen[fp]; ok && o != k {
			pairs = append(pairs, [2]packet.Key128{o, k})
		}
		seen[fp] = k
	}
	return pairs
})

// onChain orders the pair p for an index of mask+1 slots so that b's home
// slot lies at most half the table past a's, and returns fillers, one
// homed at each slot from a's home to b's. Claimed first, the fillers
// push a past b's home, so b's probe meets a's fingerprint on its way.
func onChain(p [2]packet.Key128, mask uint64) (a, b packet.Key128, fill []packet.Key128) {
	a, b = p[0], p[1]
	if (b.Hash()-a.Hash())&mask > mask/2 {
		a, b = b, a
	}
	n := 0
	for j := a.Hash(); ; j++ {
		for keyN(n).Hash()&mask != j&mask {
			n++
		}
		fill = append(fill, keyN(n))
		n++
		if j&mask == b.Hash()&mask {
			return a, b, fill
		}
	}
}

// TestKeyIndexFingerprintCollision: two keys with one fingerprint, the
// second's probe chain running through the first's slot, each claim and
// get their own entry ids, and a third key presented with either one's
// hash — same fingerprint, same home — is absent. It holds on a fresh
// table, after a grow rehashes the entries, and after a reset.
func TestKeyIndexFingerprintCollision(t *testing.T) {
	pair := fpPairs()[0]
	third := keyN(-1)
	ix := newTestIndex()
	var keys []packet.Key128
	build := func(stage string) {
		t.Helper()
		a, b, fill := onChain(pair, ix.mask)
		keys = append(fill, a, b)
		for i, k := range keys {
			if id, ok := ix.claim(k, k.Hash()); ok || id != int32(i) {
				t.Fatalf("%s: first claim of key %d = (%d, %v), want (%d, false)", stage, i, id, ok, i)
			}
		}
		// The chain is as built: a sits between b's home and b.
		home, mask := b.Hash()&ix.mask, ix.mask
		at := func(k packet.Key128) uint64 {
			sl := ix.find(k, k.Hash())
			for i := range ix.slots {
				if &ix.slots[i] == sl {
					return uint64(i)
				}
			}
			panic("find returned no slot of the table")
		}
		if pa, pb := at(a), at(b); (pa-home)&mask >= (pb-home)&mask {
			t.Fatalf("%s: a at slot %d is not on b's chain from %d to %d", stage, pa, home, pb)
		}
	}
	check := func(stage string) {
		t.Helper()
		for i, k := range keys {
			if id, ok := ix.claim(k, k.Hash()); !ok || id != int32(i) {
				t.Fatalf("%s: claim of key %d = (%d, %v), want (%d, true)", stage, i, id, ok, i)
			}
			if id, ok := ix.get(k); !ok || id != int32(i) {
				t.Fatalf("%s: get of key %d = (%d, %v), want (%d, true)", stage, i, id, ok, i)
			}
		}
		for _, k := range pair {
			if id, ok := ix.id(ix.find(third, k.Hash())); ok {
				t.Fatalf("%s: a third key with %v's hash found as entry %d", stage, k, id)
			}
		}
	}
	build("fresh")
	check("fresh")
	ix.grow()
	check("grown")
	ix.reset()
	for _, k := range keys {
		if _, ok := ix.get(k); ok {
			t.Fatalf("after reset: %v present", k)
		}
	}
	build("reset")
	check("reset")
}

// FuzzKeyIndex drives an index through a byte-coded sequence of claims,
// gets, grows and resets over a pool of keys that holds both
// equal-fingerprint pairs; for the pair whose homes lie closer, a filler
// homed at every slot between them on the initial table; and enough other
// keys that claiming the whole pool grows the table. Every answer is
// checked against a map.
func FuzzKeyIndex(f *testing.F) {
	pairs := fpPairs()
	var best []packet.Key128
	for _, p := range pairs {
		a, b, fill := onChain(p, indexMinSize-1)
		if best == nil || len(fill) < len(best)-2 {
			best = append(fill, a, b)
		}
	}
	chain := []byte{}
	for i := range best { // claim the chain in order, then get its pair
		chain = append(chain, 0, byte(i))
	}
	f.Add(append(chain, 4, byte(len(best)-2), 4, byte(len(best)-1)))
	pool := append(best, pairs[0][:]...) // the chained pair is in twice: harmless, one key
	pool = append(pool, pairs[1][:]...)
	for i := 0; len(pool) < indexMinSize; i++ {
		pool = append(pool, keyN(1_000_000+i))
	}
	f.Add([]byte{0, 0, 0, 1, 4, 1, 6, 0, 4, 0, 7, 0})
	f.Add([]byte{0, 3, 0, 2, 1, 1, 1, 0, 5, 3, 6, 0, 2, 2, 7, 0, 0, 1, 4, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		ix := newTestIndex()
		ref := map[packet.Key128]int32{}
		checkAll := func(op int) {
			for _, k := range pool {
				got, ok := ix.get(k)
				if want, wok := ref[k]; ok != wok || ok && got != want {
					t.Fatalf("op %d: get(%v) = (%d, %v), reference (%d, %v)", op, k, got, ok, want, wok)
				}
			}
		}
		for i := 0; i+1 < len(ops); i += 2 {
			k := pool[int(ops[i+1])%len(pool)]
			switch ops[i] % 8 {
			case 0, 1, 2, 3:
				want, present := ref[k]
				got, ok := ix.claim(k, k.Hash())
				if !present {
					want = int32(len(ref))
					ref[k] = want
				}
				if ok != present || got != want {
					t.Fatalf("op %d: claim(%v) = (%d, %v), reference (%d, %v)", i, k, got, ok, want, present)
				}
			case 4, 5:
				got, ok := ix.get(k)
				if want, wok := ref[k]; ok != wok || ok && got != want {
					t.Fatalf("op %d: get(%v) = (%d, %v), reference (%d, %v)", i, k, got, ok, want, wok)
				}
			case 6:
				if len(ix.slots) < 1<<12 {
					ix.grow()
					checkAll(i)
				}
			case 7:
				ix.reset()
				clear(ref)
				checkAll(i)
			}
		}
		checkAll(len(ops))
	})
}
