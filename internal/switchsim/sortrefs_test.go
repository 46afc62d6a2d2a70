package switchsim

import (
	"cmp"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// refCompare is the reference order sortRefs must reproduce: key words,
// then gather position.
func refCompare(a, b keyedRef) int {
	if c := cmp.Compare(a.k0, b.k0); c != 0 {
		return c
	}
	if c := cmp.Compare(a.k1, b.k1); c != 0 {
		return c
	}
	return cmp.Compare(a.idx, b.idx)
}

// checkSortRefs holds the radix sort to the comparison sort on one input.
func checkSortRefs(t *testing.T, name string, refs []keyedRef) {
	t.Helper()
	want := slices.Clone(refs)
	slices.SortFunc(want, refCompare)
	sortRefs(refs)
	if !slices.Equal(refs, want) {
		for i := range refs {
			if refs[i] != want[i] {
				t.Fatalf("%s, n=%d: position %d is %+v, the reference order has %+v", name, len(refs), i, refs[i], want[i])
			}
		}
	}
}

// TestSortRefsMatchesReference: the in-place radix sort equals the
// (k0, k1, idx) comparison sort on every shape of key set a gather can
// produce, at sizes on both sides of the insertion cutoff, well past it
// and at the 130 k keys of a whole-trace close.
func TestSortRefsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	shapes := []struct {
		name string
		key  func(i, n int) (k0, k1 uint64)
	}{
		{"random", func(int, int) (uint64, uint64) { return rng.Uint64(), rng.Uint64() }},
		// Packed keys of narrow components: the high bytes never vary.
		{"constant-high-bytes", func(int, int) (uint64, uint64) {
			return 0x0a00_0000_0000_0000 | uint64(rng.Intn(1<<20)), 0x1700_0000_0000_0000
		}},
		{"k1-only", func(int, int) (uint64, uint64) { return 0xdead_beef_0000_0001, rng.Uint64() }},
		// One key held by every source: only gather order separates them.
		{"all-equal", func(int, int) (uint64, uint64) { return 42, 4242 }},
		// The fabric's shared branch: each key held by up to eight sources.
		{"duplicates-across-sources", func(i, n int) (uint64, uint64) {
			k := uint64(rng.Intn(n/8 + 1))
			return k * 0x9e37_79b9_7f4a_7c15, k
		}},
		// Adversarial skew: at every byte position all but a few refs share
		// one bucket, so each level peels off a handful and recurses on the
		// rest.
		{"skew", func(i, n int) (uint64, uint64) {
			if i%64 == 0 {
				return rng.Uint64(), rng.Uint64()
			}
			return 0xffff_ffff_ffff_ffff, 0xffff_ffff_ffff_0000 | uint64(rng.Intn(4))
		}},
	}
	for _, n := range []int{0, 1, 2, 31, 32, 33, 3_000, 100_000, 130_000} {
		for _, sh := range shapes {
			refs := make([]keyedRef, n)
			for i := range refs {
				k0, k1 := sh.key(i, n)
				refs[i] = keyedRef{k0, k1, uint64(i)}
			}
			checkSortRefs(t, sh.name, refs)
		}
	}
}

// TestSortRefsSkewIsLinear: the worst input for an MSD radix — every key
// byte varies, and at each one a single bucket holds all but one ref —
// still sorts in a bounded number of linear passes. A million refs take
// tens of milliseconds; a quadratic fallback on the big bucket would take
// hours, so the deadline can be generous enough for any host.
func TestSortRefsSkewIsLinear(t *testing.T) {
	refs := make([]keyedRef, 1<<20)
	for i := range refs {
		refs[i] = keyedRef{^uint64(0), ^uint64(0), uint64(i)}
	}
	// One straggler per key byte, so all sixteen are radix levels.
	for b := 0; b < 16; b++ {
		var key [16]byte
		for j := range key {
			key[j] = 0xff
		}
		key[b] = 0
		refs[b*7+3] = refOf(key, b*7+3)
	}
	t0 := time.Now()
	sortRefs(refs)
	if d := time.Since(t0); d > 10*time.Second {
		t.Errorf("sorting %d skewed refs took %v", len(refs), d)
	}
	if !slices.IsSortedFunc(refs, refCompare) {
		t.Fatal("not sorted")
	}
}

// FuzzSortRefs feeds arbitrary key bytes: every 17 bytes make one ref (16
// key bytes, and one byte saying how many earlier refs' keys to repeat
// instead, so equal keys are common).
func FuzzSortRefs(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 17*40))
	f.Add(binary.BigEndian.AppendUint64(make([]byte, 9), 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		var refs []keyedRef
		for ; len(data) >= 17; data = data[17:] {
			var key [16]byte
			copy(key[:], data)
			r := refOf(key, len(refs))
			if back := int(data[16]); back > 0 && back <= len(refs) {
				prev := refs[len(refs)-back]
				r.k0, r.k1 = prev.k0, prev.k1
			}
			refs = append(refs, r)
		}
		checkSortRefs(t, "fuzz", refs)
	})
}
