package backing

import "perfq/internal/packet"

// keyIndex is the store's key→entry index: an open-addressing hash table
// over packet.Key128 with linear probing. It replaces the previous
// map[packet.Key128]int32 on the eviction hot path for three reasons:
//
//   - The probe is inline code over two flat arrays (no hash-function
//     interface, no bucket pointers), reusing the same word-mix
//     Key128.Hash the cache's bucket index uses.
//   - Growth is tombstone-free by construction: keys are never deleted
//     individually (Reset drops the whole key space), so the table only
//     ever rebuilds into a larger array — a straight reinsertion with no
//     deletion markers to skip on later probes.
//   - Reset reuses the allocation: re-emptying the slot array in place
//     touches no allocator (the map version re-allocated buckets as the
//     next window's keys re-arrived), and costs what the closing window
//     held, not what the largest window ever did (see reset).
//
// Slots hold entry index + 1 so the zero value means empty and clearing
// is a memset. Load is kept at or below 3/4.
type keyIndex struct {
	keys  []packet.Key128
	slots []int32 // entry index + 1; 0 = empty
	mask  uint64
	used  int
}

// indexMinSize is the initial slot count (power of two).
const indexMinSize = 256

func (ix *keyIndex) init(size int) {
	ix.keys = make([]packet.Key128, size)
	ix.slots = make([]int32, size)
	ix.mask = uint64(size - 1)
	ix.used = 0
}

// find probes for key: the slot that holds it, or the empty slot that
// ends its chain (where an insert would put it).
func (ix *keyIndex) find(key packet.Key128) uint64 {
	i := key.Hash() & ix.mask
	for ix.slots[i] != 0 && ix.keys[i] != key {
		i = (i + 1) & ix.mask
	}
	return i
}

// get returns the entry index for key, if present.
func (ix *keyIndex) get(key packet.Key128) (int32, bool) {
	if ix.slots == nil {
		return 0, false
	}
	v := ix.slots[ix.find(key)]
	return v - 1, v != 0
}

// claim is the eviction path's find-or-insert, one probe either way: it
// returns key's entry index and true when the key is present; otherwise
// it maps key to id — the entry the caller is about to create — and
// returns (id, false). Only an insert that would push load above 3/4
// grows the table and probes again.
func (ix *keyIndex) claim(key packet.Key128, id int32) (int32, bool) {
	if ix.slots == nil {
		ix.init(indexMinSize)
	}
	i := ix.find(key)
	if v := ix.slots[i]; v != 0 {
		return v - 1, true
	}
	if n := len(ix.slots); ix.used+1 > n-(n>>2) {
		ix.grow()
		i = ix.find(key)
	}
	ix.keys[i] = key
	ix.slots[i] = id + 1
	ix.used++
	return id, false
}

// grow rebuilds the table at double capacity. With no per-key deletion
// there are no tombstones to migrate — every occupied slot reinserts
// into the larger array and probe chains come out clean.
func (ix *keyIndex) grow() {
	oldKeys, oldSlots := ix.keys, ix.slots
	ix.init(len(oldSlots) * 2)
	for i, v := range oldSlots {
		if v != 0 {
			at := ix.find(oldKeys[i])
			ix.keys[at], ix.slots[at] = oldKeys[i], v
			ix.used++
		}
	}
}

// sparseReset is how many slots per held key make a memset of the whole
// slot array dearer than finding and zeroing each key's own slot (a
// probe per key against a fraction of a nanosecond per slot).
const sparseReset = 64

// reset empties the table in place, keeping the allocation; held is the
// arena of the entries the table maps to, one per key. A table grown by
// one large window stays large, so a later window holding few keys clears
// only the slots of its own keys rather than the whole array: reset costs
// in proportion to the keys held, whatever the table's size. Stale keys
// behind empty slots are unreachable.
func (ix *keyIndex) reset(held *chunked[entry]) {
	if ix.used*sparseReset >= len(ix.slots) {
		clear(ix.slots)
	} else {
		for id := int32(0); int(id) < held.n; id++ {
			// A slot emptied earlier may interrupt this key's chain, so walk
			// on to the live slot that names it: nonzero slots are exactly
			// the window's keys.
			key := held.at(id).key
			i := key.Hash() & ix.mask
			for ix.slots[i] == 0 || ix.keys[i] != key {
				i = (i + 1) & ix.mask
			}
			ix.slots[i] = 0
		}
	}
	ix.used = 0
}
