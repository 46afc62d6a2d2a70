package backing

import "perfq/internal/packet"

// keyIndex is the store's key→entry index: an open-addressing hash table
// over packet.Key128 with linear probing, reusing the word-mix
// Key128.Hash the cache's bucket index uses.
//
//   - A slot is one 20-byte record, key and tag together, so a probe that
//     finds its key (or the end of its chain) in the home slot touches one
//     cache line — two when the slot straddles a boundary — and an
//     eviction batch can load every lane's home slot before it claims any.
//   - Entry ids are dense (the i-th key claimed since the last reset is
//     entry i) and a slot's tag is base + id + 1, where base counts the
//     keys of every earlier window. A slot is live only while its tag is
//     above base, so reset just moves base past the window's keys: it
//     touches no slot and costs the same whatever the window held and
//     however large an earlier window grew the table. Stale keys behind
//     dead slots are unreachable.
//   - Growth is tombstone-free by construction: keys are never deleted
//     individually, so the table only ever rebuilds into a larger array —
//     a straight reinsertion of the live slots.
//
// Load is kept at or below 3/4.
type keyIndex struct {
	slots []indexSlot
	mask  uint64
	used  int
	base  uint32
}

type indexSlot struct {
	key packet.Key128
	tag uint32 // base + entry id + 1 when written; live while > base
}

// indexMinSize is the initial slot count (power of two).
const indexMinSize = 256

// init allocates size slots; an index must be initialized before use.
func (ix *keyIndex) init(size int) {
	ix.slots = make([]indexSlot, size)
	ix.mask = uint64(size - 1)
	ix.used = 0
}

// find probes for key, whose hash is h: the slot that holds it, or the
// dead slot that ends its chain (where an insert would put it).
func (ix *keyIndex) find(key packet.Key128, h uint64) *indexSlot {
	i := h & ix.mask
	for {
		sl := &ix.slots[i]
		if sl.tag <= ix.base || sl.key == key {
			return sl
		}
		i = (i + 1) & ix.mask
	}
}

// id returns the entry index a slot holds, and whether the slot is live.
func (ix *keyIndex) id(sl *indexSlot) (int32, bool) {
	return int32(sl.tag - ix.base - 1), sl.tag > ix.base
}

// get returns the entry index for key, if present.
func (ix *keyIndex) get(key packet.Key128) (int32, bool) {
	return ix.id(ix.find(key, key.Hash()))
}

// claim is the eviction path's find-or-insert, one probe either way: it
// returns key's entry index and true when the key is present; otherwise
// it maps key to the next entry index — the entry the caller is about to
// create — and returns that and false. Only an insert that would push
// load above 3/4 grows the table and probes again. h is key's hash.
func (ix *keyIndex) claim(key packet.Key128, h uint64) (int32, bool) {
	sl := ix.find(key, h)
	if id, ok := ix.id(sl); ok {
		return id, true
	}
	if n := len(ix.slots); ix.used+1 > n-(n>>2) {
		ix.grow()
		sl = ix.find(key, h)
	}
	id := ix.used
	sl.key, sl.tag = key, ix.base+uint32(id)+1
	ix.used++
	return int32(id), false
}

// grow rebuilds the table at double capacity. With no per-key deletion
// there are no tombstones to migrate — every live slot reinserts into
// the larger array and probe chains come out clean.
func (ix *keyIndex) grow() {
	old, used := ix.slots, ix.used
	ix.init(len(old) * 2)
	ix.used = used
	for i := range old {
		if sl := &old[i]; sl.tag > ix.base {
			*ix.find(sl.key, sl.key.Hash()) = *sl
		}
	}
}

// reset empties the table in place, keeping the allocation: base moves
// past every tag handed out, and all slots are dead. Only when base has
// used up half the tag space — after 2^31 keys, over all windows — are the
// slots cleared and the count restarted, so that a window of any size
// still fits above it.
func (ix *keyIndex) reset() {
	ix.base += uint32(ix.used)
	ix.used = 0
	if ix.base > 1<<31 {
		clear(ix.slots)
		ix.base = 0
	}
}
