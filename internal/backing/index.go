package backing

import "perfq/internal/packet"

// keyIndex is the store's key→entry index: an open-addressing hash table
// over packet.Key128 with linear probing, reusing the word-mix
// Key128.Hash the cache's bucket index uses. It keeps no keys: each key
// lives once, in its entry.
//
//   - A slot is 8 bytes, the key's fingerprint (its hash's upper 32 bits;
//     the home slot comes from the low bits) and a tag. A probe compares
//     fingerprints and, on a match, the key in the entry the tag names —
//     the entry the caller loads next anyway, so a hit costs no extra line
//     — and probes on past a false match. An eviction batch can load
//     every lane's home slot, then every fingerprint match's entry,
//     before it claims any.
//   - Entry ids are dense (the i-th key claimed since the last reset is
//     entry i) and a slot's tag is base + id + 1, where base counts the
//     keys of every earlier window. A slot is live only while its tag is
//     above base, so reset just moves base past the window's keys: it
//     touches no slot and costs the same whatever the window held and
//     however large an earlier window grew the table.
//   - Growth is tombstone-free by construction: keys are never deleted
//     individually, so the table only ever rebuilds into a larger array —
//     the entries' keys rehashed in id order.
//
// Load is kept at or below 3/4.
type keyIndex struct {
	slots []indexSlot
	mask  uint64
	used  int
	base  uint32
	ents  *chunked[entry] // entry id → key; the caller creates entry id right after claiming it
}

type indexSlot struct {
	fp  uint32 // the key's hash >> 32
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
	fp := uint32(h >> 32)
	for i := h & ix.mask; ; i = (i + 1) & ix.mask {
		sl := &ix.slots[i]
		if sl.tag <= ix.base || sl.fp == fp && ix.ents.at(int32(sl.tag-ix.base-1)).key == key {
			return sl
		}
	}
}

// candidate returns the entry id of the first slot on hash h's chain with
// h's fingerprint, or -1 — reading slots only, no key.
func (ix *keyIndex) candidate(h uint64) int32 {
	fp := uint32(h >> 32)
	for i := h & ix.mask; ix.slots[i].tag > ix.base; i = (i + 1) & ix.mask {
		if ix.slots[i].fp == fp {
			return int32(ix.slots[i].tag - ix.base - 1)
		}
	}
	return -1
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
	sl.fp, sl.tag = uint32(h>>32), ix.base+uint32(id)+1
	ix.used++
	return int32(id), false
}

// grow rebuilds the table at double capacity from the entries' keys,
// rehashed in id order.
func (ix *keyIndex) grow() {
	used := ix.used
	ix.init(len(ix.slots) * 2)
	for ; ix.used < used; ix.used++ {
		k := &ix.ents.at(int32(ix.used)).key
		h := k.Hash()
		*ix.find(*k, h) = indexSlot{fp: uint32(h >> 32), tag: ix.base + uint32(ix.used) + 1}
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
