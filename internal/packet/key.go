package packet

import (
	"encoding/binary"
	"fmt"
)

var be = binary.BigEndian

// FiveTuple is the canonical transport flow identifier: source and
// destination IPv4 addresses and ports plus the IP protocol. It is a
// comparable value type, usable directly as a map key. The paper's
// hardware packs keys into 104 bits and is agnostic to how operators
// define them.
type FiveTuple struct {
	Src     Addr4
	Dst     Addr4
	SrcPort uint16
	DstPort uint16
	Proto   Proto
}

// String formats the tuple as "proto src:sport > dst:dport".
func (t FiveTuple) String() string {
	return fmt.Sprintf("%v %v:%d > %v:%d", t.Proto, t.Src, t.SrcPort, t.Dst, t.DstPort)
}

// Reverse returns the tuple of the opposite direction of the same
// conversation.
func (t FiveTuple) Reverse() FiveTuple {
	return FiveTuple{Src: t.Dst, Dst: t.Src, SrcPort: t.DstPort, DstPort: t.SrcPort, Proto: t.Proto}
}

// Key128 is the 128-bit wire format of a key-value-store key. The paper's
// design stores 104-bit five-tuple keys padded to 128 bits (one SRAM word).
// It is comparable and is the on-the-wire key type of the backing-store
// protocol.
type Key128 [16]byte

// Pack packs the five-tuple into its 128-bit key representation:
// src(4) dst(4) sport(2) dport(2) proto(1) pad(3).
func (t FiveTuple) Pack() Key128 {
	var k Key128
	copy(k[0:4], t.Src[:])
	copy(k[4:8], t.Dst[:])
	be.PutUint16(k[8:10], t.SrcPort)
	be.PutUint16(k[10:12], t.DstPort)
	k[12] = byte(t.Proto)
	return k
}

const (
	fnvPrime64 uint64 = 1099511628211
)

// Hash returns a 64-bit hash of the key: the two 64-bit halves are
// spread by independent odd multipliers and the combination is run
// through a murmur3-style avalanche finalizer, so every input bit
// reaches every output bit (a plain word-fold would leave the low-order
// bits a function of only low-order input bits, biasing the cache's
// hash%nBuckets index). This is the datapath's per-packet hash — two
// wide multiplies and a finalizer, not a byte loop, because it sits on
// the one-update-per-packet critical path. A fixed function is used
// instead of hash/maphash so bucket placement — and therefore the
// reproduced figures — is deterministic across processes.
func (k Key128) Hash() uint64 { return HashWords(k.Words()) }

// SetWords assembles the key in place from its two little-endian words:
// two word stores straight into k, where building a Key128 value and
// assigning it goes through a 16-byte copy of two 8-byte stores, which
// stalls the store buffer once per packet.
func (k *Key128) SetWords(lo, hi uint64) {
	binary.LittleEndian.PutUint64(k[0:8], lo)
	binary.LittleEndian.PutUint64(k[8:16], hi)
}

// Words returns the key's two little-endian words (SetWords' inverse).
func (k *Key128) Words() (lo, hi uint64) {
	return binary.LittleEndian.Uint64(k[0:8]), binary.LittleEndian.Uint64(k[8:16])
}

// HashWords is Hash on a key held as its two little-endian words — for a
// caller that assembled the key in registers (SetWords) and would
// otherwise read it back from memory to hash it.
func HashWords(lo, hi uint64) uint64 {
	h := lo*0x9e3779b97f4a7c15 ^ hi*0xc4ceb9fe1a85ec53
	h ^= h >> 32
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// FastHash returns a 64-bit hash of the five-tuple. It is symmetric under
// Reverse (A→B and B→A hash alike), matching gopacket's Flow.FastHash
// contract, which makes it suitable for assigning both directions of a
// conversation to one shard.
func (t FiveTuple) FastHash() uint64 {
	a := t.Pack()
	b := t.Reverse().Pack()
	ha, hb := a.Hash(), b.Hash()
	if ha < hb {
		return ha*fnvPrime64 ^ hb
	}
	return hb*fnvPrime64 ^ ha
}
