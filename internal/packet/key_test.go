package packet

import (
	"testing"
	"testing/quick"
)

// unpack reverses FiveTuple.Pack from the documented layout:
// src(4) dst(4) sport(2) dport(2) proto(1) pad(3).
func unpack(k Key128) FiveTuple {
	var t FiveTuple
	copy(t.Src[:], k[0:4])
	copy(t.Dst[:], k[4:8])
	t.SrcPort = be.Uint16(k[8:10])
	t.DstPort = be.Uint16(k[10:12])
	t.Proto = Proto(k[12])
	return t
}

func TestPackUnpackRoundTrip(t *testing.T) {
	f := func(src, dst uint32, sp, dp uint16, proto uint8) bool {
		want := FiveTuple{
			Src: Addr4FromUint32(src), Dst: Addr4FromUint32(dst),
			SrcPort: sp, DstPort: dp, Proto: Proto(proto),
		}
		k := want.Pack()
		return unpack(k) == want && k[13] == 0 && k[14] == 0 && k[15] == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFastHashSymmetric(t *testing.T) {
	f := func(src, dst uint32, sp, dp uint16) bool {
		ft := FiveTuple{
			Src: Addr4FromUint32(src), Dst: Addr4FromUint32(dst),
			SrcPort: sp, DstPort: dp, Proto: ProtoTCP,
		}
		return ft.FastHash() == ft.Reverse().FastHash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReverseInvolution(t *testing.T) {
	ft := FiveTuple{Src: Addr4{1, 2, 3, 4}, Dst: Addr4{5, 6, 7, 8}, SrcPort: 9, DstPort: 10, Proto: ProtoUDP}
	if got := ft.Reverse().Reverse(); got != ft {
		t.Errorf("Reverse∘Reverse = %v, want %v", got, ft)
	}
}

func TestKeyHashDeterministic(t *testing.T) {
	k := FiveTuple{Src: Addr4{10, 0, 0, 1}, Dst: Addr4{10, 0, 0, 2}, SrcPort: 80, DstPort: 8080, Proto: ProtoTCP}.Pack()
	// The hash must be stable across runs and platforms; pin the value.
	if h1, h2 := k.Hash(), k.Hash(); h1 != h2 {
		t.Fatalf("hash not deterministic within a run: %x vs %x", h1, h2)
	}
	const want = uint64(0x461530938a95d190)
	if got := k.Hash(); got != want {
		// If this fails the hash implementation changed; figures would shift.
		t.Errorf("pinned hash = %#x, want %#x", got, want)
	}
}

func TestHashDispersion(t *testing.T) {
	// All 64 low-order bucket indices should be populated by a modest
	// number of sequential flows if the hash disperses adequately.
	seen := make(map[uint64]bool)
	for i := 0; i < 4096; i++ {
		ft := FiveTuple{
			Src: Addr4FromUint32(0x0a000000 + uint32(i)), Dst: Addr4{10, 0, 0, 2},
			SrcPort: uint16(1024 + i), DstPort: 443, Proto: ProtoTCP,
		}
		seen[ft.Pack().Hash()%64] = true
	}
	if len(seen) != 64 {
		t.Errorf("only %d/64 buckets hit by 4096 flows", len(seen))
	}
}

func BenchmarkKeyHash(b *testing.B) {
	k := FiveTuple{Src: Addr4{10, 0, 0, 1}, Dst: Addr4{10, 0, 0, 2}, SrcPort: 80, DstPort: 8080, Proto: ProtoTCP}.Pack()
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= k.Hash()
	}
	_ = sink
}
