package switchsim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"strings"
	"testing"
	"time"

	"perfq/internal/fold"
	"perfq/internal/kvstore"
	"perfq/internal/packet"
	"perfq/internal/queries"
	"perfq/internal/trace"
	"perfq/internal/tracegen"
)

// stageRecords is a run of 1..BlockSize records from seed whose every
// field is, at random, zero, all ones in its width or random; a dropped
// record's tout is trace.Infinity.
func stageRecords(rng *rand.Rand) []trace.Record {
	val := func(width uint) uint64 {
		switch rng.Intn(3) {
		case 0:
			return 0
		case 1:
			return math.MaxUint64 >> (64 - width)
		}
		return rng.Uint64() >> (64 - width)
	}
	recs := make([]trace.Record, 1+rng.Intn(fold.BlockSize))
	for i := range recs {
		r := &recs[i]
		r.SrcIP, r.DstIP = packet.Addr4FromUint32(uint32(val(32))), packet.Addr4FromUint32(uint32(val(32)))
		r.SrcPort, r.DstPort, r.Proto = uint16(val(16)), uint16(val(16)), packet.Proto(val(8))
		r.PktLen, r.PayloadLen, r.TCPSeq, r.TCPFlags = uint32(val(32)), uint32(val(32)), uint32(val(32)), uint8(val(8))
		r.PktUniq, r.QID = val(64), trace.QueueID(val(32))
		r.Tin, r.Tout = int64(val(64)), int64(val(64))
		if rng.Intn(4) == 0 {
			r.Tout = trace.Infinity
		}
		r.QSizeIn, r.QSizeOut, r.Path = uint32(val(32)), uint32(val(32)), uint32(val(32))
	}
	return recs
}

// FuzzStageColumns holds the block stage to the record-at-a-time
// accessors bit for bit: every column trace.Column fills is
// float64(rec.Field(f)), the columns the stage prepares are those, and a
// key over 1–4 raw fields packed from them — in its compiled mode and,
// when that is packed, in digest mode too — is KeySpec.Of's key with
// Key128.Hash's hash, on every lane the key stage was asked for.
func FuzzStageColumns(f *testing.F) {
	for _, seed := range []uint64{0, 1, 2, 3, 12, 2016, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		rng := rand.New(rand.NewSource(int64(seed)))
		recs := stageRecords(rng)
		var col [fold.BlockSize]float64
		for fid := trace.FieldID(0); int(fid) < trace.NumFields; fid++ {
			trace.Column(recs, fid, col[:])
			for l := range recs {
				if want := float64(recs[l].Field(fid)); math.Float64bits(col[l]) != math.Float64bits(want) {
					t.Fatalf("%v lane %d: column %v, Field %v", fid, l, col[l], want)
				}
			}
		}

		var names []string
		for _, i := range rng.Perm(trace.NumFields - 1)[:1+rng.Intn(4)] {
			names = append(names, trace.FieldID(i+1).String())
		}
		d, err := New(compilePlan(t, "SELECT COUNT GROUPBY "+strings.Join(names, ", ")), Config{Geometry: kvstore.SetAssociative(64, 8)})
		if err != nil {
			t.Fatal(err)
		}
		hp, st, set := d.hot, d.stages[0], d.shards[0].all
		mask := rng.Uint64() >> (fold.BlockSize - uint(len(recs)))
		st.prepare(hp, set, recs)
		st.pack(hp, 0, recs, mask)
		spec := hp.groups[0].spec
		for _, f := range spec.Fields {
			for l := range recs {
				if got, want := st.blk.Lane(f)[l], float64(recs[l].Field(f)); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("prepared %v lane %d: %v, Field %v", f, l, got, want)
				}
			}
		}
		check := func(mode string, keys []packet.Key128, hashes []uint64, of func(*trace.Record) packet.Key128) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				if want := of(&recs[l]); keys[l] != want || hashes[l] != want.Hash() {
					t.Fatalf("%s key(%s) lane %d: %x/%x, want %x/%x", mode, strings.Join(names, ","), l, keys[l], hashes[l], want, want.Hash())
				}
			}
		}
		check(fmt.Sprintf("packed=%v", spec.Packed), st.gkeys[0][:], st.ghash[0][:], spec.Of)
		if spec.Packed {
			digest := *spec
			digest.Packed = false
			var keys [fold.BlockSize]packet.Key128
			var hashes [fold.BlockSize]uint64
			digest.PackBlock(&st.blk, mask, keys[:], hashes[:])
			check("digest", keys[:], hashes[:], digest.Of)
		}
	})
}

// BenchmarkStage prices the block stage alone — field extraction, guards,
// coefficient columns and every program's key packing — per record, over
// 2^16 WAN-preset records cut into blocks, for fabric_multi's plan (a qid
// key and a five-tuple key), churn_merge's (two five-tuple stores) and
// the EWMA plan.
func BenchmarkStage(b *testing.B) {
	gen := tracegen.New(tracegen.WANConfig(12, time.Hour))
	recs := make([]trace.Record, 1<<16)
	for i := range recs {
		if err := gen.Next(&recs[i]); err != nil {
			b.Fatal(err)
		}
	}
	plans := []struct{ name, src string }{
		{"fabric_multi", queries.LossByQueue + "R4 = SELECT COUNT, SUM(pkt_len) GROUPBY 5tuple\n"},
		{"churn_merge", `const alpha = 0.125
def ewma(lat_est, (tin, tout)):
    lat_est = (1 - alpha) * lat_est + alpha * (tout - tin)
def nonmt((maxseq, nm_count), tcpseq):
    if maxseq > tcpseq:
        nm_count = nm_count + 1
    maxseq = max(maxseq, tcpseq)
R1 = SELECT 5tuple, ewma GROUPBY 5tuple
R2 = SELECT 5tuple, nonmt GROUPBY 5tuple WHERE proto == 6
`},
		{"ewma", queries.ByName("Latency EWMA").Source},
	}
	for _, p := range plans {
		b.Run(p.name, func(b *testing.B) {
			d, err := New(compilePlan(b, p.src), Config{})
			if err != nil {
				b.Fatal(err)
			}
			hp, st, set := d.hot, d.stages[0], d.shards[0].all
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for base := 0; base < len(recs); base += fold.BlockSize {
					blk := recs[base : base+fold.BlockSize]
					st.prepare(hp, set, blk)
					for pi := range hp.progs {
						st.pack(hp, hp.progs[pi].group, blk, st.match[pi])
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(recs)), "ns/record")
		})
	}
}
