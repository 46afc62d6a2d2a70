package netstore

import (
	"io"
	"net"
	"testing"
	"time"
	"unsafe"

	"perfq/internal/backing"
	"perfq/internal/compiler"
	"perfq/internal/fold"
	"perfq/internal/kvstore"
	"perfq/internal/lang"
	"perfq/internal/trace"
)

// openBufs records every buffer a queue's open chunk has held. A buffer
// is allocated only to become the open chunk, so after each call that
// may publish or steal, len(seen) is how many buffers the queue made.
type openBufs map[*byte]bool

func (s openBufs) see(q *chunkQueue) { s[unsafe.SliceData(q.open.buf)] = true }

// TestChunkQueueBuffersFollowOccupancy: a deep queue whose consumer takes
// each chunk as it is published holds the open chunk, the chunk in the
// consumer's hands and one free buffer — not one buffer per ring slot it
// passed through.
func TestChunkQueueBuffersFollowOccupancy(t *testing.T) {
	const n = 10000
	q := newChunkQueue(fold.Count(), 32768, DefaultSyncBatch)
	seen := openBufs{}
	seen.see(q)
	var spare []byte
	shipped := 0
	for i := 0; i < n; i++ {
		q.offer(&kvstore.Eviction{Key: keyN(i), State: []float64{float64(i)}})
		seen.see(q)
		if q.head != q.tail {
			w := q.next(spare, false)
			shipped, spare = shipped+w.frames, w.buf
		}
	}
	w := q.next(spare, true) // the partial chunk left open
	seen.see(q)
	if shipped += w.frames; shipped != n {
		t.Fatalf("consumer took %d evictions, want %d", shipped, n)
	}
	if len(seen) > 3 {
		t.Fatalf("queue allocated %d chunk buffers for %d published chunks, want at most 3", len(seen), n/DefaultSyncBatch)
	}
}

// TestChunkQueueOverflowBuffers: a queue driven to overflow, its consumer
// taking a chunk now and then, holds at most a buffer per ring slot, the
// open chunk's and the consumer's, and its books are the drop-oldest
// books: every eviction offered is queued, taken or counted overflow.
func TestChunkQueueOverflowBuffers(t *testing.T) {
	const depth, perChunk, n = 64, 4, 10000
	q := newChunkQueue(fold.Count(), depth, perChunk)
	seen := openBufs{}
	var spare []byte
	taken, dropped := 0, 0
	for i := 0; i < n; i++ {
		ok, d := q.offer(&kvstore.Eviction{Key: keyN(i), State: []float64{float64(i)}})
		if !ok {
			t.Fatalf("offer %d rejected", i)
		}
		dropped += d
		seen.see(q)
		if i%100 == 99 {
			w := q.next(spare, false)
			taken, spare = taken+w.frames, w.buf
		}
	}
	offered, overflow, queued := q.counts()
	if offered != n || int(overflow) != dropped || int(overflow)+queued+taken != n {
		t.Fatalf("offered %d, overflow %d (offers reported %d), queued %d, taken %d: the books do not balance", offered, overflow, dropped, queued, taken)
	}
	if overflow == 0 || overflow%perChunk != 0 {
		t.Fatalf("overflow %d, want whole chunks dropped", overflow)
	}
	if slots := len(q.ring); len(seen) > slots+2 {
		t.Fatalf("queue allocated %d chunk buffers for %d ring slots, want at most %d", len(seen), slots, slots+2)
	}
}

// fullBatch is a batch of fold.BlockSize linear evictions over keys
// base, base+1, ….
func fullBatch(base int) *kvstore.EvictBatch {
	b := &kvstore.EvictBatch{N: fold.BlockSize}
	rec := &trace.Record{Tin: 100, Tout: 400}
	for l := range b.Keys[:b.N] {
		b.Keys[l], b.State[l], b.P[l], b.First[l] = keyN(base+l), []float64{float64(l)}, []float64{0.5}, rec
	}
	return b
}

// TestPoolHandleBatchAllocs: while a backend's queue has a free buffer,
// handing the pool a batch and shipping it allocates nothing anywhere in
// the process — the encode, the write, the server's decode and apply.
func TestPoolHandleBatchAllocs(t *testing.T) {
	f := fold.Ewma(lat(), 0.25)
	srv, err := NewServer("127.0.0.1:0", f)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p, err := DialPool([]string{srv.Addr()}, f, PoolConfig{ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	b := fullBatch(0)
	// One full chunk per batch, shipped and acked before the next: the
	// queue then always has the buffer the consumer gave back.
	ship := func() {
		p.HandleBatch(b)
		for p.Acked()+p.DroppedEvictions() < p.Offered() {
			time.Sleep(20 * time.Microsecond) // AllocsPerRun runs on one P: let the poller in
		}
	}
	for i := 0; i < 10; i++ {
		ship()
	}
	if allocs := testing.AllocsPerRun(100, ship); allocs > 0 {
		t.Fatalf("HandleBatch allocates %.2f objects per %d-lane batch, want 0", allocs, b.N)
	}
	if p.Acked() != 111*fold.BlockSize || p.DroppedEvictions() != 0 {
		t.Fatalf("acked %d, dropped %d; want %d, 0", p.Acked(), p.DroppedEvictions(), 111*fold.BlockSize)
	}
}

// TestPoolHandleBatchRoutesLikeOwner: every lane of a batch lands on the
// backend Owner names for its key, a down backend's lanes move to the
// survivor, and with every backend down each lane is counted dropped —
// with applied + dropped = offered, per backend and for the pool.
func TestPoolHandleBatchRoutesLikeOwner(t *testing.T) {
	f := fold.Count()
	srvs := make([]*Server, 2)
	addrs := make([]string, 2)
	for i := range srvs {
		srv, err := NewServer("127.0.0.1:0", f)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		srvs[i], addrs[i] = srv, srv.Addr()
	}
	p, err := DialPool(addrs, f, PoolConfig{ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	stored := func(i int) int { // epochs of keys 0..39 on backend i
		srvs[i].mu.Lock()
		defer srvs[i].mu.Unlock()
		n := 0
		for k := 0; k < 40; k++ {
			n += len(srvs[i].Store().Epochs(keyN(k)))
		}
		return n
	}

	b := &kvstore.EvictBatch{N: fold.BlockSize}
	for l := range b.Keys[:b.N] {
		b.Keys[l], b.State[l] = keyN(l%40), []float64{1} // keys 0..23 twice
	}
	p.HandleBatch(b)
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	for l, key := range b.Keys[:b.N] {
		for i, srv := range srvs {
			srv.mu.Lock()
			found := len(srv.Store().Epochs(key)) > 0
			srv.mu.Unlock()
			if found != (i == p.Owner(key)) {
				t.Fatalf("lane %d: key on backend %d is %v, Owner says %d", l, i, found, p.Owner(key))
			}
		}
	}

	p.backends[1].health.healthy.Store(false)
	before := stored(0)
	p.HandleBatch(b)
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := stored(0) - before; got != b.N {
		t.Fatalf("backend 0 took %d lanes with backend 1 down, want all %d", got, b.N)
	}
	p.backends[0].health.healthy.Store(false)
	p.HandleBatch(b)
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	if p.Offered() != 3*fold.BlockSize || p.Acked() != 2*fold.BlockSize || p.DroppedEvictions() != fold.BlockSize {
		t.Fatalf("offered %d, acked %d, dropped %d; want %d, %d, %d", p.Offered(), p.Acked(), p.DroppedEvictions(),
			3*fold.BlockSize, 2*fold.BlockSize, fold.BlockSize)
	}
	for _, be := range p.backends {
		be.health.healthy.Store(true) // so Stats reads the servers' books
	}
	for _, bs := range p.Stats() {
		if bs.Server.Applied()+bs.Dropped != bs.Offered {
			t.Fatalf("%s: applied %d + dropped %d != offered %d", bs.Addr, bs.Server.Applied(), bs.Dropped, bs.Offered)
		}
	}
}

// trioFold is a linear fold of three state variables.
func trioFold(t *testing.T) *fold.Func {
	t.Helper()
	chk, err := lang.Check(lang.MustParse(`
def trio((n, lat, len), (tin, tout, pkt_len)):
    n = n + 1
    lat = 0.5 * lat + (tout - tin)
    len = 0.25 * len + pkt_len
SELECT 5tuple, trio GROUPBY 5tuple
`))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := compiler.Compile(chk)
	if err != nil {
		t.Fatal(err)
	}
	f := plan.Programs[0].Fold
	if f.StateLen() != 3 || f.Merge != fold.MergeLinear {
		t.Fatalf("trio: m = %d, merge %v; want 3, linear", f.StateLen(), f.Merge)
	}
	return f
}

// TestServerBatchesMatchReference pins the server's batched apply to the
// frame-at-a-time loop (refServe) on streams shaped at its batch
// boundaries, for m = 1 and m = 3: a run of more than two batches of
// frames, the op switching between opMergeP and opAppend and on to
// opMerge mid-run, a key twice in one batch — new to the store the first
// time — and runs cut by an opSync and, at the end, by a truncated frame.
// Both stores must agree in Stats, Accuracy and every key's value and
// epochs.
func TestServerBatchesMatchReference(t *testing.T) {
	for _, f := range []*fold.Func{fold.Ewma(lat(), 0.25), trioFold(t)} {
		m := f.StateLen()
		state, p := make([]float64, m), make([]float64, m*m)
		frame := func(i int, op byte) []byte {
			for k := range state {
				state[k] = float64(i) + 0.125*float64(k)
			}
			for k := range p {
				p[k] = 0.5 + 0.01*float64((i+k)%7)
			}
			ev := kvstore.Eviction{Key: keyN(i % 37), State: state}
			switch op {
			case opMerge:
				ev.P, ev.FirstRec = p, &trace.Record{Tin: int64(i), Tout: int64(3 * i), PktLen: uint32(40 + i)}
			case opMergeP:
				ev.P = p
			}
			return appendEvictionFrame(nil, m, &ev, f.Merge)
		}
		input := appendFrame(nil, opHello, helloPayload(m, 0))
		ops := func(from, to int, op byte) {
			for i := from; i < to; i++ {
				input = append(input, frame(i, op)...)
			}
		}
		ops(0, 60, opMergeP) // keys 0..36, then 0..22 again: in the first batch, new to the store
		ops(60, 75, opAppend)
		ops(75, 170, opMergeP)
		ops(170, 200, opMerge)
		input = appendFrame(input, opSync, nil)
		ops(200, 230, opAppend)
		ops(230, 300, opMerge)
		input = appendFrame(input, opSync, nil)
		ops(300, 340, opMergeP)
		last := frame(340, opMergeP)
		input = append(input, last[:len(last)-3]...)

		srv, err := newServer([]*fold.Func{f})
		if err != nil {
			t.Fatal(err)
		}
		client, server := net.Pipe()
		served := make(chan struct{})
		go func() {
			defer close(served)
			srv.serve(server)
		}()
		go io.Copy(io.Discard, client)
		client.Write(input)
		client.Close()
		<-served

		want := backing.New(f)
		refServe(input, []*fold.Func{f}, []*backing.Store{want})
		got := srv.stores[0]
		if got.Stats() != want.Stats() || want.Stats().Merges == 0 || want.Stats().Appends == 0 {
			t.Fatalf("m=%d: server store %+v, reference %+v", m, got.Stats(), want.Stats())
		}
		gv, gt := got.Accuracy()
		if wv, wt := want.Accuracy(); gv != wv || gt != wt {
			t.Fatalf("m=%d: accuracy %d/%d, reference %d/%d", m, gv, gt, wv, wt)
		}
		for i := 0; i < want.Len(); i++ {
			key, ws, _ := want.At(i)
			if gs, _ := got.Get(key); !sameFloats(gs, ws) {
				t.Fatalf("m=%d key %d: %v, reference %v", m, i, gs, ws)
			}
			ge, we := got.Epochs(key), want.Epochs(key)
			if len(ge) != len(we) {
				t.Fatalf("m=%d key %d: %d epochs, reference %d", m, i, len(ge), len(we))
			}
			for e := range we {
				if !sameFloats(ge[e].State, we[e].State) {
					t.Fatalf("m=%d key %d epoch %d: %v, reference %v", m, i, e, ge[e].State, we[e].State)
				}
			}
		}
	}
}
