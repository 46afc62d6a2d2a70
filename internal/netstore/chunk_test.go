package netstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"perfq/internal/backing"
	"perfq/internal/fold"
	"perfq/internal/kvstore"
	"perfq/internal/obs"
	"perfq/internal/packet"
	"perfq/internal/trace"
)

// evictionPayload is what the reference decoder returns.
type evictionPayload struct {
	key   packet.Key128
	state []float64
	p     []float64
	rec   *trace.Record
}

// decodeEviction is the allocating frame-body decoder the server used
// before it decoded in place. It stays as the reference the in-place
// decoder is compared with.
func decodeEviction(op byte, body []byte, m int) (*evictionPayload, error) {
	ev := &evictionPayload{state: make([]float64, m)}
	if len(body) < 16 {
		return nil, ErrBadFrame
	}
	copy(ev.key[:], body[:16])
	body = body[16:]
	var err error
	if body, err = getFloats(body, ev.state); err != nil {
		return nil, err
	}
	if op == opMerge || op == opMergeP {
		ev.p = make([]float64, m*m)
		if body, err = getFloats(body, ev.p); err != nil {
			return nil, err
		}
	}
	if op == opMerge {
		if len(body) < trace.RecordSize {
			return nil, ErrBadFrame
		}
		ev.rec = new(trace.Record)
		trace.UnmarshalRecord(body[:trace.RecordSize], ev.rec)
		body = body[trace.RecordSize:]
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, len(body))
	}
	return ev, nil
}

// The one-eviction entry points the tests drive, each a call into the
// batch code with a one-lane batch.

// appendEvictionFrame appends one eviction's wire frame, as a chunk
// holds it.
func appendEvictionFrame(b []byte, m int, ev *kvstore.Eviction, kind fold.MergeKind) []byte {
	return appendLaneFrame(b, m, ev.Key, ev.State, ev.P, ev.FirstRec, kind)
}

func (q *chunkQueue) offer(ev *kvstore.Eviction) (queued bool, dropped int) {
	var one kvstore.EvictBatch
	return q.offerBatch(one.One(ev), 1)
}

// Offer reports whether ev was queued.
func (s *Shipper) Offer(ev *kvstore.Eviction) bool {
	var one kvstore.EvictBatch
	return s.offerBatch(one.One(ev), 1)
}

// decode decodes one eviction frame body into an emptied batch and
// returns its lane.
func (d *evictionDecoder) decode(op byte, body []byte) (*kvstore.Eviction, error) {
	d.batch.N = 0
	if err := d.add(op, body); err != nil {
		return nil, err
	}
	ev := new(kvstore.Eviction)
	d.batch.Lane(0, ev)
	return ev, nil
}

// legacyFrame is the byte sequence the pre-chunk client put on the wire
// for one eviction: writeFrame's 5-byte header, then encodeEviction's
// payload, written out by hand so the test does not share a line with
// the encoder it checks.
func legacyFrame(m int, ev *kvstore.Eviction, kind fold.MergeKind) []byte {
	var op byte
	switch {
	case kind == fold.MergeLinear && ev.P != nil && ev.FirstRec != nil:
		op = opMerge
	case kind == fold.MergeLinear && ev.P != nil:
		op = opMergeP
	case kind == fold.MergeAssoc:
		op = opCombine
	default:
		op = opAppend
	}
	floats := func(b []byte, vals []float64) []byte {
		for _, v := range vals {
			var u [8]byte
			binary.LittleEndian.PutUint64(u[:], math.Float64bits(v))
			b = append(b, u[:]...)
		}
		return b
	}
	payload := append([]byte(nil), ev.Key[:]...)
	payload = floats(payload, ev.State[:m])
	if op == opMerge || op == opMergeP {
		payload = floats(payload, ev.P[:m*m])
	}
	if op == opMerge {
		var rb [trace.RecordSize]byte
		trace.MarshalRecord(rb[:], ev.FirstRec)
		payload = append(payload, rb[:]...)
	}
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(1+len(payload)))
	hdr[4] = op
	return append(hdr[:], payload...)
}

// evictionShapes is one eviction per op, for an m-wide state.
func evictionShapes(m int) []struct {
	kind fold.MergeKind
	ev   kvstore.Eviction
} {
	state, p := make([]float64, m), make([]float64, m*m)
	for i := range state {
		state[i] = 1.5 + float64(i)
	}
	for i := range p {
		p[i] = 0.25 * float64(i+1)
	}
	rec := &trace.Record{Tin: 100, Tout: 450, PktLen: 1500, SrcPort: 7}
	return []struct {
		kind fold.MergeKind
		ev   kvstore.Eviction
	}{
		{fold.MergeLinear, kvstore.Eviction{Key: keyN(1), State: state, P: p, FirstRec: rec}}, // opMerge
		{fold.MergeLinear, kvstore.Eviction{Key: keyN(2), State: state, P: p}},                // opMergeP
		{fold.MergeLinear, kvstore.Eviction{Key: keyN(3), State: state}},                      // opAppend
		{fold.MergeAssoc, kvstore.Eviction{Key: keyN(4), State: state}},                       // opCombine
		{fold.MergeNone, kvstore.Eviction{Key: keyN(5), State: state}},                        // opAppend
	}
}

// TestChunkFramesAreLegacyFrames: a chunk is a concatenation of the
// frames a pre-chunk client wrote — byte for byte, every op, m = 1 and
// 2 — and never longer than the room a chunk reserves per frame.
func TestChunkFramesAreLegacyFrames(t *testing.T) {
	for _, m := range []int{1, 2} {
		for i, sh := range evictionShapes(m) {
			got := appendEvictionFrame(nil, m, &sh.ev, sh.kind)
			if want := legacyFrame(m, &sh.ev, sh.kind); !bytes.Equal(got, want) {
				t.Errorf("m=%d shape %d:\n got %x\nwant %x", m, i, got, want)
			}
			if len(got) > maxEvictionFrame(m) {
				t.Errorf("m=%d shape %d: %d bytes, maxEvictionFrame says %d", m, i, len(got), maxEvictionFrame(m))
			}
		}
	}
}

// TestLegacyStreamAppliedIdentically: a pre-chunk client's byte stream —
// HELLO, then single frames, each written header first and body second
// as its bufio flushes could split them, then a SYNC — is applied
// exactly as a local store applies the same evictions.
func TestLegacyStreamAppliedIdentically(t *testing.T) {
	f := fold.Ewma(lat(), 0.25)
	srv, err := NewServer("127.0.0.1:0", f)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))

	ack := func(what string) {
		t.Helper()
		var resp [5]byte
		if _, err := io.ReadFull(conn, resp[:]); err != nil || resp[4] != StatusOK {
			t.Fatalf("%s: reply %x, err %v", what, resp, err)
		}
	}
	hello := []byte{13, 0, 0, 0, opHello, 0x56, 0x4b, 0x51, 0x50, 1, 0, 0, 0, 1, 0, 0, 0}
	if _, err := conn.Write(hello); err != nil {
		t.Fatal(err)
	}
	ack("hello")

	want := backing.New(f)
	for i := 0; i < 200; i++ {
		rec := &trace.Record{Tin: int64(i), Tout: int64(i) + 17 + int64(i%5)}
		ev := kvstore.Eviction{Key: keyN(i % 23), State: []float64{float64(i)}, P: []float64{0.75}, FirstRec: rec}
		if i%3 == 0 {
			ev.FirstRec = nil // opMergeP
		}
		want.HandleEviction(&ev)
		frame := legacyFrame(1, &ev, f.Merge)
		conn.Write(frame[:5])
		conn.Write(frame[5:])
	}
	if _, err := conn.Write([]byte{1, 0, 0, 0, opSync}); err != nil {
		t.Fatal(err)
	}
	ack("sync")

	srv.mu.Lock()
	defer srv.mu.Unlock()
	got := srv.Store()
	if got.Stats() != want.Stats() {
		t.Fatalf("server store %+v, local store %+v", got.Stats(), want.Stats())
	}
	for i := 0; i < want.Len(); i++ {
		key, ws, _ := want.At(i)
		gs, ok := got.Get(key)
		if !ok || gs[0] != ws[0] {
			t.Fatalf("key %d: server %v (found %v), local %v", i, gs, ok, ws)
		}
	}
}

// drainChunk decodes the State[0] of every frame of a popped chunk.
func drainChunk(t *testing.T, c chunk, m int) []float64 {
	t.Helper()
	dec := newEvictionDecoder(m)
	var out []float64
	for b := c.buf; len(b) > 0; {
		op, body, size, err := parseFrame(b)
		if err != nil || size == 0 {
			t.Fatalf("chunk holds a broken frame: size %d, err %v", size, err)
		}
		ev, err := dec.decode(op, body)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ev.State[0])
		b = b[size:]
	}
	if len(out) != c.frames {
		t.Fatalf("chunk says %d frames, holds %d", c.frames, len(out))
	}
	return out
}

// TestEvictQueueDropOldest pins the overflow policy at chunk
// granularity: the queue keeps at least QueueDepth of the NEWEST
// evictions, counts exactly the evictions that left with each dropped
// chunk, and hands out what survives in offer order.
func TestEvictQueueDropOldest(t *testing.T) {
	const depth, perChunk, n = 8, 4, 30
	q := newChunkQueue(fold.Count(), depth, perChunk)
	var dropped int
	for i := 0; i < n; i++ {
		ok, d := q.offer(&kvstore.Eviction{Key: keyN(i), State: []float64{float64(i)}})
		if !ok {
			t.Fatalf("offer %d rejected", i)
		}
		dropped += d
	}
	offered, overflow, queued := q.counts()
	if offered != n {
		t.Fatalf("offered = %d, want %d", offered, n)
	}
	// 7 full chunks were published into 2 slots: 5 dropped, 4 evictions each.
	if overflow != 20 || dropped != 20 {
		t.Fatalf("overflow = %d (offers reported %d), want 20", overflow, dropped)
	}
	if queued != n-20 || queued < depth {
		t.Fatalf("queued = %d, want %d and at least depth %d", queued, n-20, depth)
	}
	spare := make([]byte, 0, q.chunkCap)
	next := 20.0
	for queued > 0 {
		w := q.next(spare, true)
		if w.frames == 0 {
			t.Fatalf("queue ran dry with %d evictions unaccounted", queued)
		}
		for _, v := range drainChunk(t, w.chunk, 1) {
			if v != next {
				t.Fatalf("popped eviction %v, want %v (oldest must have been dropped, order kept)", v, next)
			}
			next++
		}
		queued -= w.frames
		spare = w.buf
	}
	if w := q.next(spare, false); w.frames != 0 || w.done != nil || w.closed {
		t.Fatalf("empty queue handed out %+v", w)
	}
}

// TestEvictQueueCloseDrains: close refuses further offers, what was
// queued — the partial open chunk included — is still handed out, and
// next reports closed only once the queue is empty.
func TestEvictQueueCloseDrains(t *testing.T) {
	q := newChunkQueue(fold.Count(), 8, 4)
	q.offer(&kvstore.Eviction{Key: keyN(1), State: []float64{1}})
	q.close()
	if ok, _ := q.offer(&kvstore.Eviction{Key: keyN(2), State: []float64{2}}); ok {
		t.Fatal("offer accepted after close")
	}
	if offered, _, _ := q.counts(); offered != 2 {
		t.Fatalf("offered = %d, want 2 (a refused offer is still an offer)", offered)
	}
	spare := make([]byte, 0, q.chunkCap)
	// With replies owed the consumer is not idle: the partial stays put
	// and the queue is not yet closed.
	if w := q.next(spare, false); w.frames != 0 || w.closed {
		t.Fatalf("busy consumer got %+v, want nothing", w)
	}
	w := q.next(spare, true)
	if got := drainChunk(t, w.chunk, 1); len(got) != 1 || got[0] != 1 {
		t.Fatalf("after close popped %v, want the queued eviction first", got)
	}
	if w := q.next(w.buf, true); !w.closed {
		t.Fatalf("drained queue: %+v, want closed", w)
	}
}

// TestEvictQueueBarrierOrder: a barrier comes due only after every
// chunk offered before it — published or still open — has been handed
// out, and not before chunks offered after it get a chance to wait.
func TestEvictQueueBarrierOrder(t *testing.T) {
	q := newChunkQueue(fold.Count(), 64, 4)
	for i := 0; i < 6; i++ { // one full chunk, two evictions open
		q.offer(&kvstore.Eviction{Key: keyN(i), State: []float64{float64(i)}})
	}
	done := make(chan int, 1)
	q.postBarrier(done, 7)
	spare := make([]byte, 0, q.chunkCap)
	for _, want := range []int{4, 2} {
		w := q.next(spare, true)
		if w.frames != want {
			t.Fatalf("before the barrier: %d frames, want %d", w.frames, want)
		}
		spare = w.buf
	}
	if w := q.next(spare, true); w.done == nil || w.id != 7 {
		t.Fatalf("after the chunks: %+v, want the barrier", w)
	}
	// A barrier posted on a closed queue completes at once.
	q.close()
	q.postBarrier(done, 9)
	if id := <-done; id != 9 {
		t.Fatalf("closed-queue barrier answered %d", id)
	}
}

// TestPoolChunkedConcurrentProducers runs two producers over disjoint
// keys against a live two-backend pool while a third goroutine Syncs.
// Every tenth round both producers pause one key into it, and the pause
// lasts until the books balance: 2 keys past a multiple of 80 have been
// offered, so unless a partial chunk already left, some backend's open
// chunk is partial and the books balance only once its shipper has gone
// idle and stolen it. Every Sync covers what was offered before it; at
// the end the books balance with nothing dropped, partial chunks were
// shipped, and each key's epochs reached its server in the order they
// were offered.
func TestPoolChunkedConcurrentProducers(t *testing.T) {
	last := &fold.Func{Prog: &fold.Program{
		Name: "last", NumState: 1,
		Body: []fold.Stmt{fold.Assign{Dst: 0, RHS: fold.FieldRef(trace.FieldPktLen)}},
	}}
	const producers, keys, rounds = 2, 40, 150
	srvs := make([]*Server, 2)
	addrs := make([]string, 2)
	for i := range srvs {
		srv, err := NewServer("127.0.0.1:0", last)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		srvs[i], addrs[i] = srv, srv.Addr()
	}
	p, err := DialPool(addrs, last, PoolConfig{QueueDepth: producers * keys * rounds, SyncBatch: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // Sync races offers and publishes
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			before := p.Offered()
			if err := p.Sync(); err != nil {
				t.Errorf("sync: %v", err)
				return
			}
			if settled := p.Acked() + p.DroppedEvictions(); settled < before {
				t.Errorf("Sync returned with %d settled, %d were offered before it", settled, before)
				return
			}
		}
	}()
	paused, resume := make(chan struct{}), make(chan struct{})
	go func() { // holds each pause until the books balance
		for r := 0; r < rounds; r += 10 {
			for pr := 0; pr < producers; pr++ {
				<-paused
			}
			for deadline := time.Now().Add(10 * time.Second); p.Acked()+p.DroppedEvictions() < p.Offered(); {
				if time.Now().After(deadline) {
					t.Errorf("round %d: the books did not balance while the producers paused: offered %d, acked %d", r, p.Offered(), p.Acked())
					break
				}
				time.Sleep(20 * time.Microsecond)
			}
			for pr := 0; pr < producers; pr++ {
				resume <- struct{}{}
			}
		}
	}()
	var pwg sync.WaitGroup
	for pr := 0; pr < producers; pr++ {
		pwg.Add(1)
		go func(pr int) {
			defer pwg.Done()
			for r := 0; r < rounds; r++ {
				for k := 0; k < keys; k++ {
					ev := kvstore.Eviction{Key: keyN(pr*keys + k), State: []float64{float64(r)}}
					if err := p.HandleEviction(&ev); err != nil {
						t.Errorf("producer %d: %v", pr, err)
					}
					if r%10 == 0 && k == 0 {
						paused <- struct{}{}
						<-resume
					}
				}
			}
		}(pr)
	}
	pwg.Wait()
	close(stop)
	wg.Wait()
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}

	const total = producers * keys * rounds
	if p.Offered() != total || p.Acked() != total || p.DroppedEvictions() != 0 {
		t.Fatalf("offered=%d acked=%d dropped=%d, want %d/%d/0", p.Offered(), p.Acked(), p.DroppedEvictions(), total, total)
	}
	var writes obs.HistSnap
	for _, b := range p.backends {
		var w obs.HistSnap
		b.ship.writeFrames.Snapshot(&w)
		if rt := b.ship.cl.syncNs.Count(); rt != w.Count {
			t.Errorf("%s: %d sync replies for %d chunk writes", b.addr, rt, w.Count)
		}
		writes.Merge(&w)
	}
	if writes.Sum != total {
		t.Fatalf("socket writes carried %d frames, want %d", writes.Sum, total)
	}
	if writes.Count*16 == writes.Sum {
		t.Error("every write was a full chunk: no partial chunk was ever stolen")
	}
	for k := 0; k < producers*keys; k++ {
		key := keyN(k)
		srv := srvs[p.Owner(key)]
		srv.mu.Lock()
		epochs := srv.Store().Epochs(key)
		srv.mu.Unlock()
		if len(epochs) != rounds {
			t.Fatalf("key %d: %d epochs at its server, want %d", k, len(epochs), rounds)
		}
		for r, e := range epochs {
			if e.State[0] != float64(r) {
				t.Fatalf("key %d: epoch %d arrived in position %d", k, int(e.State[0]), r)
			}
		}
	}
}

// TestPoolHandleEvictionAllocs: steady-state shipping allocates nothing
// anywhere in the process — not the producer's encode into the open
// chunk, not the shipper's write, not the server's decode and apply
// (AllocsPerRun counts every goroutine's mallocs).
func TestPoolHandleEvictionAllocs(t *testing.T) {
	f := fold.Ewma(lat(), 0.25)
	srv, err := NewServer("127.0.0.1:0", f)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p, err := DialPool([]string{srv.Addr()}, f, PoolConfig{QueueDepth: 1 << 16, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	rec := &trace.Record{Tin: 100, Tout: 400}
	ev := kvstore.Eviction{State: []float64{42}, P: []float64{0.5}, FirstRec: rec}
	i := 0
	offer := func() {
		ev.Key = keyN(i % 64)
		i++
		if err := p.HandleEviction(&ev); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up: every circulating chunk buffer allocated, every key stored.
	for j := 0; j < 20000; j++ {
		offer()
	}
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20000, offer); allocs > 0 {
		t.Fatalf("steady-state HandleEviction allocates %.3f objects/eviction, want 0", allocs)
	}
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	if d := p.DroppedEvictions(); d != 0 {
		t.Fatalf("dropped %d", d)
	}
}

// TestServerApplyRunAllocs: the server's apply loop — parse in place,
// decode into the connection's scratch, merge — allocates nothing per
// frame once its keys are stored.
func TestServerApplyRunAllocs(t *testing.T) {
	f := fold.Ewma(lat(), 0.25)
	if err := f.EnsureCompiled(); err != nil {
		t.Fatal(err)
	}
	store, dec := backing.New(f), newEvictionDecoder(1)
	var run []byte
	const frames = 48
	for i := 0; i < frames; i++ {
		sh := evictionShapes(1)[i%2] // opMerge, opMergeP
		sh.ev.Key = keyN(i % 16)
		run = appendEvictionFrame(run, 1, &sh.ev, f.Merge)
	}
	run = appendFrame(run, opSync, nil) // where a run ends
	apply := func() {
		used, err := applyRun(run, store, dec)
		if err != nil || used != len(run)-frameHeader {
			t.Fatalf("applyRun used %d of %d bytes, err %v", used, len(run), err)
		}
	}
	apply()
	if allocs := testing.AllocsPerRun(100, apply); allocs > 0 {
		t.Fatalf("apply loop allocates %.2f objects per %d-frame run, want 0", allocs, frames)
	}
	if got := store.Stats().Merges; got != 102*frames {
		t.Fatalf("merges = %d, want %d", got, 102*frames)
	}
}

// TestServerConnectionCap: MaxConns connections are served, the next
// one is closed before its HELLO and counted, and a slot freed by a
// disconnect is taken by the next dial.
func TestServerConnectionCap(t *testing.T) {
	f := fold.Count()
	srv, err := NewServer("127.0.0.1:0", f)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tracked := func() int {
		srv.connMu.Lock()
		defer srv.connMu.Unlock()
		return len(srv.conns)
	}
	waitTracked := func(want int) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); tracked() != want; {
			if time.Now().After(deadline) {
				t.Fatalf("server tracks %d connections, want %d", tracked(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	conns := make([]net.Conn, MaxConns)
	for i := range conns {
		c, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		defer c.Close()
		conns[i] = c
	}
	waitTracked(MaxConns)

	// The pool's startup probe is the connection over the cap: turned
	// away before its HELLO, it marks the backend down. No periodic
	// probe, so each probe below is the test's.
	p := onePool(t, srv.Addr(), f, PoolConfig{ProbeInterval: time.Hour})
	if p.Healthy()[0] {
		t.Fatal("connection over the cap completed a handshake")
	}
	if got := srv.Rejected(); got != 1 {
		t.Fatalf("Rejected() = %d, want 1", got)
	}
	if got := tracked(); got != MaxConns {
		t.Fatalf("a rejected connection is tracked: %d", got)
	}

	conns[0].Close()
	waitTracked(MaxConns - 1)
	p.backends[0].probe.probeOnce()
	if !p.Healthy()[0] {
		t.Fatal("probe after a slot freed did not mark the backend up")
	}
	waitTracked(MaxConns - 1) // the probe's connection is gone
	ship(t, p, keyN(1), 1)
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	if p.Acked() != 1 {
		t.Fatalf("dial after a slot freed: acked %d, want 1 (%s)", p.Acked(), p.StatsLine())
	}
	if got := srv.Rejected(); got != 1 {
		t.Fatalf("Rejected() = %d after an admitted dial, want 1", got)
	}
}
