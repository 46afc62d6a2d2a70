package netstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync/atomic"
	"time"

	"perfq/internal/fold"
	"perfq/internal/kvstore"
	"perfq/internal/obs"
	"perfq/internal/packet"
)

// Defaults for the hardened connection layer. Every frame exchange is
// deadline-bounded, reconnects are gated by capped exponential backoff
// (no sleeping on the caller's thread — a failed dial arms a retry-at
// gate and subsequent calls fail fast until it passes), and a simple
// circuit breaker turns a persistently dead peer into immediate cheap
// errors instead of repeated dial attempts.
const (
	DefaultIOTimeout       = 2 * time.Second
	DefaultDialTimeout     = 2 * time.Second
	DefaultBackoffMin      = 10 * time.Millisecond
	DefaultBackoffMax      = 1 * time.Second
	DefaultBreakerTrip     = 5
	DefaultBreakerCooldown = 1 * time.Second
)

// Connection-layer errors. Both mean "the peer is not reachable right
// now and the client refused to spend time proving it again"; callers
// shipping fire-and-forget evictions count them as drops.
var (
	// ErrCircuitOpen is returned while the circuit breaker is open: the
	// configured number of consecutive failures was reached and the
	// cooldown has not elapsed. No I/O is attempted.
	ErrCircuitOpen = errors.New("netstore: circuit breaker open")
	// ErrBackoff is returned when a reconnect is due but the exponential
	// backoff gate has not passed yet. No I/O is attempted.
	ErrBackoff = errors.New("netstore: reconnect backoff in effect")
)

// Options configures the hardened per-connection behavior. The zero
// value selects the defaults above; set a negative BreakerTrip to
// disable the breaker.
type Options struct {
	// IOTimeout bounds every frame exchange (write+flush, and the read
	// of request/response ops) on an established connection.
	IOTimeout time.Duration
	// DialTimeout bounds connect *and* the HELLO handshake — the
	// handshake used to be able to hang forever on a peer that accepts
	// but never responds.
	DialTimeout time.Duration
	// BackoffMin/BackoffMax bound the capped exponential reconnect
	// backoff. Each failed dial doubles the gate (plus jitter); a
	// successful dial resets it to BackoffMin.
	BackoffMin time.Duration
	BackoffMax time.Duration
	// BreakerTrip is the number of consecutive failures (dial or I/O)
	// that opens the circuit breaker; 0 selects the default, negative
	// disables. While open, operations return ErrCircuitOpen without
	// touching the network until BreakerCooldown has elapsed, then one
	// half-open trial is allowed.
	BreakerTrip     int
	BreakerCooldown time.Duration
	// Seed seeds the backoff jitter (deterministic tests). 0 uses a
	// fixed default seed.
	Seed int64
	// Dialer overrides the TCP dialer (fault injection, tests). It must
	// honor the timeout for the connect itself; the handshake deadline
	// is applied by the client on the returned conn.
	Dialer func(addr string, timeout time.Duration) (net.Conn, error)
	// Program selects which of the server's program stores this
	// connection binds to at HELLO. Program 0 keeps the legacy 12-byte
	// handshake; > 0 sends the extended 16-byte form.
	Program int
}

func (o Options) withDefaults() Options {
	if o.IOTimeout == 0 {
		o.IOTimeout = DefaultIOTimeout
	}
	if o.DialTimeout == 0 {
		o.DialTimeout = DefaultDialTimeout
	}
	if o.BackoffMin == 0 {
		o.BackoffMin = DefaultBackoffMin
	}
	if o.BackoffMax == 0 {
		o.BackoffMax = DefaultBackoffMax
	}
	if o.BreakerTrip == 0 {
		o.BreakerTrip = DefaultBreakerTrip
	}
	if o.BreakerCooldown == 0 {
		o.BreakerCooldown = DefaultBreakerCooldown
	}
	if o.Dialer == nil {
		o.Dialer = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	return o
}

// Client is a connection to a netstore server. It is not safe for
// concurrent use; the switch datapath is single-threaded per pipeline,
// which is the intended caller. Counter accessors (Evictions, Acked,
// Lost, Reconnects, BreakerOpen) may be read concurrently.
type Client struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	f    *fold.Func
	m    int
	buf  []byte
	addr string
	opts Options
	rng  *rand.Rand

	// Reusable response scratch (satellite: readResponse/Get used to
	// allocate per call). Get's returned state aliases stateBuf and is
	// valid until the next call. The header array lives on the struct
	// because io.ReadFull leaks its argument, so a stack array would
	// escape to the heap on every response.
	rbuf     []byte
	stateBuf []float64
	hdrR     [5]byte

	// Reconnect backoff gate + circuit breaker state. Written only by
	// the operating goroutine.
	backoff  time.Duration
	retryAt  time.Time
	failures int       // consecutive dial/I-O failures
	openedAt time.Time // breaker open instant (zero = closed)

	// Delivery accounting. An eviction written to the connection is
	// "in flight" until the reply to an opSync marker written after it
	// arrives; a connection that dies first moves everything in flight
	// to lost. unacked counts frames written since the last marker,
	// marks the markers still unanswered, oldest first, each with the
	// frames it covers. evictions counts every frame written (the
	// historical "shipped" stat).
	evictions  atomic.Uint64
	acked      atomic.Uint64
	lost       atomic.Uint64
	unacked    uint64
	marks      [maxMarkers]syncMark
	nmarks     int
	reconnects atomic.Uint64
	brkOpen    atomic.Bool

	// syncNs is the wall time from writing a marker to reading its
	// reply, one sample per reply: its count is the round trips made.
	syncNs obs.Hist

	// healthHint is set (from any goroutine) when an external health
	// probe has seen the peer alive; the next reconnect attempt clears
	// the breaker/backoff gates instead of waiting out a cooldown armed
	// while the peer was down.
	healthHint atomic.Bool

	// journal, when non-nil, receives breaker transition events
	// (open/half-open/close, msg = backend address). Set at construction
	// by the pool; nil-safe to append to.
	journal *obs.Journal
}

// maxMarkers is how many opSync markers may be unanswered on one
// connection. The shipper pipelines up to this many chunks behind their
// markers, so what a dying connection can lose — the at-most-once
// window — is at most maxMarkers chunks of frames.
const maxMarkers = 2

// syncMark is one opSync marker whose reply has not been read.
type syncMark struct {
	frames uint64    // evictions this marker's reply confirms applied
	at     time.Time // when the marker was written
}

// NoteReachable records that an out-of-band health check reached the
// peer, so a recovered backend rejoins on the next operation instead of
// after the breaker cooldown. Safe to call from any goroutine.
func (c *Client) NoteReachable() { c.healthHint.Store(true) }

// Dial connects and performs the HELLO handshake for the given fold.
// The connect and handshake together are bounded by DialTimeout.
func Dial(addr string, f *fold.Func, opts ...Options) (*Client, error) {
	c := NewClient(addr, f, opts...)
	if err := c.connect(); err != nil {
		return nil, err
	}
	return c, nil
}

// NewClient builds a client without connecting; the first operation
// dials lazily. Used by the pool, whose backends may be down at start.
func NewClient(addr string, f *fold.Func, opts ...Options) *Client {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	o = o.withDefaults()
	seed := o.Seed
	if seed == 0 {
		seed = 1
	}
	return &Client{
		f: f, m: f.StateLen(), addr: addr, opts: o,
		rng:     rand.New(rand.NewSource(seed)),
		backoff: o.BackoffMin,
	}
}

// ensureConn returns nil with an established connection, or fails fast:
// ErrCircuitOpen while the breaker cooldown runs, ErrBackoff while the
// reconnect gate is armed, or the dial/handshake error itself.
func (c *Client) ensureConn() error {
	if c.conn != nil {
		return nil
	}
	if c.healthHint.Swap(false) {
		c.failures = 0
		c.openedAt = time.Time{}
		c.retryAt = time.Time{}
		c.backoff = c.opts.BackoffMin
		if c.brkOpen.Swap(false) {
			c.journal.Append(obs.EvBreakerClose, 0, 0, c.addr)
		}
	}
	now := time.Now()
	if !c.openedAt.IsZero() {
		if now.Sub(c.openedAt) < c.opts.BreakerCooldown {
			return ErrCircuitOpen
		}
		// Half-open: fall through to one trial dial.
		c.journal.Append(obs.EvBreakerHalfOpen, int64(c.failures), 0, c.addr)
	} else if now.Before(c.retryAt) {
		return ErrBackoff
	}
	if err := c.connect(); err != nil {
		c.dialFailed(now)
		return err
	}
	return nil
}

// dialFailed arms the backoff gate (exponential, capped, jittered) and
// feeds the breaker.
func (c *Client) dialFailed(now time.Time) {
	jitter := time.Duration(c.rng.Int63n(int64(c.backoff)/2 + 1))
	c.retryAt = now.Add(c.backoff + jitter)
	c.backoff *= 2
	if c.backoff > c.opts.BackoffMax {
		c.backoff = c.opts.BackoffMax
	}
	c.recordFailure()
}

// recordFailure counts one consecutive failure and opens the breaker at
// the configured trip point (re-arming the cooldown if already open).
func (c *Client) recordFailure() {
	c.failures++
	if c.opts.BreakerTrip > 0 && c.failures >= c.opts.BreakerTrip {
		c.openedAt = time.Now()
		if !c.brkOpen.Swap(true) {
			c.journal.Append(obs.EvBreakerOpen, int64(c.failures), 0, c.addr)
		}
	}
}

// recordSuccess closes the breaker and resets backoff.
func (c *Client) recordSuccess() {
	c.failures = 0
	c.openedAt = time.Time{}
	if c.brkOpen.Swap(false) {
		c.journal.Append(obs.EvBreakerClose, 0, 0, c.addr)
	}
	c.backoff = c.opts.BackoffMin
	c.retryAt = time.Time{}
}

// fail tears down the connection after an I/O error: frames written but
// not yet covered by a Sync are counted lost, and the breaker advances.
func (c *Client) fail() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
	c.loseInFlight()
	c.recordFailure()
}

// loseInFlight moves every frame written but not confirmed — behind an
// unanswered marker or behind none yet — to lost.
func (c *Client) loseInFlight() {
	for _, mk := range c.marks[:c.nmarks] {
		c.lost.Add(mk.frames)
	}
	c.lost.Add(c.unacked)
	c.nmarks, c.unacked = 0, 0
}

// connect (re)establishes the connection and handshakes, all under one
// DialTimeout deadline.
func (c *Client) connect() error {
	conn, err := c.opts.Dialer(c.addr, c.opts.DialTimeout)
	if err != nil {
		return err
	}
	conn.SetDeadline(time.Now().Add(c.opts.DialTimeout))
	c.conn = conn
	c.br = bufio.NewReaderSize(conn, 1<<16)
	c.bw = bufio.NewWriterSize(conn, 1<<16)
	c.nmarks, c.unacked = 0, 0

	// Not through send: the DialTimeout deadline set above covers the
	// handshake, and send would re-arm it with IOTimeout.
	c.buf = appendFrame(c.buf[:0], opHello, helloPayload(c.m, c.opts.Program))
	if _, err := c.bw.Write(c.buf); err != nil {
		return c.connectFailed(err)
	}
	if err := c.bw.Flush(); err != nil {
		return c.connectFailed(err)
	}
	status, _, err := c.readResponse()
	if err != nil {
		return c.connectFailed(err)
	}
	if status != StatusOK {
		return c.connectFailed(fmt.Errorf("netstore: handshake rejected (status %d)", status))
	}
	conn.SetDeadline(time.Time{})
	c.recordSuccess()
	c.reconnects.Add(1)
	return nil
}

func (c *Client) connectFailed(err error) error {
	c.conn.Close()
	c.conn = nil
	return err
}

// Close flushes and closes the connection. A failed flush is reported
// (buffered evictions did not reach the peer) and counted lost.
func (c *Client) Close() error {
	if c.conn == nil {
		return nil
	}
	ferr := c.send(nil, true)
	cerr := c.conn.Close()
	c.conn = nil
	if ferr != nil {
		c.loseInFlight()
		return fmt.Errorf("netstore: close flush: %w", ferr)
	}
	return cerr
}

// Evictions returns how many eviction frames this client has written.
func (c *Client) Evictions() uint64 { return c.evictions.Load() }

// Acked returns how many written evictions a Sync round trip has since
// confirmed applied.
func (c *Client) Acked() uint64 { return c.acked.Load() }

// Lost returns how many written evictions were in flight on a
// connection that died before a Sync covered them. The peer may or may
// not have applied them — this is the at-most-once uncertainty window.
func (c *Client) Lost() uint64 { return c.lost.Load() }

// Reconnects returns how many times a connection was established.
func (c *Client) Reconnects() uint64 { return c.reconnects.Load() }

// BreakerOpen reports whether the circuit breaker is currently open.
func (c *Client) BreakerOpen() bool { return c.brkOpen.Load() }

// armDeadline bounds the next exchange on the live connection.
func (c *Client) armDeadline() {
	if c.opts.IOTimeout > 0 && c.conn != nil {
		c.conn.SetDeadline(time.Now().Add(c.opts.IOTimeout))
	}
}

// send is the one way bytes leave an established connection, and the
// one place its deadline is armed: before a write that can reach the
// socket — a flush, or bytes the write buffer has no room for — and
// not before one that only lands in the buffer. Every reply is read
// right after the flush that asked for it, under that flush's deadline,
// so an exchange is bounded by IOTimeout without a SetDeadline per
// frame.
func (c *Client) send(b []byte, flush bool) error {
	if flush || len(b) > c.bw.Available() {
		c.armDeadline()
	}
	if _, err := c.bw.Write(b); err != nil {
		return err
	}
	if flush {
		return c.bw.Flush()
	}
	return nil
}

// request sends one control frame and flushes it.
func (c *Client) request(op byte, payload []byte) error {
	c.buf = appendFrame(c.buf[:0], op, payload)
	return c.send(c.buf, true)
}

// readResponse reads one status frame. The payload aliases the client's
// reusable response buffer and is valid until the next read.
func (c *Client) readResponse() (status byte, payload []byte, err error) {
	if _, err := io.ReadFull(c.br, c.hdrR[:]); err != nil {
		return 0, nil, err
	}
	size, err := frameSize(c.hdrR[:])
	if err != nil {
		return 0, nil, err
	}
	n := size - frameHeader
	if cap(c.rbuf) < n {
		c.rbuf = make([]byte, n)
	}
	body := c.rbuf[:n]
	if _, err := io.ReadFull(c.br, body); err != nil {
		return 0, nil, err
	}
	return c.hdrR[4], body, nil
}

// HandleEviction ships a cache eviction to the server (fire-and-forget;
// buffered). It matches the kvstore OnEvict callback shape. A broken
// connection gets one immediate reconnect attempt — gated by the
// backoff/breaker state, so a persistently dead peer costs one cheap
// error check per call, never an unbounded dial loop.
func (c *Client) HandleEviction(ev *kvstore.Eviction) error {
	if err := c.ensureConn(); err != nil {
		return err
	}
	c.buf = appendEvictionFrame(c.buf[:0], c.m, ev, c.f.Merge)
	if err := c.send(c.buf, false); err != nil {
		// Broken connection: evictions buffered in it are lost — the same
		// data-loss window a real switch-to-collector channel has; validity
		// semantics already tolerate missing epochs. This frame never left
		// whole, so it retries once through a reconnect if the gates allow.
		c.fail()
		if err := c.ensureConn(); err != nil {
			return err
		}
		if err := c.send(c.buf, false); err != nil {
			c.fail()
			return err
		}
	}
	c.evictions.Add(1)
	c.unacked++
	return nil
}

// shipChunk writes buf — a run of whole eviction frames, the shipper's
// unit, with room left for an opSync marker — and the marker behind it
// in one write, and returns without waiting for the marker's reply: the
// frames are in flight until readAck confirms them. written is false
// when the reconnect gates refused and nothing left the client; a chunk
// whose write failed is in flight on a dead connection — lost, not
// retried, since the peer may have applied any prefix of it.
func (c *Client) shipChunk(buf []byte, frames int) (written bool, err error) {
	if c.nmarks == maxMarkers {
		// A failed read loses what was in flight with its connection;
		// this chunk then leaves on a fresh one, gates permitting.
		err = c.readAck()
	}
	if cerr := c.ensureConn(); cerr != nil {
		return false, cerr
	}
	c.evictions.Add(uint64(frames))
	c.unacked += uint64(frames)
	if werr := c.mark(appendFrame(buf, opSync, nil)); werr != nil {
		c.fail()
		return true, werr
	}
	return true, err
}

// mark flushes b, which ends in an opSync marker: the marker's reply
// confirms everything written since the previous marker.
func (c *Client) mark(b []byte) error {
	c.marks[c.nmarks] = syncMark{frames: c.unacked, at: time.Now()}
	c.nmarks++
	c.unacked = 0
	return c.send(b, true)
}

// readAck reads the oldest unanswered marker's reply and moves the
// frames it covers to acked. A failure tears the connection down and
// counts everything in flight lost.
func (c *Client) readAck() error {
	status, _, err := c.readResponse()
	if err == nil && status != StatusOK {
		err = fmt.Errorf("netstore: sync failed (status %d)", status)
	}
	if err != nil {
		c.fail()
		return err
	}
	mk := c.marks[0]
	c.nmarks = copy(c.marks[:], c.marks[1:c.nmarks])
	c.acked.Add(mk.frames)
	c.syncNs.Record(uint64(time.Since(mk.at)))
	c.recordSuccess()
	return nil
}

// Sync flushes buffered evictions and blocks until the server has
// applied everything sent so far. A connection that died since the last
// Sync surfaces here; Sync then waits out the backoff gate (bounded by
// BackoffMax) and retries once on a fresh connection. Evictions in
// flight on the dead connection are counted Lost.
func (c *Client) Sync() error {
	err := c.trySync()
	if err == nil {
		return nil
	}
	// Sync is a blocking barrier (window close), so unlike the eviction
	// path it may sleep out the reconnect gate.
	if wait := time.Until(c.retryAt); wait > 0 && c.openedAt.IsZero() {
		time.Sleep(wait)
	}
	if cerr := c.ensureConn(); cerr != nil {
		return fmt.Errorf("netstore: reconnect after %v failed: %w", err, cerr)
	}
	return c.trySync()
}

// trySync is one marker round trip; an I/O failure has torn the
// connection down by the time it returns.
func (c *Client) trySync() error {
	if err := c.ensureConn(); err != nil {
		return err
	}
	c.buf = appendFrame(c.buf[:0], opSync, nil)
	if err := c.mark(c.buf); err != nil {
		c.fail()
		return err
	}
	for c.nmarks > 0 {
		if err := c.readAck(); err != nil {
			return err
		}
	}
	return nil
}

// Get fetches a key's merged value. found is false for both absent and
// invalid (multi-epoch) keys; invalid distinguishes the latter. The
// returned state aliases a reusable buffer, valid until the next call.
func (c *Client) Get(key packet.Key128) (state []float64, found, invalid bool, err error) {
	if err := c.ensureConn(); err != nil {
		return nil, false, false, err
	}
	if err := c.request(opGet, key[:]); err != nil {
		c.fail()
		return nil, false, false, err
	}
	status, payload, err := c.readResponse()
	if err != nil {
		c.fail()
		return nil, false, false, err
	}
	switch status {
	case StatusOK:
		if cap(c.stateBuf) < c.m {
			c.stateBuf = make([]float64, c.m)
		}
		state = c.stateBuf[:c.m]
		if _, err := getFloats(payload, state); err != nil {
			return nil, false, false, err
		}
		return state, true, false, nil
	case StatusInvalid:
		return nil, false, true, nil
	case StatusNotFound:
		return nil, false, false, nil
	default:
		return nil, false, false, fmt.Errorf("netstore: get failed (status %d)", status)
	}
}

// Stats describes the server-side store.
type Stats struct {
	Keys    uint64
	Merges  uint64
	Appends uint64
	Valid   uint64
	Total   uint64
}

// Applied is the number of evictions the server has folded in.
func (s Stats) Applied() uint64 { return s.Merges + s.Appends }

// Stats queries server counters.
func (c *Client) Stats() (Stats, error) {
	if err := c.ensureConn(); err != nil {
		return Stats{}, err
	}
	if err := c.request(opStats, nil); err != nil {
		c.fail()
		return Stats{}, err
	}
	status, payload, err := c.readResponse()
	if err != nil {
		c.fail()
		return Stats{}, err
	}
	if status != StatusOK || len(payload) != 40 {
		return Stats{}, fmt.Errorf("netstore: stats failed (status %d)", status)
	}
	return Stats{
		Keys:    binary.LittleEndian.Uint64(payload[0:8]),
		Merges:  binary.LittleEndian.Uint64(payload[8:16]),
		Appends: binary.LittleEndian.Uint64(payload[16:24]),
		Valid:   binary.LittleEndian.Uint64(payload[24:32]),
		Total:   binary.LittleEndian.Uint64(payload[32:40]),
	}, nil
}

// Reset drops all keys server-side.
func (c *Client) Reset() error {
	if err := c.ensureConn(); err != nil {
		return err
	}
	if err := c.request(opReset, nil); err != nil {
		c.fail()
		return err
	}
	status, _, err := c.readResponse()
	if err != nil {
		c.fail()
		return err
	}
	if status != StatusOK {
		return fmt.Errorf("netstore: reset failed (status %d)", status)
	}
	return nil
}
