package netstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"perfq/internal/fold"
	"perfq/internal/obs"
	"perfq/internal/packet"
)

// DefaultTimeout bounds a connect and its HELLO handshake, and every
// frame exchange on an established connection.
const DefaultTimeout = 2 * time.Second

// ErrBackendDown is returned, with no I/O attempted, while the client's
// backend is marked down. Only the pool's prober marks it up again;
// callers shipping fire-and-forget evictions count it as a drop.
var ErrBackendDown = errors.New("netstore: backend marked down")

// Options configures every connection of a pool backend. The zero value
// selects the defaults.
type Options struct {
	// Timeout bounds a connect and its HELLO handshake together — a
	// peer that accepts but never answers fails the dial — and every
	// frame exchange (write, and the read of its reply) after it.
	Timeout time.Duration
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
	if o.Timeout == 0 {
		o.Timeout = DefaultTimeout
	}
	if o.Dialer == nil {
		o.Dialer = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	return o
}

// Client is a connection to one pool backend. It is not safe for
// concurrent use: the pool gives each backend one client per plane (the
// shipper goroutine's data client, and a control client under a lock).
// Counter accessors (Evictions, Acked, Lost, Reconnects) may be read
// concurrently.
//
// Whether the client may dial is the backend's health bit, shared with
// the backend's other client and its prober: while it is down every
// operation fails with ErrBackendDown and does no I/O, and a failed
// dial or handshake marks it down. An I/O error on an established
// connection only tears that connection down; the next operation
// redials once.
type Client struct {
	conn   net.Conn
	br     *bufio.Reader
	f      *fold.Func
	m      int
	buf    []byte
	opts   Options
	health *backendHealth

	// Reusable response scratch (satellite: readResponse/Get used to
	// allocate per call). Get's returned state aliases stateBuf and is
	// valid until the next call. The header array lives on the struct
	// because io.ReadFull leaks its argument, so a stack array would
	// escape to the heap on every response.
	rbuf     []byte
	stateBuf []float64
	hdrR     [5]byte

	// Delivery accounting. An eviction written to the connection is
	// "in flight" until the reply to the opSync marker written behind it
	// arrives; a connection that dies first moves everything in flight
	// to lost. marks are the markers still unanswered, oldest first,
	// each with the frames it covers. evictions counts every frame
	// written (the historical "shipped" stat).
	evictions  atomic.Uint64
	acked      atomic.Uint64
	lost       atomic.Uint64
	marks      [maxMarkers]syncMark
	nmarks     int
	reconnects atomic.Uint64

	// syncNs is the wall time from writing a marker to reading its
	// reply, one sample per reply: its count is the round trips made.
	syncNs obs.Hist
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

// newClient builds a client of the backend h without connecting; the
// first operation dials. opts must have its defaults applied.
func newClient(h *backendHealth, f *fold.Func, opts Options) *Client {
	return &Client{f: f, m: f.StateLen(), opts: opts, health: h}
}

// ensureConn returns nil with an established connection. While the
// backend is down it fails with ErrBackendDown and does no I/O; a
// failed dial or handshake marks the backend down.
func (c *Client) ensureConn() error {
	if !c.health.healthy.Load() {
		return ErrBackendDown
	}
	if c.conn != nil {
		return nil
	}
	if err := c.connect(); err != nil {
		c.health.markDown()
		return err
	}
	return nil
}

// fail tears down the connection after an I/O error: frames behind a
// marker whose reply has not been read are counted lost.
func (c *Client) fail() {
	c.conn.Close()
	c.conn = nil
	for _, mk := range c.marks[:c.nmarks] {
		c.lost.Add(mk.frames)
	}
	c.nmarks = 0
}

// connect (re)establishes the connection and handshakes, all under one
// Timeout deadline.
func (c *Client) connect() error {
	conn, err := c.opts.Dialer(c.health.addr, c.opts.Timeout)
	if err != nil {
		return err
	}
	conn.SetDeadline(time.Now().Add(c.opts.Timeout))
	c.conn = conn
	c.br = bufio.NewReaderSize(conn, 1<<16)

	// Not through send: the deadline set above covers the whole
	// handshake, and send would re-arm it.
	c.buf = appendFrame(c.buf[:0], opHello, helloPayload(c.m, c.opts.Program))
	if _, err := conn.Write(c.buf); err != nil {
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
	c.reconnects.Add(1)
	return nil
}

func (c *Client) connectFailed(err error) error {
	c.conn.Close()
	c.conn = nil
	return err
}

// Close closes the connection. There is no write buffer: every write
// has already reached the connection, so Close holds nothing back.
func (c *Client) Close() error {
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// Evictions returns how many eviction frames this client has written.
func (c *Client) Evictions() uint64 { return c.evictions.Load() }

// Acked returns how many written evictions a marker's reply has since
// confirmed applied.
func (c *Client) Acked() uint64 { return c.acked.Load() }

// Lost returns how many written evictions were in flight on a
// connection that died before a marker's reply confirmed them. The peer may or may
// not have applied them — this is the at-most-once uncertainty window.
func (c *Client) Lost() uint64 { return c.lost.Load() }

// Reconnects returns how many times a connection was established.
func (c *Client) Reconnects() uint64 { return c.reconnects.Load() }

// send is the one way bytes leave an established connection: one
// write under a fresh Timeout deadline. Every reply is read right after
// the write that asked for it, under that write's deadline, so an
// exchange is bounded by Timeout without a SetDeadline per frame.
func (c *Client) send(b []byte) error {
	c.conn.SetDeadline(time.Now().Add(c.opts.Timeout))
	_, err := c.conn.Write(b)
	return err
}

// request writes one control frame.
func (c *Client) request(op byte, payload []byte) error {
	c.buf = appendFrame(c.buf[:0], op, payload)
	return c.send(c.buf)
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

// shipChunk writes buf — a run of whole eviction frames, the shipper's
// unit, with room left for an opSync marker — and the marker behind it
// in one write, and returns without waiting for the marker's reply: the
// frames are in flight until readAck confirms them. written is false
// when the backend is down or the redial failed and nothing left the
// client; a chunk whose write failed is in flight on a dead connection —
// lost, not retried, since the peer may have applied any prefix of it.
func (c *Client) shipChunk(buf []byte, frames int) (written bool, err error) {
	if c.nmarks == maxMarkers {
		// A failed read loses what was in flight with its connection;
		// this chunk then leaves on a fresh one.
		err = c.readAck()
	}
	if cerr := c.ensureConn(); cerr != nil {
		return false, cerr
	}
	c.evictions.Add(uint64(frames))
	c.marks[c.nmarks] = syncMark{frames: uint64(frames), at: time.Now()}
	c.nmarks++
	if werr := c.send(appendFrame(buf, opSync, nil)); werr != nil {
		c.fail()
		return true, werr
	}
	return true, err
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
