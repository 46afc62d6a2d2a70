package netstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"

	"perfq/internal/backing"
	"perfq/internal/fold"
	"perfq/internal/packet"
)

// MaxConns caps a server's concurrent connections. One that has sent a
// frame past its HELLO holds two 64 KiB buffers and a 4 KiB reply buffer,
// and from its first eviction frame a decoder of fold.BlockSize lanes,
// 11 KiB plus 512·(m + m²) bytes (≈ 144 KiB in all at m = 1), so the cap
// bounds what peers can make the server allocate at ≈ 37 MiB for m ≤ 2
// (≈ 94 MiB at m = 21, the widest state a frame carries). Until then it
// holds buffers of one HELLO frame: a probe, which hangs up after its
// HELLO, costs under 2 KiB in all (TestServerHelloOnlyConnBytes). A pool
// uses two long-lived connections per backend per program plus a
// short-lived probe. A connection over the cap is closed before its HELLO
// is read and counted in Rejected; that includes probes, so a server at
// its cap reads as down to the pools probing it.
const MaxConns = 256

// Server hosts the backing stores of one query's switch programs over
// TCP — one store per program fold. A connection binds to a program at
// HELLO (legacy 12-byte HELLOs bind to program 0) and every subsequent
// op on it targets that program's store.
type Server struct {
	fs []*fold.Func
	ln net.Listener

	mu     sync.Mutex // guards every store (ops are cross-program serialized)
	stores []*backing.Store

	connMu   sync.Mutex
	conns    map[net.Conn]struct{}
	rejected atomic.Uint64

	wg     sync.WaitGroup
	closed chan struct{}
}

// NewServer listens on addr (e.g. "127.0.0.1:0") and serves one
// backing store per fold, indexed by position (program index). At
// least one fold is required. Use Addr to discover the bound address.
func NewServer(addr string, folds ...*fold.Func) (*Server, error) {
	s, err := newServer(folds)
	if err != nil {
		return nil, err
	}
	if s.ln, err = net.Listen("tcp", addr); err != nil {
		return nil, err
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// newServer builds the stores; serve can run on any connection from
// here, a listener only feeds it.
func newServer(folds []*fold.Func) (*Server, error) {
	if len(folds) == 0 {
		return nil, fmt.Errorf("netstore: server needs at least one fold")
	}
	// The stores replay first packets through Func.Update, which runs
	// bytecode only; plan folds arrive compiled, hand-built ones do not.
	for i, f := range folds {
		if err := f.EnsureCompiled(); err != nil {
			return nil, fmt.Errorf("netstore: fold %d (%s): %w", i, f.Name(), err)
		}
	}
	s := &Server{
		fs:     folds,
		stores: make([]*backing.Store, len(folds)),
		conns:  make(map[net.Conn]struct{}),
		closed: make(chan struct{}),
	}
	for i, f := range folds {
		s.stores[i] = backing.New(f)
	}
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, aborts every active connection (a handler
// blocked in a read would otherwise keep Close waiting for a client
// that never hangs up — exactly the wedge a killed backend must not
// have), and waits for the handlers to finish.
func (s *Server) Close() error {
	close(s.closed)
	err := s.ln.Close()
	s.connMu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.connMu.Unlock()
	s.wg.Wait()
	return err
}

// Rejected returns how many connections were closed unserved because
// MaxConns were already open.
func (s *Server) Rejected() uint64 { return s.rejected.Load() }

// Store exposes program 0's store for in-process inspection (tests and
// the collector when co-located).
func (s *Server) Store() *backing.Store { return s.stores[0] }

// StoreFor exposes program i's store (nil when out of range).
func (s *Server) StoreFor(i int) *backing.Store {
	if i < 0 || i >= len(s.stores) {
		return nil
	}
	return s.stores[i]
}

// Programs returns how many program stores the server hosts.
func (s *Server) Programs() int { return len(s.stores) }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if !s.closing() {
				log.Printf("netstore: accept: %v", err)
			}
			return
		}
		// Registered for Close's teardown, unless the server is closing
		// or full.
		s.connMu.Lock()
		select {
		case <-s.closed:
			s.connMu.Unlock()
			conn.Close()
			return
		default:
		}
		full := len(s.conns) >= MaxConns
		if !full {
			s.conns[conn] = struct{}{}
		}
		s.connMu.Unlock()
		if full {
			conn.Close()
			s.rejected.Add(1)
			continue
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.connMu.Lock()
				delete(s.conns, conn)
				s.connMu.Unlock()
			}()
			if err := s.serve(conn); err != nil && !errors.Is(err, io.EOF) && !s.closing() {
				log.Printf("netstore: conn %v: %v", conn.RemoteAddr(), err)
			}
		}()
	}
}

// closing reports whether Close has begun: the errors it causes on the
// listener and on open connections are not worth a log line.
func (s *Server) closing() bool {
	select {
	case <-s.closed:
		return true
	default:
		return false
	}
}

// applyRun applies the whole eviction frames at the front of b to store
// and returns the bytes they occupied. It stops, without error, at the
// first frame that is incomplete, ill-sized or not an eviction — the
// caller's frame loop meets that one next. The frames are decoded into
// dec's batch and applied a batch at a time, so that a batch's index
// probes overlap: when it holds fold.BlockSize lanes, when the op changes
// (a batch is uniform), and before applyRun returns. It allocates
// nothing: the store retains none of what dec's batch points to.
func applyRun(b []byte, store *backing.Store, dec *evictionDecoder) (used int, err error) {
	for {
		op, body, size, perr := parseFrame(b[used:])
		if perr != nil || size == 0 || !isEvictionOp(op) {
			break
		}
		if op != dec.op || dec.batch.N == fold.BlockSize {
			dec.apply(store)
		}
		if err = dec.add(op, body); err != nil {
			break
		}
		used += size
	}
	dec.apply(store)
	return used, err
}

// helloFrame is the longest HELLO frame, the 16-byte form.
const helloFrame = frameHeader + 16

// serve handles one connection. Its large buffers wait for a frame past
// the HELLO, and its decoder for the first eviction frame, so a prober's
// connection, which hangs up after its HELLO, reads and replies through
// buffers one HELLO frame long.
func (s *Server) serve(conn net.Conn) error {
	br := bufio.NewReaderSize(conn, helloFrame)
	bw := bufio.NewWriterSize(conn, frameHeader)
	defer conn.Close()
	defer func() { bw.Flush() }() // the reply to a rejected HELLO

	// The connection binds to a program (store + state width) at HELLO;
	// until then neither is used (HELLO must come first).
	var (
		store *backing.Store
		m     int
		dec   *evictionDecoder
		reply []byte // reused across opGet/opStats responses
	)
	var rh [frameHeader]byte // hoisted: bw.Write leaks its arg
	respond := func(status byte, payload []byte) error {
		if _, err := bw.Write(appendFrameHeader(rh[:0], status, len(payload))); err != nil {
			return err
		}
		_, err := bw.Write(payload)
		return err
	}
	// peek returns the next n bytes without consuming them. Replies
	// gather in bw and are flushed only here, when input has run out and
	// the read may block: a chunk's worth of frames costs one flush, and a
	// peer waiting on a reply never waits on a server waiting for input.
	peek := func(n int) ([]byte, error) {
		if br.Buffered() < n && bw.Buffered() > 0 {
			if err := bw.Flush(); err != nil {
				return nil, err
			}
		}
		return br.Peek(n)
	}

	for {
		hdr, err := peek(frameHeader)
		if err != nil {
			if len(hdr) > 0 && errors.Is(err, io.EOF) {
				return fmt.Errorf("%w: truncated header", ErrBadFrame)
			}
			return err
		}
		size, err := frameSize(hdr)
		if err != nil {
			return err
		}
		if store == nil && (hdr[4] != opHello || size > helloFrame) {
			return fmt.Errorf("%w: first frame must be HELLO", ErrBadFrame)
		}
		if reply == nil && store != nil {
			// A frame past the HELLO: this connection carries requests.
			if err := bw.Flush(); err != nil {
				return err
			}
			br, bw = bufio.NewReaderSize(br, 1<<16), bufio.NewWriterSize(conn, 1<<16)
			reply = make([]byte, 0, maxFrame)
		}
		frame, err := peek(size)
		if err != nil {
			return fmt.Errorf("%w: truncated body", ErrBadFrame)
		}
		op, body := frame[4], frame[frameHeader:]

		switch op {
		case opHello:
			// Legacy 12-byte HELLO binds program 0; the 16-byte form adds
			// the program index. Both are accepted forever.
			prog := 0
			switch len(body) {
			case 12:
			case 16:
				prog = int(binary.LittleEndian.Uint32(body[12:16]))
			default:
				return ErrBadFrame
			}
			if binary.LittleEndian.Uint32(body[0:4]) != Magic {
				return ErrBadFrame
			}
			if binary.LittleEndian.Uint32(body[4:8]) != Version {
				respond(StatusErr, nil)
				return ErrBadVersion
			}
			if prog < 0 || prog >= len(s.fs) {
				respond(StatusErr, nil)
				return fmt.Errorf("%w: program %d, server has %d",
					ErrBadProgram, prog, len(s.fs))
			}
			m = s.fs[prog].StateLen()
			if int(binary.LittleEndian.Uint32(body[8:12])) != m {
				respond(StatusErr, nil)
				return fmt.Errorf("%w: client %d, server %d",
					ErrStateLen, binary.LittleEndian.Uint32(body[8:12]), m)
			}
			store, dec = s.stores[prog], nil
			if err := respond(StatusOK, nil); err != nil {
				return err
			}

		case opMerge, opMergeP, opAppend, opCombine:
			// Fire-and-forget, no response: apply this frame and every
			// whole eviction frame already buffered behind it, in place,
			// under one lock.
			if dec == nil {
				dec = newEvictionDecoder(m)
			}
			buffered, _ := br.Peek(br.Buffered())
			s.mu.Lock()
			used, err := applyRun(buffered, store, dec)
			s.mu.Unlock()
			br.Discard(used)
			if err != nil {
				return err
			}
			continue

		case opGet:
			if len(body) != 16 {
				return ErrBadFrame
			}
			var key packet.Key128
			copy(key[:], body)
			s.mu.Lock()
			state, ok := store.Get(key)
			status := byte(StatusNotFound)
			reply = reply[:0]
			if ok {
				status = StatusOK
				reply = putFloats(reply, state)
			} else if len(store.Epochs(key)) > 1 {
				status = StatusInvalid
			}
			s.mu.Unlock()
			if err := respond(status, reply); err != nil {
				return err
			}

		case opSync:
			if err := respond(StatusOK, nil); err != nil {
				return err
			}

		case opStats:
			s.mu.Lock()
			st := store.Stats()
			valid, total := store.Accuracy()
			s.mu.Unlock()
			reply = reply[:40]
			binary.LittleEndian.PutUint64(reply[0:8], uint64(st.Keys))
			binary.LittleEndian.PutUint64(reply[8:16], st.Merges)
			binary.LittleEndian.PutUint64(reply[16:24], st.Appends)
			binary.LittleEndian.PutUint64(reply[24:32], uint64(valid))
			binary.LittleEndian.PutUint64(reply[32:40], uint64(total))
			if err := respond(StatusOK, reply); err != nil {
				return err
			}

		case opReset:
			s.mu.Lock()
			store.Reset()
			s.mu.Unlock()
			if err := respond(StatusOK, nil); err != nil {
				return err
			}

		default:
			return fmt.Errorf("%w: op %d", ErrBadFrame, op)
		}
		br.Discard(size)
	}
}
