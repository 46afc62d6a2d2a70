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

	"perfq/internal/backing"
	"perfq/internal/fold"
	"perfq/internal/kvstore"
)

// Server hosts the backing stores of one query's switch programs over
// TCP — one store per program fold. A connection binds to a program at
// HELLO (legacy 12-byte HELLOs bind to program 0) and every subsequent
// op on it targets that program's store.
type Server struct {
	fs []*fold.Func
	ln net.Listener

	mu     sync.Mutex // guards every store (ops are cross-program serialized)
	stores []*backing.Store

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	wg     sync.WaitGroup
	closed chan struct{}
	logf   func(format string, args ...interface{})
}

// NewServer listens on addr (e.g. "127.0.0.1:0") and serves one
// backing store per fold, indexed by position (program index). At
// least one fold is required. Use Addr to discover the bound address.
func NewServer(addr string, folds ...*fold.Func) (*Server, error) {
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
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		fs:     folds,
		ln:     ln,
		stores: make([]*backing.Store, len(folds)),
		conns:  make(map[net.Conn]struct{}),
		closed: make(chan struct{}),
		logf:   func(string, ...interface{}) {},
	}
	for i, f := range folds {
		s.stores[i] = backing.New(f)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// SetLogf installs a diagnostic logger (default: silent).
func (s *Server) SetLogf(f func(format string, args ...interface{})) {
	if f == nil {
		f = func(string, ...interface{}) {}
	}
	s.logf = f
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

// track registers an accepted connection for Close teardown; it
// returns false when the server is already closing.
func (s *Server) track(conn net.Conn) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	select {
	case <-s.closed:
		return false
	default:
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.connMu.Lock()
	delete(s.conns, conn)
	s.connMu.Unlock()
}

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
			select {
			case <-s.closed:
				return
			default:
				s.logf("netstore: accept: %v", err)
				return
			}
		}
		if !s.track(conn) {
			conn.Close()
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			if err := s.serve(conn); err != nil && !errors.Is(err, io.EOF) {
				s.logf("netstore: conn %v: %v", conn.RemoteAddr(), err)
			}
		}()
	}
}

// serve handles one connection.
func (s *Server) serve(conn net.Conn) error {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 1<<16)
	bw := bufio.NewWriterSize(conn, 1<<16)
	// The connection binds to a program (store + state width) at HELLO;
	// until then the defaults are never used (HELLO must come first).
	store := s.stores[0]
	m := s.fs[0].StateLen()

	var hdr [5]byte
	frame := make([]byte, 0, maxFrame)
	getBuf := make([]byte, 0, maxFrame) // reused across opGet responses
	var rh [5]byte                      // hoisted: bw.Write leaks its arg
	respond := func(status byte, payload []byte) error {
		binary.LittleEndian.PutUint32(rh[:4], uint32(1+len(payload)))
		rh[4] = status
		if _, err := bw.Write(rh[:]); err != nil {
			return err
		}
		if _, err := bw.Write(payload); err != nil {
			return err
		}
		return bw.Flush()
	}

	helloSeen := false
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return fmt.Errorf("%w: truncated header", ErrBadFrame)
			}
			return err
		}
		n := binary.LittleEndian.Uint32(hdr[:4])
		op := hdr[4]
		if n < 1 || n > maxFrame {
			return fmt.Errorf("%w: length %d", ErrTooLarge, n)
		}
		frame = frame[:n-1]
		if _, err := io.ReadFull(br, frame); err != nil {
			return fmt.Errorf("%w: truncated body", ErrBadFrame)
		}

		if !helloSeen && op != opHello {
			return fmt.Errorf("%w: first frame must be HELLO", ErrBadFrame)
		}

		switch op {
		case opHello:
			// Legacy 12-byte HELLO binds program 0; the 16-byte form adds
			// the program index. Both are accepted forever.
			prog := 0
			switch len(frame) {
			case 12:
			case 16:
				prog = int(binary.LittleEndian.Uint32(frame[12:16]))
			default:
				return ErrBadFrame
			}
			if binary.LittleEndian.Uint32(frame[0:4]) != Magic {
				return ErrBadFrame
			}
			if binary.LittleEndian.Uint32(frame[4:8]) != Version {
				respond(StatusErr, nil)
				return ErrBadVersion
			}
			if prog < 0 || prog >= len(s.fs) {
				respond(StatusErr, nil)
				return fmt.Errorf("%w: program %d, server has %d",
					ErrBadProgram, prog, len(s.fs))
			}
			store = s.stores[prog]
			m = s.fs[prog].StateLen()
			if int(binary.LittleEndian.Uint32(frame[8:12])) != m {
				respond(StatusErr, nil)
				return fmt.Errorf("%w: client %d, server %d",
					ErrStateLen, binary.LittleEndian.Uint32(frame[8:12]), m)
			}
			helloSeen = true
			if err := respond(StatusOK, nil); err != nil {
				return err
			}

		case opMerge, opMergeP, opAppend, opCombine:
			ev, err := decodeEviction(op, frame, m)
			if err != nil {
				return err
			}
			kev := kvstore.Eviction{Key: ev.key, State: ev.state, P: ev.p}
			if ev.rec != nil {
				kev.FirstRec = ev.rec
			}
			s.mu.Lock()
			store.HandleEviction(&kev)
			s.mu.Unlock()
			// Fire-and-forget: no response.

		case opGet:
			if len(frame) != 16 {
				return ErrBadFrame
			}
			var key [16]byte
			copy(key[:], frame)
			s.mu.Lock()
			state, ok := store.Get(key)
			var valid bool
			if !ok {
				valid = store.Len() > 0 // distinguish below
			}
			var payload []byte
			status := byte(StatusNotFound)
			if ok {
				status = StatusOK
				payload = putFloats(getBuf[:0], state)
				getBuf = payload
			} else if len(store.Epochs(key)) > 1 {
				status = StatusInvalid
			}
			s.mu.Unlock()
			_ = valid
			if err := respond(status, payload); err != nil {
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
			payload := make([]byte, 40)
			binary.LittleEndian.PutUint64(payload[0:8], uint64(st.Keys))
			binary.LittleEndian.PutUint64(payload[8:16], st.Merges)
			binary.LittleEndian.PutUint64(payload[16:24], st.Appends)
			binary.LittleEndian.PutUint64(payload[24:32], uint64(valid))
			binary.LittleEndian.PutUint64(payload[32:40], uint64(total))
			if err := respond(StatusOK, payload); err != nil {
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
	}
}

var _ = log.Printf // placeholder to keep log available for future handlers
