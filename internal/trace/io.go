package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary record-file format ("pqt"): a 16-byte header (magic, version,
// record size, reserved) followed by fixed-size little-endian records.
// It exists so traces produced once (by tracegen or netsim) can be
// replayed across experiments and piped between the cmd tools.

const (
	pqtMagic   uint32 = 0x50515401 // "PQT\x01"
	pqtVersion uint16 = 1
	recordSize        = 64
	headerSize        = 16
)

// I/O errors.
var (
	ErrBadFormat = errors.New("trace: not a pqt file")
	ErrTruncated = errors.New("trace: truncated file")
)

// Writer streams records to an io.Writer in pqt format.
type Writer struct {
	w     *bufio.Writer
	buf   [recordSize]byte
	count int64
}

// NewWriter writes the file header and returns a Writer.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	var h [headerSize]byte
	binary.LittleEndian.PutUint32(h[0:4], pqtMagic)
	binary.LittleEndian.PutUint16(h[4:6], pqtVersion)
	binary.LittleEndian.PutUint16(h[6:8], recordSize)
	if _, err := bw.Write(h[:]); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

// Write appends one record. QSizeOut and Path share the record's last word:
// QSizeOut is capped at 24 bits (16 MB of queue, far beyond any simulated
// queue) and Path at 8.
func (w *Writer) Write(rec *Record) error {
	MarshalRecord(w.buf[:], rec)
	if _, err := w.w.Write(w.buf[:]); err != nil {
		return err
	}
	w.count++
	return nil
}

// Count returns the number of records written.
func (w *Writer) Count() int64 { return w.count }

// Flush drains buffered output.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader streams records from a pqt file. It implements Source and
// BatchSource; the two pulls may be mixed on one Reader.
type Reader struct {
	r    *bufio.Reader
	recs []Record // NextBatch's reused run (allocated on first use)
}

// NewReader validates the file header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var h [headerSize]byte
	if _, err := io.ReadFull(br, h[:]); err != nil {
		return nil, fmt.Errorf("%w: header", ErrTruncated)
	}
	if binary.LittleEndian.Uint32(h[0:4]) != pqtMagic {
		return nil, ErrBadFormat
	}
	if v := binary.LittleEndian.Uint16(h[4:6]); v != pqtVersion {
		return nil, fmt.Errorf("%w: version %d", ErrBadFormat, v)
	}
	if rs := binary.LittleEndian.Uint16(h[6:8]); rs != recordSize {
		return nil, fmt.Errorf("%w: record size %d", ErrBadFormat, rs)
	}
	return &Reader{r: br}, nil
}

// errMidRecord is what both pulls return when the file ends inside a
// record.
var errMidRecord = fmt.Errorf("%w: mid-record", ErrTruncated)

// peek returns the next record's bytes, in place in the read buffer.
// Nothing is consumed, so a failed pull repeats its error.
func (r *Reader) peek() ([]byte, error) {
	b, err := r.r.Peek(recordSize)
	switch {
	case err == nil:
		return b, nil
	case !errors.Is(err, io.EOF):
		return nil, err
	case len(b) == 0:
		return nil, io.EOF
	default:
		return nil, errMidRecord
	}
}

// Next implements Source.
func (r *Reader) Next(rec *Record) error {
	b, err := r.peek()
	if err != nil {
		return err
	}
	UnmarshalRecord(b, rec)
	r.r.Discard(recordSize)
	return nil
}

// NextBatch implements BatchSource: every whole record already in the
// read buffer (at least one, at most batchLen), decoded straight out of
// it into the Reader's reused run. A file cut mid-record yields its
// whole records first and ErrTruncated on the following call, exactly
// where Next reports it.
func (r *Reader) NextBatch() ([]Record, error) {
	if _, err := r.peek(); err != nil {
		return nil, err
	}
	if r.recs == nil {
		r.recs = make([]Record, batchLen)
	}
	n := min(r.r.Buffered()/recordSize, len(r.recs))
	b, _ := r.r.Peek(n * recordSize)
	for i := range r.recs[:n] {
		UnmarshalRecord(b[i*recordSize:], &r.recs[i])
	}
	r.r.Discard(n * recordSize)
	return r.recs[:n], nil
}
