// Package pcap exports trace records as a libpcap capture file, using
// only the standard library: nanosecond timestamps, little-endian,
// Ethernet link type. Each frame is synthesized from one trace.Record,
// so this package is the one place that knows a frame's wire format.
//
// The export is one way, for standard tooling: a frame carries the
// record's headers and lengths, but a pcap has nowhere to put its qid,
// tout or queue depths, so nothing reads one back.
package pcap

import (
	"bufio"
	"encoding/binary"
	"io"

	"perfq/internal/packet"
	"perfq/internal/trace"
)

const (
	magicNanoseconds = 0xa1b23c4d
	linkTypeEthernet = 1
	// snapLen caps the bytes captured per frame; orig_len keeps the
	// frame's full length.
	snapLen         = 65535
	fileHeaderLen   = 24
	recordHeaderLen = 16

	etherTypeIPv4 = 0x0800
	ttl           = 62
	// Where a frame's IPv4 header and its transport segment start.
	ipStart  = packet.EthernetHeaderLen
	segStart = ipStart + packet.IPv4MinHeaderLen
)

// The synthesized frames' destination and source MACs (locally
// administered).
var (
	dstMAC = [6]byte{2, 0, 0, 0, 0, 1}
	srcMAC = [6]byte{2, 0, 0, 0, 0, 2}
)

var (
	le = binary.LittleEndian
	be = binary.BigEndian
)

// Writer encodes records to a pcap stream.
type Writer struct {
	w     *bufio.Writer
	count int64
	buf   []byte // one record header and its captured frame, reused
}

// NewWriter writes the file header and returns a writer.
func NewWriter(w io.Writer) (*Writer, error) {
	var h [fileHeaderLen]byte
	le.PutUint32(h[0:4], magicNanoseconds)
	le.PutUint16(h[4:6], 2) // version major
	le.PutUint16(h[6:8], 4) // version minor
	le.PutUint32(h[16:20], snapLen)
	le.PutUint32(h[20:24], linkTypeEthernet)
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(h[:]); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

// WriteRecord appends the frame rec describes, stamped with rec.Tin:
// Ethernet, IPv4 (IHL 5, TTL 62), a TCP header (data offset 5, window
// 65535) or a UDP header when rec is either, then rec.PayloadLen zero
// bytes — perfq reads a payload's length, never its bytes. The IPv4
// header checksum and the TCP/UDP checksum over the pseudo-header are
// filled in, so the frame verifies in standard tooling. The capture is
// cut at the snap length; orig_len is rec.PktLen, or the frame's length
// if that is longer.
func (w *Writer) WriteRecord(rec *trace.Record) error {
	frameLen := segStart + int(rec.PayloadLen)
	switch rec.Proto {
	case packet.ProtoTCP:
		frameLen += packet.TCPMinHeaderLen
	case packet.ProtoUDP:
		frameLen += packet.UDPHeaderLen
	}
	incl := min(frameLen, snapLen)
	if cap(w.buf) < recordHeaderLen+incl {
		w.buf = make([]byte, recordHeaderLen+incl)
	}
	b := w.buf[:recordHeaderLen+incl]
	clear(b)

	le.PutUint32(b[0:4], uint32(rec.Tin/1e9))
	le.PutUint32(b[4:8], uint32(rec.Tin%1e9))
	le.PutUint32(b[8:12], uint32(incl))
	le.PutUint32(b[12:16], uint32(max(int(rec.PktLen), frameLen)))

	f := b[recordHeaderLen:]
	copy(f[0:6], dstMAC[:])
	copy(f[6:12], srcMAC[:])
	be.PutUint16(f[12:14], etherTypeIPv4)

	ip := f[ipStart:segStart]
	ip[0] = 4<<4 | packet.IPv4MinHeaderLen/4 // version, IHL
	be.PutUint16(ip[2:4], uint16(frameLen-ipStart))
	ip[8] = ttl
	ip[9] = byte(rec.Proto)
	copy(ip[12:16], rec.SrcIP[:])
	copy(ip[16:20], rec.DstIP[:])
	be.PutUint16(ip[10:12], checksum(ip, 0))

	// The checksums cover the whole segment; the payload beyond a cut
	// capture is zeros, which add nothing to the sum.
	seg, segLen := f[segStart:], frameLen-segStart
	switch rec.Proto {
	case packet.ProtoTCP:
		be.PutUint16(seg[0:2], rec.SrcPort)
		be.PutUint16(seg[2:4], rec.DstPort)
		be.PutUint32(seg[4:8], rec.TCPSeq)
		seg[12] = packet.TCPMinHeaderLen / 4 << 4 // data offset
		seg[13] = rec.TCPFlags
		be.PutUint16(seg[14:16], 65535) // window
		be.PutUint16(seg[16:18], checksum(seg, pseudoHeaderSum(rec, segLen)))
	case packet.ProtoUDP:
		be.PutUint16(seg[0:2], rec.SrcPort)
		be.PutUint16(seg[2:4], rec.DstPort)
		be.PutUint16(seg[4:6], uint16(segLen))
		be.PutUint16(seg[6:8], checksum(seg, pseudoHeaderSum(rec, segLen)))
	}

	if _, err := w.w.Write(b); err != nil {
		return err
	}
	w.count++
	return nil
}

// Count returns the number of records written.
func (w *Writer) Count() int64 { return w.count }

// Flush drains buffered data to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// checksum computes the RFC 1071 Internet checksum of data, folded into
// 16 bits and complemented. initial carries a partial sum (e.g. from a
// pseudo-header); pass 0 when checksumming a standalone buffer.
func checksum(data []byte, initial uint32) uint16 {
	sum := initial
	n := len(data)
	i := 0
	for ; i+1 < n; i += 2 {
		sum += uint32(data[i])<<8 | uint32(data[i+1])
	}
	if i < n {
		sum += uint32(data[i]) << 8
	}
	for sum > 0xffff {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// pseudoHeaderSum returns the partial sum of the IPv4 pseudo-header that
// the TCP and UDP checksums of rec's segLen-byte segment cover, as
// checksum's initial argument.
func pseudoHeaderSum(rec *trace.Record, segLen int) uint32 {
	return uint32(be.Uint16(rec.SrcIP[0:2])) + uint32(be.Uint16(rec.SrcIP[2:4])) +
		uint32(be.Uint16(rec.DstIP[0:2])) + uint32(be.Uint16(rec.DstIP[2:4])) +
		uint32(rec.Proto) + uint32(segLen)
}
