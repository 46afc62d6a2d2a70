// Package packet holds the header vocabulary the datapath and the
// workload generators share: IP protocol numbers, IPv4 addresses, the
// canonical five-tuple flow key with its 128-bit packed form, and the
// fixed hash functions that place keys in cache buckets and flows on
// ECMP paths.
package packet

import "fmt"

// Proto is an IP protocol number (the IPv4 Protocol / IPv6 NextHeader field).
type Proto uint8

// Well-known IP protocol numbers.
const (
	ProtoICMP Proto = 1
	ProtoTCP  Proto = 6
	ProtoUDP  Proto = 17
)

// String returns the conventional protocol mnemonic.
func (p Proto) String() string {
	switch p {
	case ProtoICMP:
		return "ICMP"
	case ProtoTCP:
		return "TCP"
	case ProtoUDP:
		return "UDP"
	default:
		return fmt.Sprintf("proto(%d)", uint8(p))
	}
}

// Header sizes in bytes, for sizing a packet's payload from its wire
// length.
const (
	EthernetHeaderLen = 14
	IPv4MinHeaderLen  = 20
	TCPMinHeaderLen   = 20
	UDPHeaderLen      = 8
)

// TCPAck is the TCP ACK flag bit.
const TCPAck uint8 = 1 << 4

// Addr4 is an IPv4 address in network byte order.
type Addr4 [4]byte

// String formats the address in dotted-quad notation.
func (a Addr4) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
}

// Uint32 returns the address as a big-endian integer, the form used by
// query-language comparisons such as "srcip == 10.0.0.1".
func (a Addr4) Uint32() uint32 {
	return uint32(a[0])<<24 | uint32(a[1])<<16 | uint32(a[2])<<8 | uint32(a[3])
}

// Addr4FromUint32 converts a big-endian integer to an IPv4 address.
func Addr4FromUint32(v uint32) Addr4 {
	return Addr4{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
}
