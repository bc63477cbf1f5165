// Package eth crafts and parses the Ethernet/IPv4/UDP/TCP headers that the
// reproduced network functions operate on. It implements just enough of the
// wire formats for the DHL workloads: L2 forwarding (MAC rewrite), L3
// longest-prefix-match forwarding, IPsec ESP tunneling, and NIDS payload
// inspection.
package eth

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Header sizes and protocol numbers.
const (
	EtherLen = 14
	IPv4Len  = 20
	UDPLen   = 8
	TCPLen   = 20

	// EtherTypeIPv4 is the EtherType for IPv4.
	EtherTypeIPv4 = 0x0800

	// ProtoTCP, ProtoUDP and ProtoESP are IPv4 protocol numbers.
	ProtoTCP = 6
	ProtoUDP = 17
	ProtoESP = 50

	// WireOverhead is the per-frame preamble+SFD+IFG+FCS overhead (20+4
	// bytes) used when converting packet sizes to line-rate occupancy; the
	// paper's "64B at 10G = 14.88 Mpps" arithmetic depends on it.
	WireOverhead = 24
)

// Errors returned by the parsers.
var (
	ErrTruncated = errors.New("eth: truncated packet")
	ErrNotIPv4   = errors.New("eth: not an IPv4 packet")
)

// MAC is a 48-bit Ethernet address.
type MAC [6]byte

// String renders the MAC in colon-separated hex.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IPv4 is an IPv4 address in host-independent byte order.
type IPv4 [4]byte

// String renders the address in dotted-quad form.
func (ip IPv4) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", ip[0], ip[1], ip[2], ip[3])
}

// Uint32 returns the address as a big-endian integer (for LPM lookups).
func (ip IPv4) Uint32() uint32 { return binary.BigEndian.Uint32(ip[:]) }

// FiveTuple identifies a flow; IPsec SA matching and NIDS rules key on it.
type FiveTuple struct {
	Src     IPv4
	Dst     IPv4
	SrcPort uint16
	DstPort uint16
	Proto   uint8
}

// String renders the tuple for diagnostics.
func (t FiveTuple) String() string {
	return fmt.Sprintf("%s:%d->%s:%d/%d", t.Src, t.SrcPort, t.Dst, t.DstPort, t.Proto)
}

// Frame is a decoded view over a raw packet. Header fields alias the
// underlying buffer, so mutations write through.
type Frame struct {
	raw []byte
}

// Parse wraps a raw Ethernet frame, validating minimum lengths for an
// Ethernet+IPv4+L4 packet.
func Parse(raw []byte) (Frame, error) {
	if len(raw) < EtherLen+IPv4Len {
		return Frame{}, fmt.Errorf("%w: %d bytes", ErrTruncated, len(raw))
	}
	f := Frame{raw: raw}
	if f.EtherType() != EtherTypeIPv4 {
		return Frame{}, ErrNotIPv4
	}
	if ihl := f.ipHeaderLen(); len(raw) < EtherLen+ihl {
		return Frame{}, fmt.Errorf("%w: IHL %d", ErrTruncated, ihl)
	}
	return f, nil
}

// SetDstMAC rewrites the destination MAC (L2fwd's per-packet work).
func (f Frame) SetDstMAC(m MAC) { copy(f.raw[0:6], m[:]) }

// SetSrcMAC rewrites the source MAC.
func (f Frame) SetSrcMAC(m MAC) { copy(f.raw[6:12], m[:]) }

// EtherType returns the frame's EtherType.
func (f Frame) EtherType() uint16 { return binary.BigEndian.Uint16(f.raw[12:14]) }

func (f Frame) ipHeaderLen() int { return int(f.raw[EtherLen]&0x0f) * 4 }

// Proto returns the IPv4 protocol number.
func (f Frame) Proto() uint8 { return f.raw[EtherLen+9] }

// TTL returns the IPv4 time-to-live.
func (f Frame) TTL() uint8 { return f.raw[EtherLen+8] }

// DecTTL decrements TTL and incrementally updates the header checksum,
// the way an L3 forwarder does.
func (f Frame) DecTTL() {
	f.raw[EtherLen+8]--
	// RFC 1141 incremental checksum update for a -1 on the TTL byte.
	f.SetIPChecksum(0)
	f.SetIPChecksum(f.ComputeIPChecksum())
}

// SrcIP returns the IPv4 source address.
func (f Frame) SrcIP() IPv4 { var ip IPv4; copy(ip[:], f.raw[EtherLen+12:EtherLen+16]); return ip }

// DstIP returns the IPv4 destination address.
func (f Frame) DstIP() IPv4 { var ip IPv4; copy(ip[:], f.raw[EtherLen+16:EtherLen+20]); return ip }

// SetSrcIP rewrites the source address (NAT-style).
func (f Frame) SetSrcIP(ip IPv4) { copy(f.raw[EtherLen+12:EtherLen+16], ip[:]) }

// SetIPChecksum stores a header checksum value.
func (f Frame) SetIPChecksum(sum uint16) {
	binary.BigEndian.PutUint16(f.raw[EtherLen+10:EtherLen+12], sum)
}

// ComputeIPChecksum computes the IPv4 header checksum over the current
// header with the checksum field treated as zero.
func (f Frame) ComputeIPChecksum() uint16 {
	ihl := f.ipHeaderLen()
	var sum uint32
	for i := 0; i < ihl; i += 2 {
		if i == 10 { // skip the checksum field itself
			continue
		}
		sum += uint32(binary.BigEndian.Uint16(f.raw[EtherLen+i : EtherLen+i+2]))
	}
	for sum > 0xffff {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}

// L4 returns the transport header+payload bytes.
func (f Frame) L4() []byte { return f.raw[EtherLen+f.ipHeaderLen():] }

// SrcPort returns the L4 source port (TCP/UDP), or 0 when absent.
func (f Frame) SrcPort() uint16 {
	l4 := f.L4()
	if len(l4) < 4 || (f.Proto() != ProtoTCP && f.Proto() != ProtoUDP) {
		return 0
	}
	return binary.BigEndian.Uint16(l4[0:2])
}

// DstPort returns the L4 destination port (TCP/UDP), or 0 when absent.
func (f Frame) DstPort() uint16 {
	l4 := f.L4()
	if len(l4) < 4 || (f.Proto() != ProtoTCP && f.Proto() != ProtoUDP) {
		return 0
	}
	return binary.BigEndian.Uint16(l4[2:4])
}

// Tuple extracts the flow 5-tuple.
func (f Frame) Tuple() FiveTuple {
	return FiveTuple{
		Src:     f.SrcIP(),
		Dst:     f.DstIP(),
		SrcPort: f.SrcPort(),
		DstPort: f.DstPort(),
		Proto:   f.Proto(),
	}
}

// BuildConfig parameterizes Build.
type BuildConfig struct {
	SrcMAC, DstMAC   MAC
	SrcIP, DstIP     IPv4
	SrcPort, DstPort uint16
	Proto            uint8 // ProtoUDP or ProtoTCP
	Payload          []byte
}

// Build writes a well-formed Ethernet+IPv4+UDP/TCP packet into dst and
// returns the total frame length. dst must be large enough
// (EtherLen+IPv4Len+L4+payload).
func Build(dst []byte, cfg BuildConfig) (int, error) {
	l4len := UDPLen
	if cfg.Proto == ProtoTCP {
		l4len = TCPLen
	} else if cfg.Proto == 0 {
		cfg.Proto = ProtoUDP
	}
	total := EtherLen + IPv4Len + l4len + len(cfg.Payload)
	if len(dst) < total {
		return 0, fmt.Errorf("eth: build buffer too small: need %d, have %d", total, len(dst))
	}
	copy(dst[0:6], cfg.DstMAC[:])
	copy(dst[6:12], cfg.SrcMAC[:])
	binary.BigEndian.PutUint16(dst[12:14], EtherTypeIPv4)

	ip := dst[EtherLen:]
	ip[0] = 0x45 // version 4, IHL 5
	ip[1] = 0
	binary.BigEndian.PutUint16(ip[2:4], uint16(IPv4Len+l4len+len(cfg.Payload)))
	binary.BigEndian.PutUint16(ip[4:6], 0) // identification
	binary.BigEndian.PutUint16(ip[6:8], 0) // flags/fragment
	ip[8] = 64                             // TTL
	ip[9] = cfg.Proto
	ip[10], ip[11] = 0, 0
	copy(ip[12:16], cfg.SrcIP[:])
	copy(ip[16:20], cfg.DstIP[:])

	l4 := ip[IPv4Len:]
	binary.BigEndian.PutUint16(l4[0:2], cfg.SrcPort)
	binary.BigEndian.PutUint16(l4[2:4], cfg.DstPort)
	if cfg.Proto == ProtoTCP {
		binary.BigEndian.PutUint32(l4[4:8], 1)  // seq
		binary.BigEndian.PutUint32(l4[8:12], 0) // ack
		l4[12] = (TCPLen / 4) << 4              // data offset
		l4[13] = 0x18                           // PSH|ACK
		binary.BigEndian.PutUint16(l4[14:16], 0xffff)
		l4[16], l4[17] = 0, 0 // checksum (left zero; NICs offload it)
		l4[18], l4[19] = 0, 0
		copy(l4[TCPLen:], cfg.Payload)
	} else {
		binary.BigEndian.PutUint16(l4[4:6], uint16(UDPLen+len(cfg.Payload)))
		l4[6], l4[7] = 0, 0
		copy(l4[UDPLen:], cfg.Payload)
	}

	f := Frame{raw: dst[:total]}
	f.SetIPChecksum(f.ComputeIPChecksum())
	return total, nil
}
