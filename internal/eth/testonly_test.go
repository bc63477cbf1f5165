package eth

import "encoding/binary"

// ipTotalLen reads the IPv4 total length field.
func ipTotalLen(f Frame) int { return int(binary.BigEndian.Uint16(f.raw[EtherLen+2:])) }

// ipChecksum reads the stored IPv4 header checksum.
func ipChecksum(f Frame) uint16 { return binary.BigEndian.Uint16(f.raw[EtherLen+10:]) }

// Payload returns the application payload (after the L4 header).
func (f Frame) Payload() []byte {
	l4 := f.L4()
	switch f.Proto() {
	case ProtoUDP:
		if len(l4) < UDPLen {
			return nil
		}
		return l4[UDPLen:]
	case ProtoTCP:
		if len(l4) < TCPLen {
			return nil
		}
		off := int(l4[12]>>4) * 4
		if off < TCPLen || len(l4) < off {
			return nil
		}
		return l4[off:]
	default:
		return l4
	}
}
