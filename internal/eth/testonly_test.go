package eth

import "encoding/binary"

// ipTotalLen reads the IPv4 total length field.
func ipTotalLen(f Frame) int { return int(binary.BigEndian.Uint16(f.raw[EtherLen+2:])) }

// ipChecksum reads the stored IPv4 header checksum.
func ipChecksum(f Frame) uint16 { return binary.BigEndian.Uint16(f.raw[EtherLen+10:]) }
