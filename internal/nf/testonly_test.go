package nf

import (
	"encoding/binary"

	"github.com/opencloudnext/dhl-go/internal/eth"
)

// Only this package's tests read what follows; the rest of the module
// has no use for it.

// ipChecksum reads a frame's stored IPv4 header checksum.
func ipChecksum(raw []byte) uint16 { return binary.BigEndian.Uint16(raw[eth.EtherLen+10:]) }
