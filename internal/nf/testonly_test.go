package nf

import (
	"encoding/binary"
	"errors"

	"github.com/opencloudnext/dhl-go/internal/eth"
	"github.com/opencloudnext/dhl-go/internal/flowtab"
	"github.com/opencloudnext/dhl-go/internal/mbuf"
)

// Only this package's tests read what follows; the rest of the module
// has no use for it.

func setL4DstPort(f eth.Frame, port uint16) {
	l4 := f.L4()
	if len(l4) >= 4 {
		l4[2] = byte(port >> 8)
		l4[3] = byte(port)
	}
}

// Release drops the translation for an internal endpoint (flow expiry).
func (n *NAT) Release(ip eth.IPv4, port uint16, proto uint8) error {
	key := natKey{ip: ip, port: port, proto: proto}
	ext, ok := n.outbound.Peek(key)
	if !ok {
		return ErrNATNoMapping
	}
	n.inbound.Delete(*ext)
	n.outbound.Delete(key)
	return nil
}

// ProcessInbound reverses a translation for an outside->inside packet.
func (n *NAT) ProcessInbound(m *mbuf.Mbuf) (Verdict, float64) {
	frame, err := eth.Parse(m.Data())
	if err != nil || (frame.Proto() != eth.ProtoTCP && frame.Proto() != eth.ProtoUDP) {
		n.Dropped++
		return VerdictDrop, natCycles
	}
	kp, ok := n.inbound.Lookup(frame.DstPort())
	if !ok || kp.proto != frame.Proto() {
		n.Dropped++
		return VerdictDrop, natCycles
	}
	key := *kp
	// Inbound traffic keeps the translation alive: refresh the outbound
	// entry, which owns the idle deadline.
	n.outbound.Lookup(key)
	setDstIP(m.Data(), key.ip)
	setL4DstPort(frame, key.port)
	frame.SetIPChecksum(frame.ComputeIPChecksum())
	n.Translated++
	return VerdictForward, natCycles
}

// FlowTabs exposes the NAT's flow tables for telemetry registration.
func (n *NAT) FlowTabs() []flowtab.Source {
	return []flowtab.Source{n.outbound, n.inbound}
}

var (
	ErrNATNoMapping = errors.New("nf: no NAT mapping for inbound packet")
)

// FlowTabs exposes the SPI index for telemetry registration.
func (db *SADB) FlowTabs() []flowtab.Source {
	return []flowtab.Source{db.bySPI}
}

// BySPI resolves an SA by its security parameter index, the inbound
// (ESP header) direction of Match.
func (db *SADB) BySPI(spi uint32) (*SA, error) {
	idx, ok := db.bySPI.Peek(spi)
	if !ok {
		return nil, ErrNoSA
	}
	return &db.sas[*idx], nil
}

// ipChecksum reads a frame's stored IPv4 header checksum.
func ipChecksum(raw []byte) uint16 { return binary.BigEndian.Uint16(raw[eth.EtherLen+10:]) }

// setDstIP rewrites a frame's IPv4 destination address.
func setDstIP(raw []byte, ip eth.IPv4) { copy(raw[eth.EtherLen+16:eth.EtherLen+20], ip[:]) }
