package nf

import (
	"encoding/binary"

	"github.com/opencloudnext/dhl-go/internal/core"
	"github.com/opencloudnext/dhl-go/internal/eth"
	"github.com/opencloudnext/dhl-go/internal/hwfunc"
	"github.com/opencloudnext/dhl-go/internal/mbuf"
	"github.com/opencloudnext/dhl-go/internal/perf"
	"github.com/opencloudnext/dhl-go/internal/swcrypto"
)

// IPsecGatewayInboundDHL is the decrypt direction of the DHL IPsec
// gateway: ESP frames are classified and SA-matched in software, then
// authenticated and decrypted on the ipsec-decrypt hardware function
// ("Decryption" in the §IV-C module catalogue).
type IPsecGatewayInboundDHL struct {
	sadb *SADB
	offload

	Decrypted    uint64
	AuthFailures uint64
	Dropped      uint64
	// Unprocessed counts the frames dropped because the module never
	// decrypted them (StatusUnprocessed).
	Unprocessed uint64
}

// NewIPsecGatewayInboundDHL registers the inbound gateway and configures
// the decrypt module with the (single) SA.
//
//dhl:allow unreferenced kept as the chaos explorer's payload oracle: it opens every delivered packet
func NewIPsecGatewayInboundDHL(rt *core.Runtime, sadb *SADB, name string, node int) (*IPsecGatewayInboundDHL, error) {
	off, err := openIPsecOffload(rt, sadb, name, node, hwfunc.IPsecDecryptName)
	if err != nil {
		return nil, err
	}
	return &IPsecGatewayInboundDHL{sadb: sadb, offload: off}, nil
}

// PreProcess validates the ESP framing, matches the SA and shapes the
// request for the decrypt module.
func (g *IPsecGatewayInboundDHL) PreProcess(m *mbuf.Mbuf) (Verdict, float64) {
	frame, err := eth.Parse(m.Data())
	if err != nil || frame.Proto() != eth.ProtoESP {
		g.Dropped++
		return VerdictDrop, perf.NFShallowIPsecCycles
	}
	if _, err := g.sadb.Match(frame.DstIP()); err != nil {
		g.Dropped++
		return VerdictDrop, perf.NFShallowIPsecCycles
	}
	if m.Len() < eth.EtherLen+eth.IPv4Len+swcrypto.IVSize+swcrypto.TagSize {
		g.Dropped++
		return VerdictDrop, perf.NFShallowIPsecCycles
	}
	hdr, err := m.Prepend(hwfunc.IPsecReqPrefix)
	if err != nil {
		g.Dropped++
		return VerdictDrop, perf.NFShallowIPsecCycles
	}
	binary.BigEndian.PutUint16(hdr, uint16(eth.EtherLen+eth.IPv4Len))
	m.AccID = uint16(g.AccID)
	return VerdictForward, perf.NFShallowIPsecCycles
}

// PostProcess restores the cleartext IP header fields. The hardware
// module strips the payload of records that failed authentication; those
// come back as header-only frames and are dropped here, as are frames the
// module never decrypted (StatusUnprocessed).
func (g *IPsecGatewayInboundDHL) PostProcess(m *mbuf.Mbuf) (Verdict, float64) {
	if m.Status == mbuf.StatusUnprocessed {
		g.Unprocessed++
		return VerdictDrop, perf.NFPostIPsecCycles
	}
	const hdrLen = eth.EtherLen + eth.IPv4Len
	if m.Len() <= hdrLen {
		g.AuthFailures++
		return VerdictDrop, perf.NFPostIPsecCycles
	}
	data := m.Data()
	binary.BigEndian.PutUint16(data[eth.EtherLen+2:eth.EtherLen+4], uint16(m.Len()-eth.EtherLen))
	// The reproduction's transport-mode encapsulation carries UDP inner
	// traffic (the generator's workload); a full ESP trailer with a
	// next-header byte is out of scope, so the inner protocol is restored
	// statically here.
	data[eth.EtherLen+9] = eth.ProtoUDP
	frame := mustParseLoose(data)
	frame.SetIPChecksum(frame.ComputeIPChecksum())
	g.Decrypted++
	return VerdictForward, perf.NFPostIPsecCycles
}
