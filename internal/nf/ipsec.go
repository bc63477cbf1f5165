package nf

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/opencloudnext/dhl-go/internal/core"
	"github.com/opencloudnext/dhl-go/internal/eth"
	"github.com/opencloudnext/dhl-go/internal/hwfunc"
	"github.com/opencloudnext/dhl-go/internal/mbuf"
	"github.com/opencloudnext/dhl-go/internal/perf"
	"github.com/opencloudnext/dhl-go/internal/swcrypto"
)

// Errors returned by the IPsec gateways.
var (
	ErrBadESP = errors.New("nf: malformed ESP frame")
)

// espOverhead is the per-packet on-wire growth: 8-byte IV + 12-byte ICV.
const espOverhead = swcrypto.IVSize + swcrypto.TagSize

// IPsecGatewaySW is the CPU-only IPsec gateway of Figure 6: IP header
// classification, SA matching, then AES-256-CTR encryption and HMAC-SHA1
// authentication in software (Intel-ipsec-mb model).
type IPsecGatewaySW struct {
	sadb    *SADB
	engines map[uint32]*swcrypto.Engine // SPI -> engine
	seq     uint64

	Encrypted uint64
	Dropped   uint64
}

// NewIPsecGatewaySW builds the gateway over an SA database.
func NewIPsecGatewaySW(sadb *SADB) (*IPsecGatewaySW, error) {
	g := &IPsecGatewaySW{
		sadb:    sadb,
		engines: make(map[uint32]*swcrypto.Engine, sadb.Len()),
	}
	return g, nil
}

func (g *IPsecGatewaySW) engine(sa *SA) (*swcrypto.Engine, error) {
	if e, ok := g.engines[sa.SPI]; ok {
		return e, nil
	}
	e, err := swcrypto.NewEngine(swcrypto.Config{Key: sa.Key, AuthKey: sa.AuthKey, Salt: sa.Salt})
	if err != nil {
		return nil, err
	}
	g.engines[sa.SPI] = e
	return e, nil
}

// Process encrypts one packet in place, producing
// [eth+ip][iv:8][ciphertext][icv:12] with the IP header's total length,
// protocol (-> ESP) and checksum updated. It returns the verdict and the
// modeled worker cycle cost (Figure 6(a) CPU-only calibration).
func (g *IPsecGatewaySW) Process(m *mbuf.Mbuf) (Verdict, float64) {
	cycles := perf.IPsecSWBaseCycles + perf.IPsecSWCyclesPerByte*float64(m.Len())
	frame, err := eth.Parse(m.Data())
	if err != nil {
		g.Dropped++
		return VerdictDrop, cycles
	}
	sa, err := g.sadb.Match(frame.DstIP())
	if err != nil {
		g.Dropped++
		return VerdictDrop, cycles
	}
	eng, err := g.engine(sa)
	if err != nil {
		g.Dropped++
		return VerdictDrop, cycles
	}
	const off = eth.EtherLen + eth.IPv4Len
	if m.Len() < off {
		g.Dropped++
		return VerdictDrop, cycles
	}
	plainLen := m.Len() - off
	if _, err := m.Append(espOverhead); err != nil {
		g.Dropped++
		return VerdictDrop, cycles
	}
	// The payload moves up by the IV in one overlapping copy.
	data := m.Data()
	ct := data[off+swcrypto.IVSize : off+swcrypto.IVSize+plainLen]
	copy(ct, data[off:off+plainLen])
	g.seq++
	iv := g.seq
	binary.BigEndian.PutUint64(data[off:off+swcrypto.IVSize], iv)
	tag := eng.Seal(ct, iv)
	copy(data[off+swcrypto.IVSize+plainLen:], tag[:])

	fixupESPHeader(m)
	g.Encrypted++
	return VerdictForward, cycles
}

// fixupESPHeader rewrites total length, protocol and checksum after the
// payload grew by espOverhead.
func fixupESPHeader(m *mbuf.Mbuf) {
	data := m.Data()
	binary.BigEndian.PutUint16(data[eth.EtherLen+2:eth.EtherLen+4],
		uint16(m.Len()-eth.EtherLen))
	data[eth.EtherLen+9] = eth.ProtoESP
	frame := mustParseLoose(data)
	frame.SetIPChecksum(frame.ComputeIPChecksum())
}

// mustParseLoose wraps raw bytes whose EtherType is already known-IPv4.
func mustParseLoose(raw []byte) eth.Frame {
	f, err := eth.Parse(raw)
	if err != nil {
		// The frame was parsed successfully before mutation; only header
		// fields changed, so this cannot fail.
		panic(fmt.Sprintf("nf: reparse after fixup: %v", err))
	}
	return f
}

// VerifyESP authenticates and decrypts an ESP frame produced by either
// gateway variant, returning the recovered plaintext L4 bytes. Test and
// example helper.
func VerifyESP(frameBytes []byte, sa SA) ([]byte, error) {
	eng, err := swcrypto.NewEngine(swcrypto.Config{Key: sa.Key, AuthKey: sa.AuthKey, Salt: sa.Salt})
	if err != nil {
		return nil, err
	}
	const off = eth.EtherLen + eth.IPv4Len
	if len(frameBytes) < off+espOverhead {
		return nil, ErrBadESP
	}
	iv := binary.BigEndian.Uint64(frameBytes[off : off+swcrypto.IVSize])
	body := frameBytes[off+swcrypto.IVSize:]
	ct := append([]byte(nil), body[:len(body)-swcrypto.TagSize]...)
	var tag [swcrypto.TagSize]byte
	copy(tag[:], body[len(body)-swcrypto.TagSize:])
	if err := eng.Open(ct, iv, tag); err != nil {
		return nil, err
	}
	return ct, nil
}

// IPsecGatewayDHL is the DHL-version IPsec gateway (Listing 2): the
// shallow stages (classification, SA matching, tagging) stay in software
// while encryption+authentication run on the ipsec-crypto hardware
// function.
type IPsecGatewayDHL struct {
	sadb *SADB
	offload

	Tagged  uint64
	Dropped uint64
	Alerts  uint64
	// Unprocessed counts the frames dropped because the module never
	// encrypted them (StatusUnprocessed).
	Unprocessed uint64
}

// NewIPsecGatewayDHL registers the NF with the DHL runtime, resolves the
// ipsec-crypto hardware function on the NF's NUMA node and configures it
// with the gateway's (single) SA — the Listing 2 setup sequence.
func NewIPsecGatewayDHL(rt *core.Runtime, sadb *SADB, name string, node int) (*IPsecGatewayDHL, error) {
	off, err := openIPsecOffload(rt, sadb, name, node, hwfunc.IPsecCryptoName)
	if err != nil {
		return nil, err
	}
	return &IPsecGatewayDHL{sadb: sadb, offload: off}, nil
}

// openIPsecOffload is openOffload for a gateway of either direction: hf,
// the crypto module of that direction, is configured with the (single) SA.
func openIPsecOffload(rt *core.Runtime, sadb *SADB, name string, node int, hf string) (offload, error) {
	if sadb.Len() == 0 {
		return offload{}, ErrNoSA
	}
	sa := &sadb.sas[0]
	blob, err := hwfunc.EncodeIPsecCryptoConfig(sa.Key, sa.AuthKey, sa.Salt)
	if err != nil {
		return offload{}, err
	}
	return openOffload(rt, name, node, hf, blob)
}

// PreProcess performs the shallow ingress work on the I/O core: header
// classification, SA matching, and shaping the mbuf into the
// ipsec-crypto request ([encOffset:2][frame]) with the (nf_id, acc_id)
// tags attached. It returns the verdict and cycle cost.
func (g *IPsecGatewayDHL) PreProcess(m *mbuf.Mbuf) (Verdict, float64) {
	frame, err := eth.Parse(m.Data())
	if err != nil {
		g.Dropped++
		return VerdictDrop, perf.NFShallowIPsecCycles
	}
	if _, err := g.sadb.Match(frame.DstIP()); err != nil {
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
	g.Tagged++
	return VerdictForward, perf.NFShallowIPsecCycles
}

// PostProcess fixes up the returned encrypted frame (IP length, ESP
// protocol, checksum) on the OBQ drain path. A frame the module never
// encrypted (StatusUnprocessed) is plaintext and is dropped, not sent as
// ESP.
func (g *IPsecGatewayDHL) PostProcess(m *mbuf.Mbuf) (Verdict, float64) {
	if m.Status == mbuf.StatusUnprocessed {
		g.Unprocessed++
		return VerdictDrop, perf.NFPostIPsecCycles
	}
	if m.Len() < eth.EtherLen+eth.IPv4Len+espOverhead {
		g.Dropped++
		return VerdictDrop, perf.NFPostIPsecCycles
	}
	fixupESPHeader(m)
	return VerdictForward, perf.NFPostIPsecCycles
}
