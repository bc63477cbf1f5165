package nf

import (
	"fmt"

	"github.com/opencloudnext/dhl-go/internal/eth"
	"github.com/opencloudnext/dhl-go/internal/lpm"
	"github.com/opencloudnext/dhl-go/internal/mbuf"
	"github.com/opencloudnext/dhl-go/internal/perf"
)

// Verdict is a per-packet processing outcome.
type Verdict int

// Verdicts.
const (
	// VerdictForward sends the packet on.
	VerdictForward Verdict = iota + 1
	// VerdictDrop discards the packet.
	VerdictDrop
)

// L2Fwd is the Table I L2 forwarding baseline: per-port static MAC rewrite
// and port swap, exactly DPDK's l2fwd example.
type L2Fwd struct {
	nextMAC map[uint16]eth.MAC
	portMap map[uint16]uint16
	ownMAC  eth.MAC

	Forwarded uint64
	Dropped   uint64
}

// NewL2Fwd creates an L2 forwarder with the given per-ingress-port output
// mapping.
func NewL2Fwd(ownMAC eth.MAC) *L2Fwd {
	return &L2Fwd{
		nextMAC: make(map[uint16]eth.MAC),
		portMap: make(map[uint16]uint16),
		ownMAC:  ownMAC,
	}
}

// AddPort maps ingress port in to egress port out with next-hop dst.
func (f *L2Fwd) AddPort(in, out uint16, dst eth.MAC) {
	f.portMap[in] = out
	f.nextMAC[in] = dst
}

// Process rewrites the MACs and retargets the packet's port. It returns
// the CPU cycle cost of the operation (Table I: 36 cycles).
func (f *L2Fwd) Process(m *mbuf.Mbuf) (Verdict, float64) {
	dst, ok := f.nextMAC[m.Port]
	if !ok {
		f.Dropped++
		return VerdictDrop, perf.L2fwdCycles
	}
	frame, err := eth.Parse(m.Data())
	if err != nil {
		f.Dropped++
		return VerdictDrop, perf.L2fwdCycles
	}
	frame.SetSrcMAC(f.ownMAC)
	frame.SetDstMAC(dst)
	m.Port = f.portMap[m.Port]
	f.Forwarded++
	return VerdictForward, perf.L2fwdCycles
}

// L3Fwd is the Table I L3fwd-lpm baseline: longest-prefix-match routing
// with TTL decrement, DPDK's l3fwd example.
type L3Fwd struct {
	table   *lpm.Table
	nextMAC map[uint16]eth.MAC
	ownMAC  eth.MAC

	Forwarded uint64
	Dropped   uint64
}

// NewL3Fwd creates an L3 forwarder over an LPM table.
func NewL3Fwd(ownMAC eth.MAC) *L3Fwd {
	return &L3Fwd{table: lpm.New(0), nextMAC: make(map[uint16]eth.MAC), ownMAC: ownMAC}
}

// AddRoute installs prefix/depth -> port with the next hop's MAC.
func (f *L3Fwd) AddRoute(prefix uint32, depth uint8, port uint16, dst eth.MAC) error {
	if err := f.table.Add(prefix, depth, port); err != nil {
		return fmt.Errorf("nf: add route: %w", err)
	}
	f.nextMAC[port] = dst
	return nil
}

// Process routes the packet: LPM lookup on the destination, TTL decrement
// with incremental checksum update, MAC rewrite and port retarget. It
// returns the cycle cost (Table I: 60 cycles).
func (f *L3Fwd) Process(m *mbuf.Mbuf) (Verdict, float64) {
	frame, err := eth.Parse(m.Data())
	if err != nil {
		f.Dropped++
		return VerdictDrop, perf.L3fwdCycles
	}
	if frame.TTL() <= 1 {
		f.Dropped++
		return VerdictDrop, perf.L3fwdCycles
	}
	port, lerr := f.table.Lookup(frame.DstIP().Uint32())
	if lerr != nil {
		f.Dropped++
		return VerdictDrop, perf.L3fwdCycles
	}
	frame.DecTTL()
	frame.SetSrcMAC(f.ownMAC)
	frame.SetDstMAC(f.nextMAC[port])
	m.Port = port
	f.Forwarded++
	return VerdictForward, perf.L3fwdCycles
}
