package nf

import (
	"bytes"
	"compress/flate"
	"fmt"

	"github.com/opencloudnext/dhl-go/internal/core"
	"github.com/opencloudnext/dhl-go/internal/eth"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/flowtab"
	"github.com/opencloudnext/dhl-go/internal/hwfunc"
	"github.com/opencloudnext/dhl-go/internal/mbuf"
)

// Flow-compression cycle model: DEFLATE over packet payloads is the most
// cycle-hungry of the paper's deep-packet-processing examples ("flow
// compression", §II-B); LZ matching costs far more per byte than AES.
const (
	flowCompSWBaseCycles    = 900.0
	flowCompSWCyclesPerByte = 11.0
	flowCompShallowCycles   = 20.0
	flowCompPostCycles      = 12.0
)

// FlowCompressorSW is the CPU-only flow compressor: it DEFLATE-compresses
// each packet's L4 payload in place (WAN-optimizer style). TrackFlows
// arms optional per-flow compression accounting in a bounded flowtab.
type FlowCompressorSW struct {
	level int
	flows *flowtab.Table[eth.FiveTuple, FlowCompStats]

	Compressed   uint64
	Incompressed uint64 // payloads that did not shrink, forwarded as-is
	BytesIn      uint64
	BytesOut     uint64
}

// FlowCompStats aggregates one flow's compression totals.
type FlowCompStats struct {
	Packets  uint64
	BytesIn  uint64
	BytesOut uint64
}

// NewFlowCompressorSW builds a compressor at the given DEFLATE level
// (1..9).
func NewFlowCompressorSW(level int) (*FlowCompressorSW, error) {
	if level < 1 || level > 9 {
		return nil, fmt.Errorf("nf: compression level %d out of range", level)
	}
	return &FlowCompressorSW{level: level}, nil
}

// TrackFlows arms per-flow accounting: maxFlows bounds the table (the
// flow nearest idle expiry is evicted at the cap), ttl+clock expire
// idle flows. Pass ttl 0 with a nil clock for a never-expiring table.
func (c *FlowCompressorSW) TrackFlows(maxFlows int, ttl eventsim.Time, clock func() eventsim.Time) error {
	flows, err := flowtab.New(flowtab.Config[eth.FiveTuple, FlowCompStats]{
		Name:       "flowcomp-flows",
		Hash:       flowtab.HashFiveTuple,
		Clock:      clock,
		MaxEntries: maxFlows,
		TTL:        ttl,
	})
	if err != nil {
		return err
	}
	c.flows = flows
	return nil
}

// FlowTabs exposes the per-flow accounting table (empty until
// TrackFlows).
func (c *FlowCompressorSW) FlowTabs() []flowtab.Source {
	if c.flows == nil {
		return nil
	}
	return []flowtab.Source{c.flows}
}

// FlowStats reports one flow's totals (zero, false when untracked).
func (c *FlowCompressorSW) FlowStats(t eth.FiveTuple) (FlowCompStats, bool) {
	if c.flows == nil {
		return FlowCompStats{}, false
	}
	st, ok := c.flows.Peek(t)
	if !ok {
		return FlowCompStats{}, false
	}
	return *st, true
}

// Tick expires idle per-flow stats (no-op without TrackFlows/ttl).
func (c *FlowCompressorSW) Tick() int {
	if c.flows == nil {
		return 0
	}
	return c.flows.Tick()
}

// account records one packet's totals against its flow.
func (c *FlowCompressorSW) account(frame eth.Frame, in, out int) {
	if c.flows == nil {
		return
	}
	st, _, err := c.flows.Insert(frame.Tuple())
	if err != nil {
		return // table at budget with no TTL: flow goes unaccounted
	}
	st.Packets++
	st.BytesIn += uint64(in)
	st.BytesOut += uint64(out)
}

// Process compresses the packet payload in place when that shrinks it.
func (c *FlowCompressorSW) Process(m *mbuf.Mbuf) (Verdict, float64) {
	cycles := flowCompSWBaseCycles + flowCompSWCyclesPerByte*float64(m.Len())
	frame, err := eth.Parse(m.Data())
	if err != nil {
		return VerdictDrop, cycles
	}
	payload := frame.Payload()
	if len(payload) == 0 {
		c.Incompressed++
		return VerdictForward, cycles
	}
	var buf bytes.Buffer
	w, werr := flate.NewWriter(&buf, c.level)
	if werr != nil {
		return VerdictDrop, cycles
	}
	if _, werr := w.Write(payload); werr != nil {
		return VerdictDrop, cycles
	}
	if werr := w.Close(); werr != nil {
		return VerdictDrop, cycles
	}
	c.BytesIn += uint64(len(payload))
	if buf.Len() >= len(payload) {
		c.Incompressed++
		c.BytesOut += uint64(len(payload))
		c.account(frame, len(payload), len(payload))
		return VerdictForward, cycles
	}
	// Shrink the packet: overwrite the payload and trim the tail.
	copy(payload, buf.Bytes())
	if terr := m.Trim(len(payload) - buf.Len()); terr != nil {
		return VerdictDrop, cycles
	}
	fixupLengthsAfterResize(m)
	c.Compressed++
	c.BytesOut += uint64(buf.Len())
	c.account(frame, len(payload), buf.Len())
	return VerdictForward, cycles
}

// fixupLengthsAfterResize rewrites the IP total length and checksum after
// the payload size changed. (UDP length/checksum are left to the NIC
// offload convention used throughout the testbed.)
func fixupLengthsAfterResize(m *mbuf.Mbuf) {
	data := m.Data()
	data[eth.EtherLen+2] = byte((m.Len() - eth.EtherLen) >> 8)
	data[eth.EtherLen+3] = byte(m.Len() - eth.EtherLen)
	frame := mustParseLoose(data)
	frame.SetIPChecksum(frame.ComputeIPChecksum())
}

// FlowCompressorDHL offloads the compression to the data-compression
// hardware function. Unlike the other DHL NFs it ships only the L4
// payload to the accelerator (headers stay host-side), so PreProcess
// trims the packet to its payload and PostProcess cannot reconstruct the
// original headers — instead the harness-style usage keeps the headers in
// the mbuf and sends whole frames. For simplicity and symmetry with the
// hardware interface, this implementation compresses whole frames.
type FlowCompressorDHL struct {
	offload

	Sent    uint64
	Dropped uint64
}

// NewFlowCompressorDHL registers the NF and configures data-compression
// in the compress direction at the given level.
func NewFlowCompressorDHL(rt *core.Runtime, level int, name string, node int) (*FlowCompressorDHL, error) {
	if level < 1 || level > 9 {
		return nil, fmt.Errorf("nf: compression level %d out of range", level)
	}
	off, err := openOffload(rt, name, node, hwfunc.DataCompressionName, []byte{0, byte(level)})
	if err != nil {
		return nil, err
	}
	return &FlowCompressorDHL{offload: off}, nil
}

// PreProcess tags the frame for the data-compression module.
func (c *FlowCompressorDHL) PreProcess(m *mbuf.Mbuf) (Verdict, float64) {
	m.AccID = uint16(c.AccID)
	c.Sent++
	return VerdictForward, flowCompShallowCycles
}

// PostProcess accepts the compressed representation (the returned payload
// is the DEFLATE stream of the whole frame, to be framed by a tunnel
// header in a full deployment).
func (c *FlowCompressorDHL) PostProcess(m *mbuf.Mbuf) (Verdict, float64) {
	if m.Len() == 0 {
		c.Dropped++
		return VerdictDrop, flowCompPostCycles
	}
	return VerdictForward, flowCompPostCycles
}
