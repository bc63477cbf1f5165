package harness

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/opencloudnext/dhl-go/internal/core"
	"github.com/opencloudnext/dhl-go/internal/eth"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/faultinject"
	"github.com/opencloudnext/dhl-go/internal/hwfunc"
	"github.com/opencloudnext/dhl-go/internal/mbuf"
	"github.com/opencloudnext/dhl-go/internal/netdev"
	"github.com/opencloudnext/dhl-go/internal/nf"
)

// --- flow-state consistency across fallback/recovery --------------------

// flowStateFailoverConfig parameterizes runFlowStateFailover.
type flowStateFailoverConfig struct {
	// Seed drives the deterministic fault plan (default 42).
	Seed uint64
	// Flows is the NAT'd flow population (default 512; must fit the
	// NAT's port pool).
	Flows int
	// Packets is the paced packet budget (default 9600, enough to span
	// the ~29 ms ICAP reload).
	Packets int
	// FrameSize is the inner Ethernet frame size (default 128).
	FrameSize int
}

func (c flowStateFailoverConfig) withDefaults() flowStateFailoverConfig {
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Flows == 0 {
		c.Flows = 512
	}
	if c.Packets == 0 {
		c.Packets = 9600
	}
	if c.FrameSize == 0 {
		c.FrameSize = 128
	}
	return c
}

// flowStateFailoverResult reports the run's transitions, the
// conservation ledger, and the flow-state audit.
type flowStateFailoverResult struct {
	// Transition evidence: the run must actually have gone through
	// quarantine -> fallback -> reload.
	Quarantines uint64
	Reloads     uint64
	DeliveredOK uint64
	// DeliveredFallback counts packets the software fallback processed
	// while the region reloaded.
	DeliveredFallback    uint64
	DeliveredUnprocessed uint64

	// Flow-state audit against the shadow model.
	Mappings      int
	ShadowEntries int
	// PortMismatches counts flows whose NAT mapping diverged from the
	// shadow model's recorded external port (must be 0: translations
	// are stable across fault transitions).
	PortMismatches int

	Stats  core.TransferStats
	Leaked int
}

// runFlowStateFailover drives NAT'd traffic through the DHL ipsec
// accelerator while a persistent SEU forces quarantine -> software
// fallback -> ICAP reload -> recovery, then audits the NAT's flow
// state against a shadow model: every live flow still maps to the
// external port recorded at first translation, the port set is exactly
// the ports the translations hold (no marked port without an owner, no
// double-allocated ports), and the transfer ledger still balances.
// Host-side flow state must be completely insulated from accelerator
// fault transitions — that is the property under test.
func runFlowStateFailover(cfg flowStateFailoverConfig) (*flowStateFailoverResult, error) {
	cfg = cfg.withDefaults()
	res := &flowStateFailoverResult{}
	tb, err := newTestbed(0)
	if err != nil {
		return nil, err
	}
	plan, err := faultinject.NewPlan(cfg.Seed, failoverSpecs(cfg.Packets)...)
	if err != nil {
		return nil, err
	}
	rt, err := tb.newRuntime(core.Config{
		BatchBytes:   2048,
		FlushTimeout: 5 * eventsim.Microsecond,
		Faults:       plan,
	})
	if err != nil {
		return nil, err
	}
	nfID, acc, err := tb.openIPsecCrypto(rt, "flowstate-gw", true)
	if err != nil {
		return nil, err
	}

	// The NAT under audit: TTL armed but longer than the whole run, so
	// idle expiry never fires and the shadow model must match exactly.
	nat := nf.NewNAT(nf.NATConfig{
		External: eth.IPv4{203, 0, 113, 7},
		FlowTTL:  10 * eventsim.Second,
		Clock:    tb.sim.Now,
	})
	// shadow records each flow's external port at first translation.
	shadow := make(map[uint64]uint16, cfg.Flows)

	frameBuf := make([]byte, 2048)
	buildFlowFrame := func(flow uint64) ([]byte, error) {
		src, srcPort := netdev.FlowSrc(flow)
		n, berr := eth.Build(frameBuf, eth.BuildConfig{
			SrcMAC: eth.MAC{2, 0, 0, 0, 0, 1}, DstMAC: eth.MAC{2, 0, 0, 0, 0, 2},
			SrcIP: src, DstIP: eth.IPv4{198, 51, 100, 1},
			SrcPort: srcPort, DstPort: 4500, Proto: eth.ProtoUDP,
			Payload: make([]byte, cfg.FrameSize),
		})
		if berr != nil {
			return nil, berr
		}
		return frameBuf[:n], nil
	}

	// fill is the host-side stateful stage: translate, audit against the
	// shadow model — a remapped flow is an immediate fail — and wrap the
	// translated frame as an ipsec request record (2-byte encryption
	// offset, 0 = whole frame, then the frame).
	fill := func(seq int, m *mbuf.Mbuf) (bool, error) {
		flow := uint64(seq % cfg.Flows)
		frame, err := buildFlowFrame(flow)
		if err != nil {
			return false, err
		}
		if err := m.AppendBytes(frame); err != nil {
			return false, err
		}
		if v, _ := nat.ProcessOutbound(m); v != nf.VerdictForward {
			return false, nil
		}
		f, err := eth.Parse(m.Data())
		if err != nil {
			return false, err
		}
		ext := f.SrcPort()
		if prev, ok := shadow[flow]; !ok {
			shadow[flow] = ext
		} else if prev != ext {
			return false, fmt.Errorf("harness: flow %d remapped %d -> %d mid-run", flow, prev, ext)
		}
		hdr, err := m.Prepend(hwfunc.IPsecReqPrefix)
		if err != nil {
			return false, err
		}
		binary.BigEndian.PutUint16(hdr, 0)
		return true, nil
	}
	var run FailoverRun
	if err := tb.pace(rt, nfID, acc, cfg.Packets, fill, nil, &run); err != nil {
		return nil, err
	}
	res.DeliveredOK = run.DeliveredOK
	res.DeliveredFallback = run.DeliveredFallback
	res.DeliveredUnprocessed = run.DeliveredUnprocessed
	res.Quarantines = run.Health.Quarantines
	res.Reloads = run.Health.Reloads
	res.Stats = run.Stats

	// The audit: bijection invariants, then shadow-model equivalence.
	if err := nat.CheckConsistency(); err != nil {
		return nil, err
	}
	res.Mappings = nat.Mappings()
	res.ShadowEntries = len(shadow)
	for flow, want := range shadow {
		frame, ferr := buildFlowFrame(flow)
		if ferr != nil {
			return nil, ferr
		}
		m, aerr := tb.pool.Alloc()
		if aerr != nil {
			return nil, aerr
		}
		if err := m.AppendBytes(frame); err != nil {
			return nil, errors.Join(err, tb.pool.Free(m))
		}
		v, _ := nat.ProcessOutbound(m)
		f, perr := eth.Parse(m.Data())
		if v != nf.VerdictForward || perr != nil || f.SrcPort() != want {
			res.PortMismatches++
		}
		if err := tb.pool.Free(m); err != nil {
			return nil, err
		}
	}

	res.Leaked = tb.pool.InUse()
	return res, nil
}
