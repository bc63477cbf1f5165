// Package checkederr_neg handles or explicitly discards DHL API errors;
// the checkederr analyzer must stay quiet.
package checkederr_neg

import (
	"net"

	dhl "github.com/opencloudnext/dhl-go"
	"github.com/opencloudnext/dhl-go/internal/core"
	"github.com/opencloudnext/dhl-go/internal/fpga"
	"github.com/opencloudnext/dhl-go/internal/mbuf"
	"github.com/opencloudnext/dhl-go/internal/telemetry"
)

// Propagated returns the API error to the caller.
func Propagated(p *mbuf.Pool, m *mbuf.Mbuf) error {
	return p.Free(m)
}

// Inspected branches on the error.
func Inspected(p *mbuf.Pool, dst []*mbuf.Mbuf) bool {
	if err := p.AllocBulk(dst); err != nil {
		return false
	}
	if err := p.FreeBulk(dst); err != nil {
		return false
	}
	return true
}

// Deliberate uses the explicit blank assignment, which documents intent
// and is allowed by policy.
func Deliberate(p *mbuf.Pool, m *mbuf.Mbuf) {
	_ = p.Free(m)
}

// RecoveryHandled propagates the recovery surface's errors.
func RecoveryHandled(d *fpga.Device) error {
	if err := d.Reload(0, nil); err != nil {
		return err
	}
	return d.ResetRegion(0)
}

// ExporterHandled propagates Serve and deliberately discards Close, and
// Close on a type outside the module (net.Listener) stays out of scope.
func ExporterHandled(e *telemetry.Exporter, ln net.Listener) error {
	defer func() { _ = e.Close() }()
	ln.Close()
	return e.Serve(ln)
}

// PressureHandled exercises the send path and the adaptive-batching
// setters correctly: SendPackets' refused tail is freed, and the tuning
// setters propagate their verdicts.
func PressureHandled(rt *core.Runtime, id core.NFID, p *mbuf.Pool, pkts []*mbuf.Mbuf) error {
	acc, err := rt.SendPackets(id, pkts)
	if err != nil {
		return err
	}
	for _, m := range pkts[acc:] {
		_ = p.Free(m)
	}
	if err := rt.SetAccBatchBytes(0, 1024); err != nil {
		return err
	}
	return rt.SetBurst(0, 32)
}

// ManagementHandled checks the management surface's verdicts through
// Control.
func ManagementHandled(sys *dhl.System, acc core.AccID) error {
	if _, err := sys.Control().OfflineBoard(0); err != nil {
		return err
	}
	return sys.Control().Evict(acc)
}
