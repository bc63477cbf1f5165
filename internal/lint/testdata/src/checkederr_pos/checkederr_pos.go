// Package checkederr_pos drops errors from DHL API calls; the checkederr
// analyzer must flag every statement-position drop.
package checkederr_pos

import (
	"net"

	dhl "github.com/opencloudnext/dhl-go"
	"github.com/opencloudnext/dhl-go/internal/core"
	"github.com/opencloudnext/dhl-go/internal/fpga"
	"github.com/opencloudnext/dhl-go/internal/mbuf"
	"github.com/opencloudnext/dhl-go/internal/telemetry"
)

// DropFree discards Pool.Free's double-free/foreign-mbuf verdict.
func DropFree(p *mbuf.Pool, m *mbuf.Mbuf) {
	p.Free(m) // dropped error
}

// DropBulk discards both the allocation and the release result.
func DropBulk(p *mbuf.Pool, dst []*mbuf.Mbuf) {
	p.AllocBulk(dst) // dropped error
	p.FreeBulk(dst)  // dropped error
}

// DropInGoroutine discards an error on a spawned call.
func DropInGoroutine(p *mbuf.Pool, m *mbuf.Mbuf) {
	go p.Free(m) // dropped error
}

// DropRecovery discards the recovery surface's rejections: Reload's
// already-reconfiguring/shutdown errors and ResetRegion's not-loaded error.
func DropRecovery(d *fpga.Device) {
	d.Reload(0, nil) // dropped error
	d.ResetRegion(0) // dropped error
}

// DropExporter discards the exporter lifecycle errors: a Serve failure on
// a goroutine is a metrics endpoint that silently never came up, and a
// dropped Close loses the shutdown verdict.
func DropExporter(e *telemetry.Exporter, ln net.Listener) {
	go e.Serve(ln) // dropped error
	e.Close()      // dropped error
}

// DropTuning discards the adaptive-batching setters' verdicts: the
// operator believes an override took effect when the runtime rejected it.
func DropTuning(rt *core.Runtime) {
	rt.SetAccBatchBytes(0, 1024) // dropped error
	rt.SetBurst(0, 32)           // dropped error
}

// DropManagement discards the management surface's verdicts: a dropped
// OfflineBoard strands the board's accelerators exactly as a dropped
// Migrate does, and a dropped Evict leaves the caller believing a region
// was freed.
func DropManagement(sys *dhl.System, acc core.AccID) {
	sys.Control().OfflineBoard(0) // dropped error (and moved count)
	sys.Control().Evict(acc)      // dropped error
}
