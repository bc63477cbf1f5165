package pcie

import (
	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/perf"
)

// Only this package's tests read what follows; the rest of the module
// has no use for it.

// RoundTripPs reports the modeled idle-engine loopback latency for the
// given size (the Figure 4(b) curve).
func (e *Engine) RoundTripPs(size int) eventsim.Time {
	return eventsim.Time(perf.DMARoundTripPs(e.baseRTTPs, e.cfg.MaxBps, size, e.cfg.RemoteNUMA))
}

// SustainedBps reports the modeled steady-state throughput for transfers
// of the given size (the Figure 4(a) curve).
func (e *Engine) SustainedBps(size int) float64 {
	return perf.DMASustainedBps(e.cfg.MaxBps, e.overheadBytes, size)
}
