package harness

import (
	"fmt"

	"github.com/opencloudnext/dhl-go/internal/dhlproto"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/fpga"
	"github.com/opencloudnext/dhl-go/internal/hwfunc"
	"github.com/opencloudnext/dhl-go/internal/pcie"
)

// transferSizes is the x-axis of Figure 4 (64 B .. 64 KB).
var transferSizes = []int{64, 128, 256, 512, 1024, 2048, 3072, 4096, 5120, 6144, 7168, 8192, 16384, 32768, 65536}

// dmaVariant selects one Figure 4 series.
type dmaVariant int

// Figure 4 series.
const (
	// dmaInKernel is the Northwest Logic in-kernel driver baseline.
	dmaInKernel dmaVariant = iota + 1
	// dmaRemoteNUMA is the UIO poll-mode driver crossing NUMA nodes.
	dmaRemoteNUMA
	// dmaLocalNUMA is the UIO poll-mode driver on the local node.
	dmaLocalNUMA
)

// String names the series as the figure's legend does.
func (v dmaVariant) String() string {
	switch v {
	case dmaInKernel:
		return "in-kernel"
	case dmaRemoteNUMA:
		return "uio different-NUMA"
	case dmaLocalNUMA:
		return "uio same-NUMA"
	default:
		return fmt.Sprintf("dmaVariant(%d)", int(v))
	}
}

func (v dmaVariant) pcieConfig() pcie.Config {
	switch v {
	case dmaInKernel:
		return pcie.Config{Mode: pcie.InKernel}
	case dmaRemoteNUMA:
		return pcie.Config{Mode: pcie.UIOPoll, RemoteNUMA: true}
	default:
		return pcie.Config{Mode: pcie.UIOPoll}
	}
}

// dmaResult is one Figure 4 data point.
type dmaResult struct {
	Variant      dmaVariant
	TransferSize int
	// ThroughputBps is the sustained loopback throughput (Figure 4(a)).
	ThroughputBps float64
	// LatencyUs is the single-transfer round-trip latency (Figure 4(b)).
	LatencyUs float64
}

// loopbackRig builds a device with the loopback module loaded and returns
// the region index.
func loopbackRig(sim *eventsim.Sim, cfg pcie.Config) (*fpga.Device, *pcie.Engine, int, error) {
	dev, err := fpga.NewDevice(sim, fpga.Config{ID: 0, Node: 0})
	if err != nil {
		return nil, nil, 0, err
	}
	dma := pcie.NewEngine(sim, cfg)
	spec := hwfunc.Specs()[hwfunc.LoopbackName]
	region, err := dev.LoadPR(spec, nil)
	if err != nil {
		return nil, nil, 0, err
	}
	sim.RunAll() // complete the reconfiguration
	return dev, dma, region, nil
}

// runDMALoopback reproduces one Figure 4 data point: it measures the
// loopback round-trip latency of a single transfer, then the sustained
// throughput of a pipelined stream of transfers of the same size
// ("we implement a loopback module in FPGA that simply redirects the
// packets received from RX channels to TX channels", §IV-A3).
func runDMALoopback(variant dmaVariant, size int) (dmaResult, error) {
	res := dmaResult{Variant: variant, TransferSize: size}

	batch, err := dhlproto.AppendRecord(nil, 1, 1, make([]byte, max(0, size-dhlproto.RecordOverhead)))
	if err != nil {
		return res, err
	}

	// Latency: one isolated round trip on an idle engine, a stream one
	// deep whose horizon has already passed when it comes back.
	{
		sim := eventsim.New()
		dev, dma, region, err := loopbackRig(sim, variant.pcieConfig())
		if err != nil {
			return res, err
		}
		start := sim.Now()
		var done eventsim.Time
		streamLoopback(sim, dev, dma, region, size, batch, 1, start, func() { done = sim.Now() })
		sim.RunAll()
		if done == 0 {
			return res, fmt.Errorf("harness: loopback round trip did not complete")
		}
		res.LatencyUs = (done - start).Micros()
	}

	// Throughput: a poll-mode producer keeps the H2C channel saturated,
	// mirroring how the prototype measures the packet DMA engine.
	{
		sim := eventsim.New()
		dev, dma, region, err := loopbackRig(sim, variant.pcieConfig())
		if err != nil {
			return res, err
		}
		var completedBytes uint64
		var firstDone, lastDone eventsim.Time
		start := sim.Now() // the rig setup consumed PR time already
		horizon := start + 20*eventsim.Millisecond
		// Keep a descriptor ring's worth of transfers in flight. The
		// in-kernel driver's ~10 ms round trip is scheduling/interrupt
		// latency, not channel occupancy, so its ring must be deep for
		// sustained throughput to be channel-bound rather than RTT-bound
		// (Figure 4(a) shows it reaching tens of Gbps at large sizes).
		window := loopbackRing
		if variant == dmaInKernel {
			// The in-kernel pipeline takes ~10 ms to fill; use a longer
			// run so steady state dominates.
			horizon = start + 200*eventsim.Millisecond
			window = 4096
		}
		streamLoopback(sim, dev, dma, region, size, batch, window, horizon, func() {
			// Measure steady state: discard everything before the first
			// completion (pipeline fill).
			if firstDone == 0 {
				firstDone = sim.Now()
			} else {
				completedBytes += uint64(size)
			}
			lastDone = sim.Now()
		})
		sim.RunAll() // drain outstanding completions
		if elapsed := (lastDone - firstDone).Seconds(); elapsed > 0 {
			res.ThroughputBps = float64(completedBytes) * 8 / elapsed
		}
	}
	return res, nil
}

// loopbackRing is the UIO driver's descriptor ring: how many transfers a
// poll-mode producer keeps in flight.
const loopbackRing = 16

// streamLoopback keeps window loopback round trips of size bytes in flight
// on a rig until horizon and runs the simulation that far, mirroring how
// the prototype measures the packet DMA engine: a poll-mode producer keeps
// the H2C channel saturated. batch is what the module is handed each time;
// done runs as each round trip's C2H transfer completes.
func streamLoopback(sim *eventsim.Sim, dev *fpga.Device, dma *pcie.Engine, region, size int, batch []byte, window int, horizon eventsim.Time, done func()) {
	inflight := 0
	var launch func()
	launch = func() {
		for inflight < window {
			inflight++
			if _, _, err := dma.Transfer(pcie.H2C, size, func() {
				_, _ = dev.Dispatch(region, batch, nil, func(out []byte, merr error) {
					if merr != nil {
						return
					}
					_, _, _ = dma.Transfer(pcie.C2H, size, func() {
						done()
						inflight--
						if sim.Now() < horizon {
							launch()
						}
					})
				})
			}); err != nil {
				inflight--
				return
			}
		}
	}
	sim.After(0, launch)
	sim.Run(horizon)
}
