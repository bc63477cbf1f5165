package harness

import (
	"fmt"

	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/pcie"
	"github.com/opencloudnext/dhl-go/internal/perf"
)

// driverAblationResult is one A2 point: the end-to-end effect of the
// driver model and NUMA placement on the DHL IPsec gateway.
type driverAblationResult struct {
	Label      string
	Driver     pcie.DriverMode
	RemoteNUMA bool
	Throughput Throughput
	Latency    Latency
}

// runDriverAblation compares UIO-local, UIO-remote-NUMA and in-kernel
// transfers under the full DHL IPsec pipeline (the system-level view of
// Figure 4's microbenchmark).
func runDriverAblation() ([]driverAblationResult, error) {
	cases := []driverAblationResult{
		{Label: "uio same-NUMA", Driver: pcie.UIOPoll},
		{Label: "uio different-NUMA", Driver: pcie.UIOPoll, RemoteNUMA: true},
		{Label: "in-kernel", Driver: pcie.InKernel},
	}
	for i := range cases {
		thr, lat, err := MeasureSingleNF(SingleNFConfig{
			Kind:       IPsecGateway,
			Mode:       DHL,
			FrameSize:  512,
			Driver:     cases[i].Driver,
			RemoteNUMA: cases[i].RemoteNUMA,
		})
		if err != nil {
			return nil, fmt.Errorf("harness: driver ablation %s: %w", cases[i].Label, err)
		}
		cases[i].Throughput = thr.Throughput
		cases[i].Latency = lat.Latency
	}
	return cases, nil
}

// verticalResult is one A3 (§VI.1) point: scaling the PCIe link or the
// number of FPGA boards raises the accelerating capacity cap.
type verticalResult struct {
	Label         string
	AggregateGbps float64
}

// runVerticalScaling measures the aggregate DMA ceiling for PCIe Gen3 x8,
// Gen3 x16, and two x8 boards, using the loopback stream at 6 KB.
func runVerticalScaling() ([]verticalResult, error) {
	type rig struct {
		label  string
		maxBps float64
		boards int
	}
	rigs := []rig{
		{"gen3-x8 (prototype)", 0, 1},
		{"gen3-x16", perf.PCIeGen3x16MaxBps, 1},
		{"2x gen3-x8 boards", 0, 2},
	}
	const size = perf.DefaultBatchBytes
	payload := make([]byte, size)
	var out []verticalResult
	for _, r := range rigs {
		total := 0.0
		for b := 0; b < r.boards; b++ {
			sim := eventsim.New()
			dev, dma, region, err := loopbackRig(sim, pcie.Config{MaxBps: r.maxBps})
			if err != nil {
				return nil, err
			}
			// Every completed round trip counts, pipeline fill included,
			// over the whole horizon.
			var completed uint64
			start := sim.Now() // the rig setup consumed PR time already
			streamLoopback(sim, dev, dma, region, size, payload, loopbackRing, start+10*eventsim.Millisecond,
				func() { completed += size })
			total += float64(completed) * 8 / (sim.Now() - start).Seconds()
		}
		out = append(out, verticalResult{Label: r.label, AggregateGbps: total / 1e9})
	}
	return out, nil
}
