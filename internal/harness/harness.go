// Package harness assembles the paper's testbed (Table III) inside the
// discrete-event simulator and regenerates every table and figure of the
// evaluation section. The experiments are the rows of one table
// (experiments.go): a row names its cmd/dhl-bench target and the
// EXPERIMENTS.md headings it regenerates, runs its points and prints them
// in the paper's layout. Regenerate runs rows by name; cmd/dhl-bench, the
// root benchmark and the docs tests all read that table. The typed entry
// points beside it (RunSingleNF, RunMultiNF, RunFlowScale, RunDiurnal,
// MeasureSingleNF, RunFailover, RunBoardFailover) are what bench/ and the
// examples call for one point at a time.
package harness

import (
	"fmt"

	"github.com/opencloudnext/dhl-go/internal/core"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/hwfunc"
	"github.com/opencloudnext/dhl-go/internal/mbuf"
	"github.com/opencloudnext/dhl-go/internal/netdev"
	"github.com/opencloudnext/dhl-go/internal/perf"
	"github.com/opencloudnext/dhl-go/internal/stats"
)

// NFKind selects the evaluated network function.
type NFKind int

// Evaluated NFs (§V-B).
const (
	IPsecGateway NFKind = iota + 1
	NIDS
)

// String names the NF.
func (k NFKind) String() string {
	switch k {
	case IPsecGateway:
		return "ipsec-gateway"
	case NIDS:
		return "nids"
	default:
		return fmt.Sprintf("NFKind(%d)", int(k))
	}
}

// Mode selects the implementation variant.
type Mode int

// Implementation variants compared in Figure 6.
const (
	// CPUOnly is the pure-software DPDK pipeline build.
	CPUOnly Mode = iota + 1
	// DHL offloads deep packet processing to the FPGA.
	DHL
	// IOOnly is the Figure 6 "I/O" baseline: two cores forwarding without
	// any computation.
	IOOnly
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case CPUOnly:
		return "cpu-only"
	case DHL:
		return "dhl"
	case IOOnly:
		return "io"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// frameSizes is the x-axis of Figures 6 and 7.
var frameSizes = []int{64, 128, 256, 512, 1024, 1500}

// Throughput is a measured throughput triple.
type Throughput struct {
	// GoodBps counts transmitted frame bits (output frames, which for the
	// IPsec gateway have grown by the 20 B ESP overhead).
	GoodBps float64
	// WireBps adds the 24 B/frame preamble+IFG+FCS overhead, the
	// convention the paper uses for line-rate-bound numbers.
	WireBps float64
	// InputBps counts packets times the *input* frame size — the
	// convention the paper's Figure 6/7 y-axes use (throughput is plotted
	// against the generated packet size).
	InputBps float64
	// Pkts is the number of frames measured.
	Pkts uint64
}

// Latency is a measured latency summary in microseconds.
type Latency struct {
	MeanUs float64
	P50Us  float64
	P99Us  float64
	MaxUs  float64
}

// testbed carries the common simulated components of one run.
type testbed struct {
	sim  *eventsim.Sim
	pool *mbuf.Pool

	nextCore int
}

func newTestbed(poolSize int) (*testbed, error) {
	if poolSize == 0 {
		poolSize = 16384
	}
	sim := eventsim.New()
	pool, err := mbuf.NewPool(mbuf.PoolConfig{Name: "testbed", Capacity: poolSize})
	if err != nil {
		return nil, err
	}
	return &testbed{sim: sim, pool: pool}, nil
}

// core allocates the next simulated CPU core on node 0 at the testbed
// clock (Table III: Xeon Silver 4116 @ 2.1 GHz).
func (tb *testbed) core() *eventsim.Core {
	c := eventsim.NewCore(tb.sim, tb.nextCore, 0, perf.TestbedCoreHz)
	tb.nextCore++
	return c
}

// newRuntime stands up a DHL runtime on the testbed's simulation and pool,
// with the stock accelerator module database. core.NewRuntime builds the
// boards (one by default), their DMA engines and the transfer cores, and
// hands the config's fault plan and telemetry registry to all of them.
func (tb *testbed) newRuntime(cfg core.Config) (*core.Runtime, error) {
	cfg.Sim, cfg.Pool = tb.sim, tb.pool
	rt, err := core.NewRuntime(cfg)
	if err != nil {
		return nil, err
	}
	for _, spec := range hwfunc.Specs() {
		if err := rt.RegisterModule(spec); err != nil {
			return nil, err
		}
	}
	return rt, nil
}

// portPair creates the NIC a run forwards across: the RX port as configured
// and a TX port of the same rate.
func (tb *testbed) portPair(rx netdev.PortConfig, txID int) (rxPort, txPort *netdev.Port, err error) {
	if rxPort, err = netdev.NewPort(tb.sim, rx); err != nil {
		return nil, nil, err
	}
	txPort, err = netdev.NewPort(tb.sim, netdev.PortConfig{ID: txID, RateBps: rx.RateBps})
	return rxPort, txPort, err
}

// runWindow is the timing of the §V-C measurement protocol on a testbed
// whose generators are running: let warmup pass, have every tx port count
// what it transmits during window, and run the simulation to the window's
// end, which it returns.
func (tb *testbed) runWindow(warmup, window eventsim.Time, txs ...*netdev.Port) eventsim.Time {
	end := tb.sim.Now() + warmup + window
	for _, tx := range txs {
		tx.SetMeasureWindow(end-window, end)
	}
	tb.sim.Run(end)
	return end
}

// measure runs one window on one TX port and reads it. frame is the
// generated frame size; the latency series (picoseconds) is that of the
// frames counted.
func (tb *testbed) measure(tx *netdev.Port, warmup, window eventsim.Time, frame int) (Throughput, *stats.Series) {
	end := tb.runWindow(warmup, window, tx)
	_, _, _, lat := tx.Measured(end)
	return carried(end, window, frame, tx), lat
}

// carried sums what txs transmitted in their measurement window, which
// ended at end. InputBps is the paper's Figure 6/7 y-axis: frames delivered
// times the generated frame size.
func carried(end, window eventsim.Time, frame int, txs ...*netdev.Port) Throughput {
	var thr Throughput
	for _, tx := range txs {
		good, wire, pkts, _ := tx.Measured(end)
		thr.GoodBps += good
		thr.WireBps += wire
		thr.Pkts += pkts
	}
	thr.InputBps = float64(thr.Pkts) * float64(frame) * 8 / window.Seconds()
	return thr
}

// summarize reduces a latency series to microseconds. It sorts the
// series' sample reservoir, so only runs that report latency call it.
func summarize(lat *stats.Series) Latency {
	return Latency{
		MeanUs: lat.Mean() / 1e6,
		P50Us:  lat.Percentile(50) / 1e6,
		P99Us:  lat.Percentile(99) / 1e6,
		MaxUs:  lat.Max() / 1e6,
	}
}

// settle runs the simulation forward (e.g. across partial reconfiguration)
// before traffic starts.
func (tb *testbed) settle(d eventsim.Time) {
	tb.sim.Run(tb.sim.Now() + d)
}
