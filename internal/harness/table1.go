package harness

import (
	"fmt"

	"github.com/opencloudnext/dhl-go/internal/eth"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/mbuf"
	"github.com/opencloudnext/dhl-go/internal/netdev"
	"github.com/opencloudnext/dhl-go/internal/nf"
	"github.com/opencloudnext/dhl-go/internal/perf"
)

// Table1NF selects one Table I row.
type Table1NF int

// Table I rows.
const (
	Table1L2fwd Table1NF = iota + 1
	Table1L3fwd
	Table1IPsec
)

// String names the row as the paper does.
func (t Table1NF) String() string {
	switch t {
	case Table1L2fwd:
		return "L2fwd"
	case Table1L3fwd:
		return "L3fwd-lpm"
	case Table1IPsec:
		return "IPsec-gateway"
	default:
		return fmt.Sprintf("Table1NF(%d)", int(t))
	}
}

// Table1Result is one Table I row: the per-packet cycle cost with one core
// and the resulting throughput on a 10G NIC with 64 B packets.
type Table1Result struct {
	NF NFName

	// CyclesPerPkt is the modeled single-core processing latency in CPU
	// cycles (Table I column 2).
	CyclesPerPkt float64
	// Throughput is measured at the TX port.
	Throughput Throughput
}

// NFName is a human-readable row label.
type NFName string

// RunTable1 reproduces Table I: each NF runs run-to-completion on a single
// 2.3 GHz core (Xeon E5-2650 v3) against a 10G NIC with 64 B packets.
func RunTable1() ([]Table1Result, error) {
	rows := []Table1NF{Table1L2fwd, Table1L3fwd, Table1IPsec}
	out := make([]Table1Result, 0, len(rows))
	for _, row := range rows {
		res, err := runTable1Row(row)
		if err != nil {
			return nil, fmt.Errorf("harness: table 1 %v: %w", row, err)
		}
		out = append(out, res)
	}
	return out, nil
}

func runTable1Row(row Table1NF) (Table1Result, error) {
	res := Table1Result{NF: NFName(row.String())}
	tb, err := newTestbed(8192)
	if err != nil {
		return res, err
	}
	rxPort, err := netdev.NewPort(tb.sim, netdev.PortConfig{ID: 0, RateBps: perf.NIC10GBps})
	if err != nil {
		return res, err
	}
	txPort, err := netdev.NewPort(tb.sim, netdev.PortConfig{ID: 1, RateBps: perf.NIC10GBps})
	if err != nil {
		return res, err
	}

	var proc swProcessor
	switch row {
	case Table1L2fwd:
		l2 := nf.NewL2Fwd(eth.MAC{0x02, 0, 0, 0, 0, 0x10})
		l2.AddPort(0, 1, eth.MAC{0x02, 0, 0, 0, 0, 0x20})
		proc = l2
	case Table1L3fwd:
		l3 := nf.NewL3Fwd(eth.MAC{0x02, 0, 0, 0, 0, 0x10})
		// Routes covering the generator's 10.0.0.0/8 and 192.168.0.0/16
		// destinations plus background prefixes for table realism.
		if err := l3.AddRoute(0xC0A80000, 16, 1, eth.MAC{0x02, 0, 0, 0, 0, 0x20}); err != nil {
			return res, err
		}
		if err := l3.AddRoute(0x0A000000, 8, 1, eth.MAC{0x02, 0, 0, 0, 0, 0x21}); err != nil {
			return res, err
		}
		for i := uint32(0); i < 64; i++ {
			if err := l3.AddRoute(0x20000000+i<<16, 24, 1, eth.MAC{0x02, 0, 0, 0, 0, byte(i)}); err != nil {
				return res, err
			}
		}
		proc = l3
	case Table1IPsec:
		sadb := nf.NewSADB()
		if err := sadb.AddDefaultSA(); err != nil {
			return res, err
		}
		gw, gerr := nf.NewIPsecGatewaySW(sadb)
		if gerr != nil {
			return res, gerr
		}
		proc = gw
	}

	// One run-to-completion core at the Table I clock.
	var totalCycles float64
	var totalPkts uint64
	tb.run(eventsim.NewCore(tb.sim, 0, 0, perf.TableICoreHz), &stage{
		pull: tb.fromNIC(rxPort),
		proc: func(m *mbuf.Mbuf) (nf.Verdict, float64) {
			verdict, c := procTable1(proc, row, m)
			totalCycles += c
			totalPkts++
			return verdict, c
		},
		push: tb.toNIC(txPort),
	})

	gen, err := netdev.NewGenerator(tb.sim, netdev.GeneratorConfig{
		Port: rxPort, Pool: tb.pool, FrameSize: 64, OfferedWireBps: perf.NIC10GBps,
	})
	if err != nil {
		return res, err
	}
	warm := 2 * eventsim.Millisecond
	window := 10 * eventsim.Millisecond
	txPort.SetMeasureWindow(warm, warm+window)
	gen.Start()
	tb.sim.Run(warm + window)

	good, wire, pkts, _ := txPort.Measured(warm + window)
	res.Throughput = Throughput{
		GoodBps:  good,
		WireBps:  wire,
		InputBps: float64(pkts) * 64 * 8 / window.Seconds(),
		Pkts:     pkts,
	}
	if totalPkts > 0 {
		res.CyclesPerPkt = totalCycles / float64(totalPkts)
	}
	return res, nil
}

// procTable1 applies the Table I cycle convention: the table reports the
// NF operation cost alone (36/60/796 cycles), so the IPsec row uses the
// published per-64B-packet constant rather than the Figure 6 worker model.
func procTable1(proc swProcessor, row Table1NF, m *mbuf.Mbuf) (nf.Verdict, float64) {
	verdict, cycles := proc.Process(m)
	if row == Table1IPsec {
		cycles = perf.IPsecSWCycles64B
	}
	return verdict, cycles
}
