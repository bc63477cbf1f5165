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

// table1NF selects one Table I row.
type table1NF int

// Table I rows, in the paper's order.
const (
	table1L2fwd table1NF = iota + 1
	table1L3fwd
	table1IPsec
)

var table1Rows = []table1NF{table1L2fwd, table1L3fwd, table1IPsec}

// String names the row as the paper does.
func (t table1NF) String() string {
	switch t {
	case table1L2fwd:
		return "L2fwd"
	case table1L3fwd:
		return "L3fwd-lpm"
	case table1IPsec:
		return "IPsec-gateway"
	default:
		return fmt.Sprintf("table1NF(%d)", int(t))
	}
}

// table1Result is one Table I row: the per-packet cycle cost with one core
// and the resulting throughput on a 10G NIC with 64 B packets.
type table1Result struct {
	NF table1NF

	// CyclesPerPkt is the modeled single-core processing latency in CPU
	// cycles (Table I column 2).
	CyclesPerPkt float64
	// Throughput is measured at the TX port.
	Throughput Throughput
}

// runTable1Row reproduces one Table I row: the NF runs run-to-completion on
// a single 2.3 GHz core (Xeon E5-2650 v3) against a 10G NIC with 64 B
// packets.
func runTable1Row(row table1NF) (table1Result, error) {
	res := table1Result{NF: row}
	tb, err := newTestbed(8192)
	if err != nil {
		return res, err
	}
	rxPort, txPort, err := tb.portPair(netdev.PortConfig{ID: 0, RateBps: perf.NIC10GBps}, 1)
	if err != nil {
		return res, err
	}

	var proc swProcessor
	switch row {
	case table1L2fwd:
		l2 := nf.NewL2Fwd(eth.MAC{0x02, 0, 0, 0, 0, 0x10})
		l2.AddPort(0, 1, eth.MAC{0x02, 0, 0, 0, 0, 0x20})
		proc = l2
	case table1L3fwd:
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
	case table1IPsec:
		if proc, err = buildSWNF(IPsecGateway); err != nil {
			return res, err
		}
	}

	// One run-to-completion core at the Table I clock.
	var totalCycles float64
	var totalPkts uint64
	tb.run(eventsim.NewCore(tb.sim, 0, 0, perf.TableICoreHz), &stage{
		src: tb.fromNIC(rxPort),
		proc: func(m *mbuf.Mbuf) (nf.Verdict, float64) {
			verdict, c := procTable1(proc, row, m)
			totalCycles += c
			totalPkts++
			return verdict, c
		},
		push: tb.toNIC(txPort),
	})

	const frame = 64
	gen, err := netdev.NewGenerator(tb.sim, netdev.GeneratorConfig{
		Port: rxPort, Pool: tb.pool, FrameSize: frame, OfferedWireBps: perf.NIC10GBps,
	})
	if err != nil {
		return res, err
	}
	gen.Start()
	res.Throughput, _ = tb.measure(txPort, 2*eventsim.Millisecond, 10*eventsim.Millisecond, frame)
	if totalPkts > 0 {
		res.CyclesPerPkt = totalCycles / float64(totalPkts)
	}
	return res, nil
}

// procTable1 applies the Table I cycle convention: the table reports the
// NF operation cost alone (36/60/796 cycles), so the IPsec row uses the
// published per-64B-packet constant rather than the Figure 6 worker model.
func procTable1(proc swProcessor, row table1NF, m *mbuf.Mbuf) (nf.Verdict, float64) {
	verdict, cycles := proc.Process(m)
	if row == table1IPsec {
		cycles = perf.IPsecSWCycles64B
	}
	return verdict, cycles
}
