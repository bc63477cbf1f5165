// Reconfig example: partial reconfiguration on the fly, driven over the
// live management API (§IV-C, §V-E, Table V).
//
// An IPsec gateway runs at full load while this process — acting as its
// own operator — connects to the system's /api/v1 endpoint and loads a
// second accelerator module (pattern-matching) into a free
// reconfigurable part through ICAP. The example measures the running
// NF's throughput before and during the reconfiguration and reports the
// PR time on the simulation clock, then retunes the transfer batch size
// live for good measure.
//
// Run with: go run ./examples/reconfig
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"sync"
	"sync/atomic"
	"time"

	dhl "github.com/opencloudnext/dhl-go"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/hwfunc"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// gateway owns all simulation interaction: it pumps the event loop
// (which also executes posted management operations) and drives a
// saturating IPsec workload, publishing cumulative progress so the
// operator side can compute throughput over any window. Everything the
// example prints is read off the simulation clock on this side: what the
// operator goroutine could time from outside moves with the host's
// scheduling.
type gateway struct {
	sys  *dhl.System
	nf   dhl.NFID
	acc  dhl.AccID
	stop chan struct{}
	wg   sync.WaitGroup

	mu    sync.Mutex // simNs and bytes are one snapshot
	simNs int64      // simulation clock, nanoseconds
	bytes int64      // payload bytes delivered back to the NF

	// prNs is how long the second accelerator's region took from entering
	// the hardware function table to coming ready; 0 until it has.
	prNs atomic.Int64
}

func (g *gateway) progress() (simNs, bytes int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.simNs, g.bytes
}

func (g *gateway) pump() {
	defer g.wg.Done()
	sys, sim, pool := g.sys, g.sys.Sim(), g.sys.Pool()
	payload := bytes.Repeat([]byte{0xAB}, 1024)
	const burst = 32
	pkts := make([]*dhl.Packet, 0, burst)
	out := make([]*dhl.Packet, 2*burst)
	var loadedAt eventsim.Time
	for {
		select {
		case <-g.stop:
			return
		default:
		}
		pkts = pkts[:0]
		for i := 0; i < burst; i++ {
			m, err := pool.Alloc()
			if err != nil {
				break // pool pressure: let in-flight packets return first
			}
			req, err := hwfunc.EncodeIPsecRequest(nil, payload, 0)
			if err != nil {
				log.Fatal(err)
			}
			if err := m.AppendBytes(req); err != nil {
				log.Fatal(err)
			}
			m.AccID = uint16(g.acc)
			pkts = append(pkts, m)
		}
		if len(pkts) > 0 {
			n, err := sys.SendPackets(g.nf, pkts)
			if err != nil {
				log.Fatal(err)
			}
			for _, m := range pkts[n:] {
				_ = pool.Free(m)
			}
		}
		sim.Run(sim.Now() + 100*eventsim.Microsecond)
		got, err := sys.ReceivePackets(g.nf, out)
		if err != nil {
			log.Fatal(err)
		}
		delivered := 0
		for i := 0; i < got; i++ {
			delivered += out[i].Len()
			_ = pool.Free(out[i])
		}
		g.mu.Lock()
		g.simNs = int64(sim.Now() / eventsim.Nanosecond)
		g.bytes += int64(delivered)
		g.mu.Unlock()
		if g.prNs.Load() == 0 {
			// The second accelerator is the operator's acc.load.
			if ids := sys.Control().AccIDs(); len(ids) > 1 {
				if loadedAt == 0 {
					loadedAt = sim.Now()
				}
				if info, err := sys.Control().AccInfo(ids[1]); err == nil && info.Ready {
					g.prNs.Store(int64((sim.Now() - loadedAt) / eventsim.Nanosecond))
				}
			}
		}
		// Yield so the operator goroutine's RPCs interleave promptly.
		time.Sleep(50 * time.Microsecond)
	}
}

// throughput measures the gateway's delivered Gbps over roughly window
// of simulated time.
func (g *gateway) throughput(window time.Duration) float64 {
	startNs, startBytes := g.progress()
	endNs, endBytes := startNs, startBytes
	for endNs < startNs+window.Nanoseconds() {
		time.Sleep(200 * time.Microsecond)
		endNs, endBytes = g.progress()
	}
	return float64(endBytes-startBytes) * 8 / float64(endNs-startNs) // bits per simulated ns == Gbps
}

func run() error {
	sys, err := dhl.Open(dhl.SystemConfig{}, dhl.WithControlPlane())
	if err != nil {
		return err
	}
	exp, err := sys.Serve("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer func() {
		if cerr := exp.Close(); cerr != nil {
			log.Printf("close exporter: %v", cerr)
		}
	}()
	// The bound port is the host's choice, so not for stdout, which
	// examples/golden_test.go pins.
	fmt.Fprintf(os.Stderr, "operator surface at http://%s (api: /api/v1)\n", exp.Addr())

	// Stand the IPsec gateway up in-process, then hand the event loop to
	// the pump goroutine; from here on every change goes over the API.
	nf, err := sys.Register("ipsec-gateway", 0)
	if err != nil {
		return err
	}
	acc, err := sys.SearchByName(dhl.IPsecCrypto, 0)
	if err != nil {
		return err
	}
	blob, err := hwfunc.EncodeIPsecCryptoConfig(
		bytes.Repeat([]byte{0x42}, 32), bytes.Repeat([]byte{0x24}, 20), 1)
	if err != nil {
		return err
	}
	if err := sys.AccConfigure(acc, blob); err != nil {
		return err
	}
	sys.Settle()
	g := &gateway{sys: sys, nf: nf, acc: acc, stop: make(chan struct{}),
		simNs: int64(sys.Sim().Now() / eventsim.Nanosecond)}
	g.wg.Add(1)
	go g.pump()
	defer func() { close(g.stop); g.wg.Wait() }()
	g.throughput(time.Millisecond) // ramp-up: the first bursts are still in flight

	c := dhl.DialControl(exp.Addr())
	defer func() { _ = c.Close() }()
	if err := c.Call("sys.ping", nil, nil); err != nil {
		return err
	}

	before := g.throughput(2 * time.Millisecond)

	// Load pattern-matching into a free PR region while the gateway keeps
	// forwarding, and watch sys.info for the region to come ready — the
	// ICAP transfer runs concurrently with live traffic (§V-E).
	var load struct {
		AccID dhl.AccID `json:"acc_id"`
	}
	if err := c.Call("acc.load", map[string]any{"hf": dhl.PatternMatching, "node": 0}, &load); err != nil {
		return err
	}
	during := g.throughput(2 * time.Millisecond)
	ready := false
	for !ready {
		var info struct {
			Accelerators []struct {
				AccID dhl.AccID `json:"acc_id"`
				Ready bool      `json:"ready"`
			} `json:"accelerators"`
		}
		if err := c.Call("sys.info", nil, &info); err != nil {
			return err
		}
		for _, a := range info.Accelerators {
			if a.AccID == load.AccID && a.Ready {
				ready = true
			}
		}
		if !ready {
			time.Sleep(500 * time.Microsecond)
		}
	}
	after := g.throughput(2 * time.Millisecond)
	// Set by now: the pump has run whole steps since sys.info said ready.
	prTime := time.Duration(g.prNs.Load())

	degradation := 0.0
	if before > 0 {
		degradation = 100 * (1 - during/before)
	}
	fmt.Println("partial reconfiguration while the IPsec gateway keeps running:")
	fmt.Printf("%-20s %-12s %s\n", "new module", "PR time", "running NF throughput")
	fmt.Printf("%-20s %-12s %.2f -> %.2f Gbps during PR, %.2f after (degradation %.2f%%)\n",
		dhl.PatternMatching, fmt.Sprintf("%.0f ms", prTime.Seconds()*1e3),
		before, during, after, degradation)

	// Live retune, same channel: halve the transfer batch size and show
	// the gateway still runs (smaller batches trade throughput for
	// latency; tune.batch answers with the applied value).
	var tuned struct {
		BatchBytes int `json:"batch_bytes"`
	}
	if err := c.Call("tune.batch", map[string]any{"bytes": 3072}, &tuned); err != nil {
		return err
	}
	retuned := g.throughput(2 * time.Millisecond)
	fmt.Printf("\nlive tune.batch -> %d bytes; gateway still delivering %.2f Gbps\n",
		tuned.BatchBytes, retuned)
	fmt.Println("\n(Table V reports 23-35 ms PR times; §V-E reports zero throughput degradation)")
	return nil
}
