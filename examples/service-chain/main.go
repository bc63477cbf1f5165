// Service-chain example: the NFV deployment the paper's introduction
// motivates — a chain of software NFs on one server where only the
// computation-intensive stage touches the FPGA.
//
//	firewall (shallow, CPU) -> NAT (shallow, CPU) -> IPsec gateway
//	(shallow classification on CPU + ipsec-crypto hardware function)
//
// Each packet traverses the whole chain; the example prints per-stage
// counters and verifies the final ESP output decrypts correctly.
//
// Run with: go run ./examples/service-chain
//
// Pass -flows N to additionally stream N distinct 5-tuples through the
// flow-aware firewall stage and print the flow table's occupancy and
// memory footprint — the million-flow quickstart is:
//
//	go run ./examples/service-chain -flows 1000000
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"

	dhl "github.com/opencloudnext/dhl-go"
	"github.com/opencloudnext/dhl-go/internal/eth"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/netdev"
	"github.com/opencloudnext/dhl-go/internal/nf"
)

func main() {
	flows := flag.Int("flows", 0, "stream this many distinct 5-tuples through the flow-aware firewall (try 1000000)")
	flag.Parse()
	if err := run(*flows); err != nil {
		log.Fatal(err)
	}
}

func run(flows int) error {
	sys, err := dhl.Open(dhl.SystemConfig{})
	if err != nil {
		return err
	}

	// Stage 1: firewall — drop a blocklisted subnet, allow web traffic.
	fw := nf.NewFirewall(nf.FirewallDeny)
	if err := fw.AddRule(nf.FirewallRule{
		SrcPrefix: 0x0A420000, SrcDepth: 16, Action: nf.FirewallDeny, Description: "blocklist 10.66/16",
	}); err != nil {
		return err
	}
	if err := fw.AddRule(nf.FirewallRule{
		Proto: eth.ProtoUDP, DstPortLo: 80, DstPortHi: 443, Action: nf.FirewallAllow, Description: "web",
	}); err != nil {
		return err
	}

	// The chain consults the firewall through its per-flow verdict cache,
	// the stateful front the flow-scale harness measures at millions of
	// flows; its tables are registered with the system so /metrics and
	// stats.get expose occupancy, memory, and eviction counters.
	ffw, err := nf.NewFlowFirewall(fw, nf.FlowFirewallConfig{
		MemBudgetBytes: 256 << 20,
		FlowTTL:        eventsim.Second,
		Clock:          sys.Sim().Now,
	})
	if err != nil {
		return err
	}
	if err := sys.Control().RegisterFlowTables(ffw.FlowTabs()...); err != nil {
		return err
	}

	// Stage 2: source NAT behind 203.0.113.1.
	nat := nf.NewNAT(nf.NATConfig{External: eth.IPv4{203, 0, 113, 1}})

	// Stage 3: DHL IPsec gateway (crypto on the FPGA).
	sadb := nf.NewSADB()
	if err := sadb.AddDefaultSA(); err != nil {
		return err
	}
	gw, err := nf.NewIPsecGatewayDHL(sys.Runtime(), sadb, "chain-ipsec", 0)
	if err != nil {
		return err
	}
	sys.Settle()

	// Traffic: a mix of inside hosts, one of them blocklisted.
	srcs := []eth.IPv4{
		{192, 168, 1, 10},
		{192, 168, 1, 11},
		{10, 66, 0, 5}, // blocklisted
		{192, 168, 1, 12},
	}
	var inflight []*dhl.Packet
	for i, src := range srcs {
		m, aerr := sys.Pool().Alloc()
		if aerr != nil {
			return aerr
		}
		buf := make([]byte, 512)
		n, berr := eth.Build(buf, eth.BuildConfig{
			SrcMAC: eth.MAC{2, 0, 0, 0, 0, 1}, DstMAC: eth.MAC{2, 0, 0, 0, 0, 2},
			SrcIP: src, DstIP: eth.IPv4{198, 51, 100, 7},
			SrcPort: uint16(40000 + i), DstPort: 443, Proto: eth.ProtoUDP,
			Payload: []byte(fmt.Sprintf("flow-%d confidential data", i)),
		})
		if berr != nil {
			return errors.Join(berr, sys.Pool().Free(m))
		}
		if aerr := m.AppendBytes(buf[:n]); aerr != nil {
			return errors.Join(aerr, sys.Pool().Free(m))
		}

		// CPU stages, run to completion per packet.
		if v, _ := ffw.Process(m); v != nf.VerdictForward {
			fmt.Printf("packet from %v dropped by firewall\n", src)
			if perr := sys.Pool().Free(m); perr != nil {
				return perr
			}
			continue
		}
		if v, _ := nat.ProcessOutbound(m); v != nf.VerdictForward {
			fmt.Printf("packet from %v dropped by NAT\n", src)
			if perr := sys.Pool().Free(m); perr != nil {
				return perr
			}
			continue
		}
		// Offload stage: tag and hand to the DHL runtime.
		if v, _ := gw.PreProcess(m); v != nf.VerdictForward {
			if perr := sys.Pool().Free(m); perr != nil {
				return perr
			}
			continue
		}
		inflight = append(inflight, m)
	}
	if _, err := sys.SendPackets(gw.NFID, inflight); err != nil {
		return err
	}
	sys.Sim().Run(sys.Sim().Now() + 200*eventsim.Microsecond)

	out := make([]*dhl.Packet, len(inflight))
	n, err := sys.ReceivePackets(gw.NFID, out)
	if err != nil {
		return err
	}
	fmt.Printf("\nchain output: %d encrypted packets\n", n)
	for i := 0; i < n; i++ {
		if v, _ := gw.PostProcess(out[i]); v != nf.VerdictForward {
			return fmt.Errorf("post-process failed for packet %d", i)
		}
		frame, perr := eth.Parse(out[i].Data())
		if perr != nil {
			return perr
		}
		plain, derr := nf.VerifyESP(out[i].Data(), nf.DefaultSA())
		if derr != nil {
			return fmt.Errorf("packet %d: ESP verification: %w", i, derr)
		}
		fmt.Printf("  pkt %d: src=%v (NATed) proto=ESP len=%d, decrypts to %d plaintext bytes\n",
			i, frame.SrcIP(), out[i].Len(), len(plain))
		if perr := sys.Pool().Free(out[i]); perr != nil {
			return perr
		}
	}

	fmt.Printf("\nstage counters: firewall allowed=%d denied=%d | NAT translated=%d mappings=%d | ipsec tagged=%d\n",
		fw.Allowed, fw.Denied, nat.Translated, nat.Mappings(), gw.Tagged)

	if flows > 0 {
		if err := floodFlows(sys, ffw, flows); err != nil {
			return err
		}
	}
	return nil
}

// floodFlows streams one packet from each of `flows` distinct 5-tuples
// through the flow-aware firewall, then replays the first 10k to show
// the verdict cache hitting, and prints the flow table's footprint.
func floodFlows(sys *dhl.System, ffw *nf.FlowFirewall, flows int) error {
	fmt.Printf("\nflow-scale: streaming %d distinct flows through the firewall...\n", flows)
	m, err := sys.Pool().Alloc()
	if err != nil {
		return err
	}
	defer func() { _ = sys.Pool().Free(m) }()
	buf := make([]byte, 256)
	var allowed, denied uint64
	send := func(id uint64) error {
		src, srcPort := netdev.FlowSrc(id)
		n, berr := eth.Build(buf, eth.BuildConfig{
			SrcMAC: eth.MAC{2, 0, 0, 0, 0, 1}, DstMAC: eth.MAC{2, 0, 0, 0, 0, 2},
			SrcIP: src, DstIP: eth.IPv4{198, 51, 100, 7},
			SrcPort: srcPort, DstPort: 443, Proto: eth.ProtoUDP,
			Payload: []byte("flow-scale probe"),
		})
		if berr != nil {
			return berr
		}
		m.SetLen(0)
		if aerr := m.AppendBytes(buf[:n]); aerr != nil {
			return aerr
		}
		if v, _ := ffw.Process(m); v == nf.VerdictForward {
			allowed++
		} else {
			denied++
		}
		return nil
	}
	for id := uint64(0); id < uint64(flows); id++ {
		if err := send(id); err != nil {
			return err
		}
	}
	replay := uint64(10_000)
	if replay > uint64(flows) {
		replay = uint64(flows)
	}
	for id := uint64(0); id < replay; id++ {
		if err := send(id); err != nil {
			return err
		}
	}
	fmt.Printf("flow-scale: allowed=%d denied=%d cache hits=%d misses=%d\n",
		allowed, denied, ffw.CacheHits, ffw.CacheMisses)
	for _, info := range sys.Control().FlowTables() {
		perFlow := 0.0
		if info.Entries > 0 {
			perFlow = float64(info.MemBytes) / float64(info.Entries)
		}
		fmt.Printf("flow-scale: table %-10s entries=%d capacity=%d mem=%.1f MB (%.1f B/flow) evicted(idle=%d pressure=%d)\n",
			info.Name, info.Entries, info.Capacity, float64(info.MemBytes)/1024/1024,
			perFlow, info.EvictedIdle, info.EvictedPressure)
	}
	return nil
}
