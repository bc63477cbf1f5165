package nf

import (
	"errors"
	"testing"

	"github.com/opencloudnext/dhl-go/internal/eth"
)

func TestNATOutboundInboundRoundTrip(t *testing.T) {
	p := pool(t)
	nat := NewNAT(NATConfig{External: eth.IPv4{203, 0, 113, 1}})

	out := newPacket(t, p, []byte("request"), eth.IPv4{8, 8, 8, 8})
	f, _ := eth.Parse(out.Data())
	f.SetSrcIP(eth.IPv4{192, 168, 0, 42})
	f.SetIPChecksum(f.ComputeIPChecksum())

	if v, cycles := nat.ProcessOutbound(out); v != VerdictForward || cycles != natCycles {
		t.Fatalf("outbound %v %v", v, cycles)
	}
	f, _ = eth.Parse(out.Data())
	if f.SrcIP() != (eth.IPv4{203, 0, 113, 1}) {
		t.Errorf("source not translated: %v", f.SrcIP())
	}
	extPort := f.SrcPort()
	if extPort < 20000 {
		t.Errorf("external port %d outside pool", extPort)
	}
	if ipChecksum(out.Data()) != f.ComputeIPChecksum() {
		t.Error("checksum stale after translation")
	}
	if nat.Mappings() != 1 {
		t.Errorf("mappings %d", nat.Mappings())
	}

	// Build the reply: swap src/dst, target the external (ip, port).
	in := newPacket(t, p, []byte("reply"), eth.IPv4{203, 0, 113, 1})
	fi, _ := eth.Parse(in.Data())
	fi.SetSrcIP(eth.IPv4{8, 8, 8, 8})
	l4 := fi.L4()
	l4[2] = byte(extPort >> 8) // dst port = allocated external port
	l4[3] = byte(extPort)
	fi.SetIPChecksum(fi.ComputeIPChecksum())

	if v, _ := nat.ProcessInbound(in); v != VerdictForward {
		t.Fatalf("inbound verdict %v", v)
	}
	fi, _ = eth.Parse(in.Data())
	if fi.DstIP() != (eth.IPv4{192, 168, 0, 42}) {
		t.Errorf("inbound dst %v", fi.DstIP())
	}
	if fi.DstPort() != 5555 { // newPacket's source port
		t.Errorf("inbound dst port %d", fi.DstPort())
	}
}

func TestNATStableMappingPerFlow(t *testing.T) {
	p := pool(t)
	nat := NewNAT(NATConfig{External: eth.IPv4{203, 0, 113, 1}})
	ports := map[uint16]bool{}
	for i := 0; i < 3; i++ {
		m := newPacket(t, p, []byte("x"), eth.IPv4{8, 8, 8, 8})
		f, _ := eth.Parse(m.Data())
		f.SetSrcIP(eth.IPv4{192, 168, 0, 42})
		if v, _ := nat.ProcessOutbound(m); v != VerdictForward {
			t.Fatal("outbound failed")
		}
		f, _ = eth.Parse(m.Data())
		ports[f.SrcPort()] = true
	}
	if len(ports) != 1 {
		t.Errorf("same flow got %d ports", len(ports))
	}
	if nat.Mappings() != 1 {
		t.Errorf("mappings %d", nat.Mappings())
	}
}

func TestNATPortExhaustion(t *testing.T) {
	p := pool(t)
	nat := NewNAT(NATConfig{External: eth.IPv4{203, 0, 113, 1}, PortBase: 40000, PortCount: 2})
	for i := 0; i < 2; i++ {
		m := newPacket(t, p, []byte("x"), eth.IPv4{8, 8, 8, 8})
		f, _ := eth.Parse(m.Data())
		f.SetSrcIP(eth.IPv4{192, 168, 0, byte(i + 1)})
		if v, _ := nat.ProcessOutbound(m); v != VerdictForward {
			t.Fatalf("flow %d rejected", i)
		}
		_ = p.Free(m)
	}
	m := newPacket(t, p, []byte("x"), eth.IPv4{8, 8, 8, 8})
	f, _ := eth.Parse(m.Data())
	f.SetSrcIP(eth.IPv4{192, 168, 0, 99})
	if v, _ := nat.ProcessOutbound(m); v != VerdictDrop {
		t.Error("exhausted pool still translating")
	}
	// Release one mapping and retry.
	if err := nat.Release(eth.IPv4{192, 168, 0, 1}, 5555, eth.ProtoUDP); err != nil {
		t.Fatal(err)
	}
	if v, _ := nat.ProcessOutbound(m); v != VerdictForward {
		t.Error("released port not reusable")
	}
	if err := nat.Release(eth.IPv4{1, 1, 1, 1}, 1, eth.ProtoUDP); !errors.Is(err, ErrNATNoMapping) {
		t.Errorf("bogus release: %v", err)
	}
}

func TestNATInboundUnknownDrops(t *testing.T) {
	p := pool(t)
	nat := NewNAT(NATConfig{External: eth.IPv4{203, 0, 113, 1}})
	m := newPacket(t, p, []byte("x"), eth.IPv4{203, 0, 113, 1})
	if v, _ := nat.ProcessInbound(m); v != VerdictDrop {
		t.Error("unsolicited inbound accepted")
	}
	if nat.Dropped != 1 {
		t.Errorf("dropped %d", nat.Dropped)
	}
}

func TestFirewallRuleValidation(t *testing.T) {
	fw := NewFirewall(FirewallAllow)
	if err := fw.AddRule(FirewallRule{}); !errors.Is(err, ErrBadFirewallRule) {
		t.Errorf("no action: %v", err)
	}
	if err := fw.AddRule(FirewallRule{Action: FirewallDeny, SrcDepth: 40}); !errors.Is(err, ErrBadFirewallRule) {
		t.Errorf("bad depth: %v", err)
	}
	if err := fw.AddRule(FirewallRule{Action: FirewallDeny, DstPortLo: 100, DstPortHi: 50}); !errors.Is(err, ErrBadFirewallRule) {
		t.Errorf("inverted range: %v", err)
	}
}

func TestFirewallFirstMatchWins(t *testing.T) {
	p := pool(t)
	fw := NewFirewall(FirewallDeny)
	// Allow web traffic to 192.168/16, deny everything from 10.66/16.
	if err := fw.AddRule(FirewallRule{
		SrcPrefix: 0x0A420000, SrcDepth: 16, Action: FirewallDeny, Description: "blocklist",
	}); err != nil {
		t.Fatal(err)
	}
	if err := fw.AddRule(FirewallRule{
		DstPrefix: 0xC0A80000, DstDepth: 16, Proto: eth.ProtoUDP,
		DstPortLo: 80, DstPortHi: 443, Action: FirewallAllow, Description: "web",
	}); err != nil {
		t.Fatal(err)
	}

	// Matches rule 2 (web allow).
	web := newPacket(t, p, []byte("x"), eth.IPv4{192, 168, 1, 1})
	if v, _ := fw.Process(web); v != VerdictForward {
		t.Error("web traffic denied")
	}
	// Source in the blocklist: rule 1 fires first even though rule 2
	// would allow it.
	blocked := newPacket(t, p, []byte("x"), eth.IPv4{192, 168, 1, 1})
	f, _ := eth.Parse(blocked.Data())
	f.SetSrcIP(eth.IPv4{10, 66, 3, 4})
	if v, _ := fw.Process(blocked); v != VerdictDrop {
		t.Error("blocklisted source allowed")
	}
	// No rule matches: default deny.
	other := newPacket(t, p, []byte("x"), eth.IPv4{8, 8, 8, 8})
	setDstIP(other.Data(), eth.IPv4{8, 8, 8, 8})
	// dst port 80 is set by newPacket; change dst net so rule 2 misses.
	if v, _ := fw.Process(other); v != VerdictDrop {
		t.Error("default deny not applied")
	}
	if fw.Allowed != 1 || fw.Denied != 2 {
		t.Errorf("counters %d/%d", fw.Allowed, fw.Denied)
	}
	if fw.Hits[0] != 1 || fw.Hits[1] != 1 {
		t.Errorf("hits %v", fw.Hits)
	}
}

func TestFirewallPortRange(t *testing.T) {
	p := pool(t)
	fw := NewFirewall(FirewallDeny)
	if err := fw.AddRule(FirewallRule{
		Proto: eth.ProtoUDP, DstPortLo: 53, DstPortHi: 53, Action: FirewallAllow,
	}); err != nil {
		t.Fatal(err)
	}
	dns := newPacket(t, p, []byte("query"), eth.IPv4{9, 9, 9, 9})
	f, _ := eth.Parse(dns.Data())
	l4 := f.L4()
	l4[2], l4[3] = 0, 53
	if v, _ := fw.Process(dns); v != VerdictForward {
		t.Error("dns denied")
	}
	web := newPacket(t, p, []byte("get"), eth.IPv4{9, 9, 9, 9})
	if v, _ := fw.Process(web); v != VerdictDrop {
		t.Error("non-dns allowed")
	}
}
