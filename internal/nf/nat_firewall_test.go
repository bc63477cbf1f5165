package nf

import (
	"errors"
	"testing"

	"github.com/opencloudnext/dhl-go/internal/eth"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
)

func TestNATStableMappingPerFlow(t *testing.T) {
	p := pool(t)
	nat := NewNAT(NATConfig{External: eth.IPv4{203, 0, 113, 1}})
	ports := map[uint16]bool{}
	for i := 0; i < 3; i++ {
		m := newPacket(t, p, []byte("x"), eth.IPv4{8, 8, 8, 8})
		f, _ := eth.Parse(m.Data())
		f.SetSrcIP(eth.IPv4{192, 168, 0, 42})
		f.SetIPChecksum(f.ComputeIPChecksum())
		if v, cycles := nat.ProcessOutbound(m); v != VerdictForward || cycles != natCycles {
			t.Fatalf("outbound %v %v", v, cycles)
		}
		f, _ = eth.Parse(m.Data())
		if f.SrcIP() != (eth.IPv4{203, 0, 113, 1}) {
			t.Errorf("source not translated: %v", f.SrcIP())
		}
		if f.SrcPort() < 20000 {
			t.Errorf("external port %d outside pool", f.SrcPort())
		}
		if ipChecksum(m.Data()) != f.ComputeIPChecksum() {
			t.Error("checksum stale after translation")
		}
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
	var now eventsim.Time
	nat := NewNAT(NATConfig{
		External: eth.IPv4{203, 0, 113, 1}, PortBase: 40000, PortCount: 2,
		FlowTTL: eventsim.Second,
		Clock:   func() eventsim.Time { return now },
	})
	for i := 0; i < 2; i++ {
		if _, v := translate(t, nat, p, eth.IPv4{192, 168, 0, byte(i + 1)}, 5555); v != VerdictForward {
			t.Fatalf("flow %d rejected", i)
		}
	}
	late := eth.IPv4{192, 168, 0, 99}
	if _, v := translate(t, nat, p, late, 5555); v != VerdictDrop {
		t.Error("exhausted pool still translating")
	}
	// Flow 2 stays busy while flow 1 idles out; then retry.
	now = eventsim.Second / 2
	if _, v := translate(t, nat, p, eth.IPv4{192, 168, 0, 2}, 5555); v != VerdictForward {
		t.Fatal("live flow dropped")
	}
	now = eventsim.Second + eventsim.Second/4
	nat.outbound.Tick()
	if _, v := translate(t, nat, p, late, 5555); v != VerdictForward {
		t.Error("expired port not reusable")
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
	// dst port 80 is set by newPacket; a dst outside 192.168/16 makes
	// rule 2 miss.
	other := newPacket(t, p, []byte("x"), eth.IPv4{8, 8, 8, 8})
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
