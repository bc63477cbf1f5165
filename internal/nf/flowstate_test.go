package nf

import (
	"errors"
	"strings"
	"testing"

	"github.com/opencloudnext/dhl-go/internal/eth"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/flowtab"
	"github.com/opencloudnext/dhl-go/internal/mbuf"
)

// natPacket builds an outbound packet from an internal (src, srcPort).
func natPacket(t *testing.T, pool *mbuf.Pool, src eth.IPv4, srcPort uint16) *mbuf.Mbuf {
	t.Helper()
	m, err := pool.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2048)
	n, err := eth.Build(buf, eth.BuildConfig{
		SrcMAC: eth.MAC{2, 0, 0, 0, 0, 1}, DstMAC: eth.MAC{2, 0, 0, 0, 0, 2},
		SrcIP: src, DstIP: eth.IPv4{8, 8, 8, 8},
		SrcPort: srcPort, DstPort: 80, Proto: eth.ProtoUDP, Payload: []byte("x"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AppendBytes(buf[:n]); err != nil {
		t.Fatal(err)
	}
	return m
}

// translate runs one outbound packet through the NAT and returns the
// allocated external port.
func translate(t *testing.T, nat *NAT, pool *mbuf.Pool, src eth.IPv4, srcPort uint16) (uint16, Verdict) {
	t.Helper()
	m := natPacket(t, pool, src, srcPort)
	defer func() { _ = pool.Free(m) }()
	v, _ := nat.ProcessOutbound(m)
	if v != VerdictForward {
		return 0, v
	}
	f, _ := eth.Parse(m.Data())
	return f.SrcPort(), v
}

// TestNATPortPoolWraparound drives the allocator past the top of the
// pool: the cursor must wrap to PortBase and skip still-held ports, and
// a range running past 65535 must clamp rather than wrap to low ports.
func TestNATPortPoolWraparound(t *testing.T) {
	p := pool(t)
	var now eventsim.Time
	nat := NewNAT(NATConfig{
		External: eth.IPv4{203, 0, 113, 1}, PortBase: 65530, PortCount: 10,
		FlowTTL: eventsim.Second,
		Clock:   func() eventsim.Time { return now },
	})
	got := map[uint16]bool{}
	for i := 0; i < 6; i++ { // clamped pool is 65530..65535: 6 ports
		port, v := translate(t, nat, p, eth.IPv4{192, 168, 1, byte(i + 1)}, 1000)
		if v != VerdictForward {
			t.Fatalf("flow %d rejected before pool exhausted", i)
		}
		if port < 65530 {
			t.Fatalf("allocated port %d outside clamped pool", port)
		}
		if got[port] {
			t.Fatalf("port %d allocated twice", port)
		}
		got[port] = true
	}
	if _, v := translate(t, nat, p, eth.IPv4{192, 168, 1, 99}, 1000); v != VerdictDrop {
		t.Fatal("clamped pool did not exhaust at 6 ports")
	}
	// Free a mid-pool port: every flow but the third stays busy while it
	// idles out. The wrapped cursor must find exactly its port.
	now = eventsim.Second / 2
	for i := 0; i < 6; i++ {
		if i == 2 {
			continue
		}
		if _, v := translate(t, nat, p, eth.IPv4{192, 168, 1, byte(i + 1)}, 1000); v != VerdictForward {
			t.Fatalf("live flow %d dropped", i)
		}
	}
	now = eventsim.Second + eventsim.Second/4
	if n := nat.outbound.Tick(); n != 1 {
		t.Fatalf("%d translations expired, want 1", n)
	}
	port, v := translate(t, nat, p, eth.IPv4{192, 168, 1, 200}, 1000)
	if v != VerdictForward {
		t.Fatal("free port not found after wraparound")
	}
	if port != 65532 {
		t.Fatalf("reallocated port %d, want the expired flow's 65532", port)
	}
	if err := nat.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestNATExhaustionReportsConsistentCount pins that the exhaustion error
// checks and reports the same counter.
func TestNATExhaustionReportsConsistentCount(t *testing.T) {
	nat := NewNAT(NATConfig{External: eth.IPv4{203, 0, 113, 1}, PortBase: 40000, PortCount: 3})
	for i := 0; i < 3; i++ {
		key := natKey{ip: eth.IPv4{192, 168, 0, byte(i + 1)}, port: 1000, proto: eth.ProtoUDP}
		if _, err := nat.allocate(key); err != nil {
			t.Fatalf("flow %d: %v", i, err)
		}
	}
	_, err := nat.allocate(natKey{ip: eth.IPv4{192, 168, 0, 99}, port: 1000, proto: eth.ProtoUDP})
	if !errors.Is(err, ErrNATPortsExhausted) {
		t.Fatalf("want ErrNATPortsExhausted, got %v", err)
	}
	if !strings.Contains(err.Error(), "(3 mappings)") {
		t.Errorf("exhaustion error %q does not report the checked count 3", err)
	}
}

// TestNATReleaseReallocateReuse cycles expire -> allocate repeatedly
// across the whole pool; every port an idle translation releases must
// become allocatable again and the port set must stay exact throughout.
func TestNATReleaseReallocateReuse(t *testing.T) {
	p := pool(t)
	var now eventsim.Time
	nat := NewNAT(NATConfig{
		External: eth.IPv4{203, 0, 113, 1}, PortBase: 40000, PortCount: 8,
		FlowTTL: eventsim.Second,
		Clock:   func() eventsim.Time { return now },
	})
	for round := 0; round < 5; round++ {
		ports := map[uint16]bool{}
		for i := 0; i < 8; i++ {
			port, v := translate(t, nat, p, eth.IPv4{192, 168, byte(round), byte(i + 1)}, 2000)
			if v != VerdictForward {
				t.Fatalf("round %d flow %d rejected", round, i)
			}
			ports[port] = true
		}
		if len(ports) != 8 || nat.Mappings() != 8 {
			t.Fatalf("round %d: %d ports, %d mappings", round, len(ports), nat.Mappings())
		}
		if err := nat.CheckConsistency(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		now += 2 * eventsim.Second
		nat.outbound.Tick()
		if nat.Mappings() != 0 {
			t.Fatalf("round %d: %d mappings survive expiry", round, nat.Mappings())
		}
		if err := nat.CheckConsistency(); err != nil {
			t.Fatalf("round %d after expiry: %v", round, err)
		}
	}
}

// TestNATFlowTTLFreesPorts arms the idle timeout: expired translations
// must free their external ports and keep the port set exact, and
// traffic must keep a flow alive.
func TestNATFlowTTLFreesPorts(t *testing.T) {
	p := pool(t)
	var now eventsim.Time
	nat := NewNAT(NATConfig{
		External: eth.IPv4{203, 0, 113, 1}, PortBase: 40000, PortCount: 100,
		FlowTTL: eventsim.Second,
		Clock:   func() eventsim.Time { return now },
	})
	for i := 0; i < 10; i++ {
		if _, v := translate(t, nat, p, eth.IPv4{192, 168, 2, byte(i + 1)}, 3000); v != VerdictForward {
			t.Fatalf("flow %d rejected", i)
		}
	}
	// Keep flow 0 alive with periodic traffic; let the rest idle out.
	for step := 0; step < 4; step++ {
		now += eventsim.Second / 2
		if _, v := translate(t, nat, p, eth.IPv4{192, 168, 2, 1}, 3000); v != VerdictForward {
			t.Fatal("live flow dropped")
		}
		nat.outbound.Tick()
	}
	if got := nat.Mappings(); got != 1 {
		t.Fatalf("%d mappings survive idle expiry, want 1", got)
	}
	if err := nat.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// The freed ports are allocatable again.
	for i := 0; i < 99; i++ {
		if _, v := translate(t, nat, p, eth.IPv4{192, 168, 3, byte(i + 1)}, 3000); v != VerdictForward {
			t.Fatalf("post-expiry flow %d rejected", i)
		}
	}
	if err := nat.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestNATPressureEvictionBounded: at the MaxFlows cap with a TTL armed,
// new flows pressure-evict the oldest instead of dropping, and the
// port set stays exact.
func TestNATPressureEvictionBounded(t *testing.T) {
	p := pool(t)
	var now eventsim.Time
	nat := NewNAT(NATConfig{
		External: eth.IPv4{203, 0, 113, 1},
		MaxFlows: 64, FlowTTL: eventsim.Second,
		Clock: func() eventsim.Time { return now },
	})
	for i := 0; i < 500; i++ {
		now += eventsim.Millisecond
		src := eth.IPv4{192, 168, byte(i >> 8), byte(i)}
		if _, v := translate(t, nat, p, src, 4000); v != VerdictForward {
			t.Fatalf("flow %d dropped despite pressure eviction", i)
		}
	}
	if got := nat.Mappings(); got > 64 {
		t.Fatalf("%d mappings exceed the 64-flow cap", got)
	}
	if err := nat.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestNATCheckConsistencyDetectsOrphan corrupts the NAT's state in each
// way the port set can disagree with the translations, and expects a
// diagnosis that names it.
func TestNATCheckConsistencyDetectsOrphan(t *testing.T) {
	p := pool(t)
	key := natKey{ip: eth.IPv4{192, 168, 9, 1}, port: 5000, proto: eth.ProtoUDP}
	for _, c := range []struct {
		name    string
		corrupt func(n *NAT, ext uint16)
		want    string
	}{
		// The translation goes but its port stays marked (an empty table
		// swapped in, bypassing OnEvict).
		{"out of sync", func(n *NAT, _ uint16) { n.outbound = NewNAT(NATConfig{External: n.external}).outbound },
			"out of sync: 0 outbound, 1 ports marked used; port 20000 has no translation"},
		{"owner's bit clear", func(n *NAT, ext uint16) { n.setUsed(ext, false) },
			"192.168.9.1:5000 -> 20000 holds a port marked free"},
		{"bit without owner", func(n *NAT, ext uint16) { n.setUsed(ext+7, true) },
			"port 20007 has no translation"},
	} {
		nat := NewNAT(NATConfig{External: eth.IPv4{203, 0, 113, 1}})
		ext, v := translate(t, nat, p, key.ip, key.port)
		if v != VerdictForward {
			t.Fatal("setup flow rejected")
		}
		if err := nat.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
		c.corrupt(nat, ext)
		err := nat.CheckConsistency()
		if err == nil {
			t.Errorf("%s: undetected", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: diagnosis %q, want it to contain %q", c.name, err, c.want)
		}
	}
}

func TestFlowFirewallCachesVerdicts(t *testing.T) {
	p := pool(t)
	fw := NewFirewall(FirewallAllow)
	if err := fw.AddRule(FirewallRule{
		SrcPrefix: 0x0A420000, SrcDepth: 16, Action: FirewallDeny, Description: "blocklist",
	}); err != nil {
		t.Fatal(err)
	}
	var now eventsim.Time
	ffw, err := NewFlowFirewall(fw, FlowFirewallConfig{
		FlowTTL: eventsim.Second,
		Clock:   func() eventsim.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func(src eth.IPv4) Verdict {
		m := natPacket(t, p, src, 6000)
		defer func() { _ = p.Free(m) }()
		v, _ := ffw.Process(m)
		return v
	}
	allowed := eth.IPv4{192, 168, 0, 1}
	blocked := eth.IPv4{10, 66, 0, 1}
	// First packets miss the cache, repeats hit it — same verdicts.
	for i := 0; i < 3; i++ {
		if v := run(allowed); v != VerdictForward {
			t.Fatalf("pass %d: allowed flow verdict %v", i, v)
		}
		if v := run(blocked); v != VerdictDrop {
			t.Fatalf("pass %d: blocked flow verdict %v", i, v)
		}
	}
	if ffw.CacheMisses != 2 {
		t.Errorf("CacheMisses = %d, want 2", ffw.CacheMisses)
	}
	if ffw.CacheHits != 4 {
		t.Errorf("CacheHits = %d, want 4", ffw.CacheHits)
	}
	if ffw.flows.Len() != 2 {
		t.Errorf("CachedFlows = %d, want 2", ffw.flows.Len())
	}
	// Totals still conserve packets.
	if fw.Allowed+fw.Denied != 6 {
		t.Errorf("allowed %d + denied %d != 6 packets", fw.Allowed, fw.Denied)
	}
	// A cached hit must be cheaper than an ACL walk.
	m := natPacket(t, p, allowed, 6000)
	_, hitCycles := ffw.Process(m)
	_ = p.Free(m)
	if _, walkCycles := fw.Process(func() *mbuf.Mbuf {
		m := natPacket(t, p, eth.IPv4{172, 16, 0, 1}, 6000)
		defer func() { _ = p.Free(m) }()
		return m
	}()); hitCycles >= walkCycles+flowFirewallHitCycles {
		t.Errorf("cache hit (%v cycles) not cheaper than walk (%v)", hitCycles, walkCycles)
	}
	// TTL expires idle verdicts.
	now += 2 * eventsim.Second
	ffw.Tick()
	if ffw.flows.Len() != 0 {
		t.Errorf("%d flows survive TTL expiry", ffw.flows.Len())
	}
}

// TestFlowTableSlotBytes pins what one flow costs in each NF's table: a
// slab slot (the key, the value, a 4-byte deadline stamp and a 4-byte
// wheel link), plus two 4-byte index buckets. Built without a TTL, a fresh
// table holds no wheel and no draining index, so MemBytes is exactly
// capacity × (slot + 8).
func TestFlowTableSlotBytes(t *testing.T) {
	ffw, err := NewFlowFirewall(NewFirewall(FirewallAllow), FlowFirewallConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		src  flowtab.Source
		slot uint64
	}{
		{ffw.FlowTabs()[0], 24}, // 13 B 5-tuple padded to 14, 1 B verdict, padded to the stamp
		{NewNAT(NATConfig{External: eth.IPv4{203, 0, 113, 1}}).outbound, 20}, // 8 B key, 2 B port, padded
	} {
		st := c.src.TabStats()
		if st.MemBytes != st.Capacity*(c.slot+8) {
			t.Errorf("%s: %d B over %d entries, want %d (a %d B slot each)",
				c.src.Name(), st.MemBytes, st.Capacity, st.Capacity*(c.slot+8), c.slot)
		}
	}
}

// TestNATZeroAllocHitPath pins the rebase's point: established-flow
// translation allocates nothing.
func TestNATZeroAllocHitPath(t *testing.T) {
	p := pool(t)
	var now eventsim.Time
	nat := NewNAT(NATConfig{
		External: eth.IPv4{203, 0, 113, 1},
		FlowTTL:  eventsim.Second,
		Clock:    func() eventsim.Time { return now },
	})
	m := natPacket(t, p, eth.IPv4{192, 168, 7, 7}, 7000)
	defer func() { _ = p.Free(m) }()
	if v, _ := nat.ProcessOutbound(m); v != VerdictForward {
		t.Fatal("setup translation failed")
	}
	raw := append([]byte(nil), m.Data()...)
	if avg := testing.AllocsPerRun(500, func() {
		now += eventsim.Microsecond
		copy(m.Data(), raw) // restore the pre-translation header
		if v, _ := nat.ProcessOutbound(m); v != VerdictForward {
			t.Fatal("hit path dropped")
		}
		nat.outbound.Tick()
	}); avg != 0 {
		t.Fatalf("NAT hit path allocates %.1f/op, want 0", avg)
	}
}
