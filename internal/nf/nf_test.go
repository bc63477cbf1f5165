package nf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"github.com/opencloudnext/dhl-go/internal/eth"
	"github.com/opencloudnext/dhl-go/internal/mbuf"
	"github.com/opencloudnext/dhl-go/internal/perf"
)

func newPacket(t *testing.T, pool *mbuf.Pool, payload []byte, dst eth.IPv4) *mbuf.Mbuf {
	t.Helper()
	m, err := pool.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2048)
	n, err := eth.Build(buf, eth.BuildConfig{
		SrcMAC: eth.MAC{2, 0, 0, 0, 0, 1}, DstMAC: eth.MAC{2, 0, 0, 0, 0, 2},
		SrcIP: eth.IPv4{10, 0, 0, 1}, DstIP: dst,
		SrcPort: 5555, DstPort: 80, Proto: eth.ProtoUDP, Payload: payload,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AppendBytes(buf[:n]); err != nil {
		t.Fatal(err)
	}
	return m
}

func pool(t *testing.T) *mbuf.Pool {
	t.Helper()
	p, err := mbuf.NewPool(mbuf.PoolConfig{Name: "nf", Capacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSADB(t *testing.T) {
	db := NewSADB()
	if _, err := db.Match(eth.IPv4{1, 2, 3, 4}); !errors.Is(err, ErrNoSA) {
		t.Errorf("empty db: %v", err)
	}
	sa := DefaultSA()
	if err := db.AddSA(0x0A000000, 8, sa); err != nil {
		t.Fatal(err)
	}
	if err := db.AddSA(0x0B000000, 8, sa); !errors.Is(err, ErrDupeSPI) {
		t.Errorf("dup SPI: %v", err)
	}
	bad := sa
	bad.SPI++
	bad.Key = bad.Key[:5]
	if err := db.AddSA(0x0B000000, 8, bad); !errors.Is(err, ErrBadSA) {
		t.Errorf("bad SA: %v", err)
	}
	got, err := db.Match(eth.IPv4{10, 9, 8, 7})
	if err != nil || got.SPI != sa.SPI {
		t.Errorf("match: %v %v", got, err)
	}
	if _, err := db.Match(eth.IPv4{11, 0, 0, 1}); !errors.Is(err, ErrNoSA) {
		t.Errorf("miss: %v", err)
	}
	if db.Len() != 1 {
		t.Errorf("len %d", db.Len())
	}
	db2 := NewSADB()
	if err := db2.AddDefaultSA(); err != nil {
		t.Fatal(err)
	}
	if _, err := db2.Match(eth.IPv4{200, 1, 2, 3}); err != nil {
		t.Errorf("default SA should cover everything: %v", err)
	}
}

func TestRuleSet(t *testing.T) {
	if _, err := NewRuleSet(nil); !errors.Is(err, ErrNoRules) {
		t.Errorf("empty rules: %v", err)
	}
	if _, err := NewRuleSet([]Rule{{SID: 1, Pattern: nil}}); err == nil {
		t.Error("empty pattern accepted")
	}
	rs, err := NewRuleSet(DefaultSnortRules())
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != len(DefaultSnortRules()) {
		t.Errorf("len %d", rs.Len())
	}
	if !rs.CaseFold() {
		t.Error("default set should fold (nocase rules present)")
	}
	if _, err := rs.Rule(999); err == nil {
		t.Error("bad pattern id accepted")
	}
	r0, err := rs.Rule(0)
	if err != nil || r0.SID != 1001 {
		t.Errorf("rule 0: %+v %v", r0, err)
	}
	if len(rs.Patterns()) != rs.Len() {
		t.Error("patterns length")
	}
}

func TestL2Fwd(t *testing.T) {
	p := pool(t)
	l2 := NewL2Fwd(eth.MAC{2, 0, 0, 0, 0, 0x10})
	l2.AddPort(0, 1, eth.MAC{2, 0, 0, 0, 0, 0x20})
	m := newPacket(t, p, []byte("x"), eth.IPv4{9, 9, 9, 9})
	m.Port = 0
	v, cycles := l2.Process(m)
	if v != VerdictForward || cycles != perf.L2fwdCycles {
		t.Errorf("verdict %v cycles %v", v, cycles)
	}
	if d := m.Data(); eth.MAC(d[0:6]) != (eth.MAC{2, 0, 0, 0, 0, 0x20}) || eth.MAC(d[6:12]) != (eth.MAC{2, 0, 0, 0, 0, 0x10}) {
		t.Error("MACs not rewritten")
	}
	if m.Port != 1 {
		t.Errorf("port %d", m.Port)
	}
	// Unknown ingress port drops.
	m2 := newPacket(t, p, []byte("x"), eth.IPv4{9, 9, 9, 9})
	m2.Port = 7
	if v, _ := l2.Process(m2); v != VerdictDrop {
		t.Errorf("unknown port verdict %v", v)
	}
	if l2.Forwarded != 1 || l2.Dropped != 1 {
		t.Errorf("counters %d/%d", l2.Forwarded, l2.Dropped)
	}
}

func TestL3Fwd(t *testing.T) {
	p := pool(t)
	l3 := NewL3Fwd(eth.MAC{2, 0, 0, 0, 0, 0x10})
	if err := l3.AddRoute(0xC0A80000, 16, 3, eth.MAC{2, 0, 0, 0, 0, 0x30}); err != nil {
		t.Fatal(err)
	}
	m := newPacket(t, p, []byte("x"), eth.IPv4{192, 168, 1, 1})
	f, _ := eth.Parse(m.Data())
	ttl := f.TTL()
	v, cycles := l3.Process(m)
	if v != VerdictForward || cycles != perf.L3fwdCycles {
		t.Errorf("verdict %v cycles %v", v, cycles)
	}
	f, _ = eth.Parse(m.Data())
	if f.TTL() != ttl-1 {
		t.Error("TTL not decremented")
	}
	if ipChecksum(m.Data()) != f.ComputeIPChecksum() {
		t.Error("checksum stale")
	}
	if m.Port != 3 {
		t.Errorf("port %d", m.Port)
	}
	// No route -> drop.
	m2 := newPacket(t, p, []byte("x"), eth.IPv4{8, 8, 8, 8})
	if v, _ := l3.Process(m2); v != VerdictDrop {
		t.Errorf("no-route verdict %v", v)
	}
	// TTL expiry -> drop.
	m3 := newPacket(t, p, []byte("x"), eth.IPv4{192, 168, 1, 1})
	m3.Data()[eth.EtherLen+8] = 1
	if v, _ := l3.Process(m3); v != VerdictDrop {
		t.Errorf("ttl verdict %v", v)
	}
}

// allocatedBytes is what fn takes from the heap, freed or not.
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSADBSetupBytes pins what every IPsec testbed pays for its SA
// matching: the default SA's two /1 selectors live in the LPM table's root,
// and nothing else is indexed per SA. It was 64 MB while the table's first
// level was one flat array, and 8.9 KB with an SPI index beside it.
func TestSADBSetupBytes(t *testing.T) {
	var db *SADB
	got := allocatedBytes(func() {
		db = NewSADB()
		if err := db.AddDefaultSA(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("NewSADB + AddDefaultSA allocated %d bytes", got)
	if got >= 8<<10 {
		t.Errorf("NewSADB + AddDefaultSA allocated %d bytes, want < 8 KB", got)
	}
	for dst, spi := range map[eth.IPv4]uint32{{10, 0, 0, 1}: 0x1001, {192, 168, 0, 1}: 0x1002} {
		if sa, err := db.Match(dst); err != nil || sa.SPI != spi {
			t.Errorf("match %v: %+v, %v, want SPI %#x", dst, sa, err, spi)
		}
	}
}

// TestL3FwdTableBytes is the same gate on Table I's L3fwd-lpm route set
// (harness/table1.go): a /16, a /8 and 64 /24s in one /8 are two 256 KB
// chunks of the table, not 64 MB.
func TestL3FwdTableBytes(t *testing.T) {
	got := allocatedBytes(func() {
		l3 := NewL3Fwd(eth.MAC{2, 0, 0, 0, 0, 0x10})
		add := func(prefix uint32, depth uint8) {
			if err := l3.AddRoute(prefix, depth, 1, eth.MAC{2, 0, 0, 0, 0, 0x20}); err != nil {
				t.Fatal(err)
			}
		}
		add(0xC0A80000, 16)
		add(0x0A000000, 8)
		for i := uint32(0); i < 64; i++ {
			add(0x20000000+i<<16, 24)
		}
	})
	t.Logf("Table I route set allocated %d bytes", got)
	if got >= 1<<20 {
		t.Errorf("Table I route set allocated %d bytes, want < 1 MB", got)
	}
}

func TestIPsecGatewaySWEncryptsVerifiably(t *testing.T) {
	p := pool(t)
	db := NewSADB()
	if err := db.AddDefaultSA(); err != nil {
		t.Fatal(err)
	}
	gw, err := NewIPsecGatewaySW(db)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("confidential payload bytes here")
	m := newPacket(t, p, payload, eth.IPv4{20, 0, 0, 1})
	origLen := m.Len()
	v, cycles := gw.Process(m)
	if v != VerdictForward {
		t.Fatalf("verdict %v", v)
	}
	wantCycles := perf.IPsecSWBaseCycles + perf.IPsecSWCyclesPerByte*float64(origLen)
	if cycles != wantCycles {
		t.Errorf("cycles %v want %v", cycles, wantCycles)
	}
	if m.Len() != origLen+20 {
		t.Errorf("ESP growth: %d -> %d", origLen, m.Len())
	}
	f, _ := eth.Parse(m.Data())
	if f.Proto() != eth.ProtoESP {
		t.Errorf("proto %d", f.Proto())
	}
	if int(binary.BigEndian.Uint16(m.Data()[eth.EtherLen+2:])) != m.Len()-eth.EtherLen {
		t.Error("IP total length not updated")
	}
	if ipChecksum(m.Data()) != f.ComputeIPChecksum() {
		t.Error("checksum stale")
	}
	// The ciphertext must not contain the plaintext.
	if bytes.Contains(m.Data(), payload) {
		t.Error("payload still in cleartext")
	}
	// And must decrypt with the SA.
	plain, err := VerifyESP(m.Data(), DefaultSA())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(plain, payload) {
		t.Error("decrypted payload mismatch")
	}
	if gw.Encrypted != 1 {
		t.Errorf("counter %d", gw.Encrypted)
	}
}

func TestIPsecGatewaySWNoSADrops(t *testing.T) {
	p := pool(t)
	db := NewSADB()
	sa := DefaultSA()
	if err := db.AddSA(0x0A000000, 8, sa); err != nil {
		t.Fatal(err)
	}
	gw, _ := NewIPsecGatewaySW(db)
	m := newPacket(t, p, []byte("x"), eth.IPv4{99, 0, 0, 1})
	if v, _ := gw.Process(m); v != VerdictDrop {
		t.Errorf("no-SA verdict %v", v)
	}
	if gw.Dropped != 1 {
		t.Errorf("dropped %d", gw.Dropped)
	}
}

func TestNIDSSWVerdicts(t *testing.T) {
	p := pool(t)
	rs, _ := NewRuleSet(DefaultSnortRules())
	ids := NewNIDSSW(rs)

	clean := newPacket(t, p, []byte("totally ordinary request"), eth.IPv4{1, 1, 1, 1})
	if v, _ := ids.Process(clean); v != VerdictForward {
		t.Errorf("clean verdict %v", v)
	}
	attack := newPacket(t, p, []byte("GET /../../etc/passwd"), eth.IPv4{1, 1, 1, 1})
	if v, _ := ids.Process(attack); v != VerdictDrop {
		t.Errorf("attack verdict %v", v)
	}
	alert := newPacket(t, p, []byte("wget http://example.com/tool"), eth.IPv4{1, 1, 1, 1})
	if v, _ := ids.Process(alert); v != VerdictForward {
		t.Errorf("alert verdict %v (alert rules pass)", v)
	}
	if ids.Stats.Scanned != 3 || ids.Stats.Dropped != 1 || ids.Stats.Alerts != 1 {
		t.Errorf("stats %+v", ids.Stats)
	}
}
