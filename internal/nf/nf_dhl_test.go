package nf

import (
	"bytes"
	"testing"

	"github.com/opencloudnext/dhl-go/internal/core"
	"github.com/opencloudnext/dhl-go/internal/eth"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/hwfunc"
	"github.com/opencloudnext/dhl-go/internal/mbuf"
)

type dhlRig struct {
	sim  *eventsim.Sim
	pool *mbuf.Pool
	rt   *core.Runtime
}

func newDHLRig(t *testing.T) *dhlRig {
	t.Helper()
	sim := eventsim.New()
	pool, err := mbuf.NewPool(mbuf.PoolConfig{Name: "nf-dhl", Capacity: 512})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.NewRuntime(core.Config{Sim: sim, Pool: pool, FlushTimeout: 5 * eventsim.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range hwfunc.Specs() {
		if err := rt.RegisterModule(spec); err != nil {
			t.Fatal(err)
		}
	}
	return &dhlRig{sim: sim, pool: pool, rt: rt}
}

func (r *dhlRig) settle() { r.sim.Run(r.sim.Now() + 60*eventsim.Millisecond) }

func (r *dhlRig) roundTrip(t *testing.T, id core.NFID, m *mbuf.Mbuf) *mbuf.Mbuf {
	t.Helper()
	if n, err := r.rt.SendPackets(id, []*mbuf.Mbuf{m}); err != nil || n != 1 {
		t.Fatalf("send: %d %v", n, err)
	}
	r.sim.Run(r.sim.Now() + eventsim.Millisecond)
	out := make([]*mbuf.Mbuf, 4)
	n, err := r.rt.ReceivePackets(id, out)
	if err != nil || n != 1 {
		t.Fatalf("receive: %d %v", n, err)
	}
	return out[0]
}

func TestIPsecGatewayDHLFullPath(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation; skipped in -short CI gate")
	}
	r := newDHLRig(t)
	sadb := NewSADB()
	if err := sadb.AddDefaultSA(); err != nil {
		t.Fatal(err)
	}
	gw, err := NewIPsecGatewayDHL(r.rt, sadb, "gw", 0)
	if err != nil {
		t.Fatal(err)
	}
	r.settle()

	payload := []byte("dhl-offloaded secret payload")
	m := newPacket(t, r.pool, payload, eth.IPv4{50, 0, 0, 1})
	origLen := m.Len()
	if v, _ := gw.PreProcess(m); v != VerdictForward {
		t.Fatalf("preprocess verdict %v", v)
	}
	if m.AccID != uint16(gw.AccID) {
		t.Error("acc_id tag not set")
	}
	out := r.roundTrip(t, gw.NFID, m)
	if v, _ := gw.PostProcess(out); v != VerdictForward {
		t.Fatalf("postprocess verdict %v", v)
	}
	if out.Len() != origLen+20 {
		t.Errorf("ESP growth %d -> %d", origLen, out.Len())
	}
	f, perr := eth.Parse(out.Data())
	if perr != nil {
		t.Fatal(perr)
	}
	if f.Proto() != eth.ProtoESP || ipChecksum(out.Data()) != f.ComputeIPChecksum() {
		t.Error("header fixup incomplete")
	}
	// The hardware path's output decrypts under the same SA as software.
	plain, derr := VerifyESP(out.Data(), DefaultSA())
	if derr != nil {
		t.Fatal(derr)
	}
	if !bytes.HasSuffix(plain, payload) {
		t.Error("hardware-encrypted payload mismatch")
	}
	_ = r.pool.Free(out)
}

func TestIPsecGatewayDHLNoSADrops(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation; skipped in -short CI gate")
	}
	r := newDHLRig(t)
	sadb := NewSADB()
	if err := sadb.AddSA(0x0A000000, 8, DefaultSA()); err != nil {
		t.Fatal(err)
	}
	gw, err := NewIPsecGatewayDHL(r.rt, sadb, "gw", 0)
	if err != nil {
		t.Fatal(err)
	}
	r.settle()
	m := newPacket(t, r.pool, []byte("x"), eth.IPv4{99, 0, 0, 1})
	if v, _ := gw.PreProcess(m); v != VerdictDrop {
		t.Errorf("no-SA verdict %v", v)
	}
	if gw.Dropped != 1 {
		t.Errorf("dropped %d", gw.Dropped)
	}
	_ = r.pool.Free(m)
}

func TestIPsecGatewayDHLRequiresSA(t *testing.T) {
	r := newDHLRig(t)
	if _, err := NewIPsecGatewayDHL(r.rt, NewSADB(), "gw", 0); err == nil {
		t.Error("empty SADB accepted")
	}
}

// A frame the accelerator never processed (StatusUnprocessed: the module
// is quarantined and has no fallback) leaves no DHL NF: each drops it and
// counts it apart from its verdict drops. A StatusFallback frame, which a
// software fallback processed, is forwarded as the module's own output is.
func TestUnprocessedNeverForwarded(t *testing.T) {
	r := newDHLRig(t)
	sadb := NewSADB()
	if err := sadb.AddDefaultSA(); err != nil {
		t.Fatal(err)
	}
	gw, err := NewIPsecGatewayDHL(r.rt, sadb, "gw", 0)
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewIPsecGatewayInboundDHL(r.rt, sadb, "in", 0)
	if err != nil {
		t.Fatal(err)
	}
	rules, err := NewRuleSet(DefaultSnortRules())
	if err != nil {
		t.Fatal(err)
	}
	ids, err := NewNIDSDHL(r.rt, rules, "ids", 0)
	if err != nil {
		t.Fatal(err)
	}

	payload := []byte("innocuous browsing traffic")
	for _, tc := range []struct {
		name string
		post func(*mbuf.Mbuf) (Verdict, float64)
		// processed is what a fallback appends to the frame: IV and ICV
		// (encrypted), nothing (decrypted) or the no-match trailer (scanned).
		processed []byte
		// unprocessed and verdictDrops are the NF's counters.
		unprocessed, verdictDrops func() uint64
	}{
		{"ipsec", gw.PostProcess, make([]byte, hwfunc.IPsecGrowth),
			func() uint64 { return gw.Unprocessed }, func() uint64 { return gw.Dropped }},
		{"ipsec-inbound", in.PostProcess, nil,
			func() uint64 { return in.Unprocessed }, func() uint64 { return in.Dropped + in.AuthFailures }},
		{"nids", ids.PostProcess, []byte{0, 0, 0xff, 0xff},
			func() uint64 { return ids.Stats.Unprocessed }, func() uint64 { return ids.Stats.Dropped }},
	} {
		m := newPacket(t, r.pool, payload, eth.IPv4{50, 0, 0, 1})
		m.Status = mbuf.StatusUnprocessed
		if v, _ := tc.post(m); v != VerdictDrop {
			t.Errorf("%s: an unprocessed frame got verdict %v, want it dropped", tc.name, v)
		}
		if tc.unprocessed() != 1 || tc.verdictDrops() != 0 {
			t.Errorf("%s: %d unprocessed and %d verdict drops, want 1 and 0", tc.name, tc.unprocessed(), tc.verdictDrops())
		}
		_ = r.pool.Free(m)

		m = newPacket(t, r.pool, payload, eth.IPv4{50, 0, 0, 1})
		if err := m.AppendBytes(tc.processed); err != nil {
			t.Fatal(err)
		}
		m.Status = mbuf.StatusFallback
		if v, _ := tc.post(m); v != VerdictForward {
			t.Errorf("%s: a fallback's frame got verdict %v, want it forwarded", tc.name, v)
		}
		if tc.unprocessed() != 1 {
			t.Errorf("%s: a fallback's frame counted as unprocessed", tc.name)
		}
		_ = r.pool.Free(m)
	}
}

func TestNIDSDHLVerdictsMatchSoftware(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation; skipped in -short CI gate")
	}
	r := newDHLRig(t)
	rules, err := NewRuleSet(DefaultSnortRules())
	if err != nil {
		t.Fatal(err)
	}
	ids, err := NewNIDSDHL(r.rt, rules, "ids", 0)
	if err != nil {
		t.Fatal(err)
	}
	sw := NewNIDSSW(rules)
	r.settle()

	cases := [][]byte{
		[]byte("innocuous browsing traffic"),
		[]byte("GET /../../etc/passwd HTTP/1.0"),
		[]byte("wget http://mirror.example/pkg"),
		[]byte("xp_cmdshell 'dir c:'"),
	}
	for _, payload := range cases {
		hw := newPacket(t, r.pool, payload, eth.IPv4{1, 2, 3, 4})
		swPkt := newPacket(t, r.pool, payload, eth.IPv4{1, 2, 3, 4})

		wantVerdict, _ := sw.Process(swPkt)
		origLen := hw.Len()

		if v, _ := ids.PreProcess(hw); v != VerdictForward {
			t.Fatalf("preprocess verdict %v", v)
		}
		out := r.roundTrip(t, ids.NFID, hw)
		gotVerdict, _ := ids.PostProcess(out)
		if gotVerdict != wantVerdict {
			t.Errorf("%q: hw verdict %v, sw verdict %v", payload, gotVerdict, wantVerdict)
		}
		if out.Len() != origLen {
			t.Errorf("%q: trailer not trimmed: %d vs %d", payload, out.Len(), origLen)
		}
		_ = r.pool.Free(out)
		_ = r.pool.Free(swPkt)
	}
	if ids.Stats.Scanned != uint64(len(cases)) {
		t.Errorf("scanned %d", ids.Stats.Scanned)
	}
}

func TestIPsecEncryptThenDecryptRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation; skipped in -short CI gate")
	}
	r := newDHLRig(t)
	sadb := NewSADB()
	if err := sadb.AddDefaultSA(); err != nil {
		t.Fatal(err)
	}
	enc, err := NewIPsecGatewayDHL(r.rt, sadb, "enc-gw", 0)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewIPsecGatewayInboundDHL(r.rt, sadb, "dec-gw", 0)
	if err != nil {
		t.Fatal(err)
	}
	r.settle()

	payload := []byte("round trips through two hardware functions")
	m := newPacket(t, r.pool, payload, eth.IPv4{60, 0, 0, 1})
	original := append([]byte(nil), m.Data()...)

	// Outbound: encrypt on the FPGA.
	if v, _ := enc.PreProcess(m); v != VerdictForward {
		t.Fatal("enc preprocess")
	}
	ct := r.roundTrip(t, enc.NFID, m)
	if v, _ := enc.PostProcess(ct); v != VerdictForward {
		t.Fatal("enc postprocess")
	}

	// Inbound: decrypt on the FPGA.
	if v, _ := dec.PreProcess(ct); v != VerdictForward {
		t.Fatal("dec preprocess")
	}
	pt := r.roundTrip(t, dec.NFID, ct)
	if v, _ := dec.PostProcess(pt); v != VerdictForward {
		t.Fatal("dec postprocess")
	}
	if !bytes.Equal(pt.Data(), original) {
		t.Errorf("round trip mismatch:\n got %x\nwant %x", pt.Data(), original)
	}
	if dec.Decrypted != 1 || dec.AuthFailures != 0 {
		t.Errorf("decrypt counters %d/%d", dec.Decrypted, dec.AuthFailures)
	}
	_ = r.pool.Free(pt)
}

func TestIPsecInboundRejectsTamperedFrames(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation; skipped in -short CI gate")
	}
	r := newDHLRig(t)
	sadb := NewSADB()
	if err := sadb.AddDefaultSA(); err != nil {
		t.Fatal(err)
	}
	enc, err := NewIPsecGatewayDHL(r.rt, sadb, "enc", 0)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewIPsecGatewayInboundDHL(r.rt, sadb, "dec", 0)
	if err != nil {
		t.Fatal(err)
	}
	r.settle()

	m := newPacket(t, r.pool, []byte("integrity protected"), eth.IPv4{60, 0, 0, 2})
	_, _ = enc.PreProcess(m)
	ct := r.roundTrip(t, enc.NFID, m)
	_, _ = enc.PostProcess(ct)

	// Flip a ciphertext bit in transit.
	ct.Data()[ct.Len()-20] ^= 0x01
	if v, _ := dec.PreProcess(ct); v != VerdictForward {
		t.Fatal("dec preprocess")
	}
	out := r.roundTrip(t, dec.NFID, ct)
	if v, _ := dec.PostProcess(out); v != VerdictDrop {
		t.Error("tampered frame passed authentication")
	}
	if dec.AuthFailures != 1 {
		t.Errorf("auth failures %d", dec.AuthFailures)
	}
	_ = r.pool.Free(out)

	// Non-ESP traffic is dropped in preprocessing.
	plain := newPacket(t, r.pool, []byte("not esp"), eth.IPv4{60, 0, 0, 3})
	if v, _ := dec.PreProcess(plain); v != VerdictDrop {
		t.Error("non-ESP frame accepted")
	}
	_ = r.pool.Free(plain)
}
