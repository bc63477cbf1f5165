package eth

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

func buildFrame(t *testing.T, cfg BuildConfig) []byte {
	t.Helper()
	buf := make([]byte, 2048)
	n, err := Build(buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return buf[:n]
}

func defaultCfg() BuildConfig {
	return BuildConfig{
		SrcMAC:  MAC{0x02, 0, 0, 0, 0, 1},
		DstMAC:  MAC{0x02, 0, 0, 0, 0, 2},
		SrcIP:   IPv4{10, 1, 2, 3},
		DstIP:   IPv4{192, 168, 4, 5},
		SrcPort: 1234,
		DstPort: 80,
		Proto:   ProtoUDP,
		Payload: []byte("payload-bytes"),
	}
}

func TestBuildParseRoundTrip(t *testing.T) {
	cfg := defaultCfg()
	raw := buildFrame(t, cfg)
	f, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if MAC(f.raw[6:12]) != cfg.SrcMAC || MAC(f.raw[0:6]) != cfg.DstMAC {
		t.Errorf("MACs: %v %v", f.raw[6:12], f.raw[0:6])
	}
	if f.SrcIP() != cfg.SrcIP || f.DstIP() != cfg.DstIP {
		t.Errorf("IPs: %v %v", f.SrcIP(), f.DstIP())
	}
	if f.SrcPort() != 1234 || f.DstPort() != 80 {
		t.Errorf("ports: %d %d", f.SrcPort(), f.DstPort())
	}
	if f.Proto() != ProtoUDP {
		t.Errorf("proto %d", f.Proto())
	}
	if !bytes.Equal(f.Payload(), cfg.Payload) {
		t.Errorf("payload %q", f.Payload())
	}
	if ipTotalLen(f) != len(raw)-EtherLen {
		t.Errorf("total len %d vs frame %d", ipTotalLen(f), len(raw))
	}
	if f.EtherType() != EtherTypeIPv4 {
		t.Errorf("ethertype %#x", f.EtherType())
	}
}

func TestBuildTCP(t *testing.T) {
	cfg := defaultCfg()
	cfg.Proto = ProtoTCP
	raw := buildFrame(t, cfg)
	f, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if f.Proto() != ProtoTCP {
		t.Errorf("proto %d", f.Proto())
	}
	if !bytes.Equal(f.Payload(), cfg.Payload) {
		t.Errorf("tcp payload %q", f.Payload())
	}
	if f.SrcPort() != 1234 || f.DstPort() != 80 {
		t.Errorf("tcp ports %d %d", f.SrcPort(), f.DstPort())
	}
}

func TestChecksumValidAndUpdates(t *testing.T) {
	raw := buildFrame(t, defaultCfg())
	f, _ := Parse(raw)
	if got, want := ipChecksum(f), f.ComputeIPChecksum(); got != want {
		t.Errorf("built checksum %#x, recomputed %#x", got, want)
	}
	before := ipChecksum(f)
	copy(f.raw[EtherLen+16:EtherLen+20], []byte{1, 2, 3, 4})
	if f.ComputeIPChecksum() == before {
		t.Error("checksum unchanged after header mutation")
	}
}

func TestDecTTL(t *testing.T) {
	raw := buildFrame(t, defaultCfg())
	f, _ := Parse(raw)
	ttl := f.TTL()
	f.DecTTL()
	if f.TTL() != ttl-1 {
		t.Errorf("TTL %d after DecTTL from %d", f.TTL(), ttl)
	}
	if ipChecksum(f) != f.ComputeIPChecksum() {
		t.Error("checksum stale after DecTTL")
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse(make([]byte, 10)); err == nil {
		t.Error("short frame accepted")
	}
	raw := buildFrame(t, defaultCfg())
	raw[12], raw[13] = 0x86, 0xDD // IPv6 ethertype
	if _, err := Parse(raw); err != ErrNotIPv4 {
		t.Errorf("non-IPv4: %v", err)
	}
}

func TestBuildBufferTooSmall(t *testing.T) {
	if _, err := Build(make([]byte, 16), defaultCfg()); err == nil {
		t.Error("tiny buffer accepted")
	}
}

func TestTuple(t *testing.T) {
	raw := buildFrame(t, defaultCfg())
	f, _ := Parse(raw)
	tup := f.Tuple()
	want := FiveTuple{Src: IPv4{10, 1, 2, 3}, Dst: IPv4{192, 168, 4, 5}, SrcPort: 1234, DstPort: 80, Proto: ProtoUDP}
	if tup != want {
		t.Errorf("tuple %v", tup)
	}
	if tup.String() == "" {
		t.Error("empty tuple string")
	}
}

func TestIPv4Uint32RoundTrip(t *testing.T) {
	err := quick.Check(func(v uint32) bool {
		var ip IPv4
		binary.BigEndian.PutUint32(ip[:], v)
		return ip.Uint32() == v
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestMACAndIPStrings(t *testing.T) {
	if s := (MAC{0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01}).String(); s != "de:ad:be:ef:00:01" {
		t.Errorf("mac string %q", s)
	}
	if s := (IPv4{10, 0, 0, 1}).String(); s != "10.0.0.1" {
		t.Errorf("ip string %q", s)
	}
}

// TestQuickBuildParse round-trips arbitrary payloads and addresses.
func TestQuickBuildParse(t *testing.T) {
	f := func(src, dst [4]byte, sport, dport uint16, tcp bool, payload []byte) bool {
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		cfg := BuildConfig{
			SrcIP: IPv4(src), DstIP: IPv4(dst),
			SrcPort: sport, DstPort: dport,
			Proto:   ProtoUDP,
			Payload: payload,
		}
		if tcp {
			cfg.Proto = ProtoTCP
		}
		buf := make([]byte, 2048)
		n, err := Build(buf, cfg)
		if err != nil {
			return false
		}
		fr, err := Parse(buf[:n])
		if err != nil {
			return false
		}
		return fr.SrcIP() == cfg.SrcIP &&
			fr.DstIP() == cfg.DstIP &&
			fr.SrcPort() == sport &&
			fr.DstPort() == dport &&
			bytes.Equal(fr.Payload(), payload) &&
			ipChecksum(fr) == fr.ComputeIPChecksum()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
