package netdev

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/opencloudnext/dhl-go/internal/eth"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/mbuf"
)

func TestGeneratorFlowValidation(t *testing.T) {
	sim, pool, p := newRig(t, 10e9, 1)
	base := GeneratorConfig{Port: p, Pool: pool, FrameSize: 64, OfferedWireBps: 1e9}

	cfg := base
	cfg.Flows = -1
	if _, err := NewGenerator(sim, cfg); !errors.Is(err, ErrBadFlows) {
		t.Errorf("negative Flows: %v, want ErrBadFlows", err)
	}
	cfg = base
	cfg.Flows = MaxFlows + 1
	if _, err := NewGenerator(sim, cfg); !errors.Is(err, ErrBadFlows) {
		t.Errorf("unrepresentable Flows: %v, want ErrBadFlows", err)
	}
	cfg = base
	cfg.ZipfSkew = 0.5
	if _, err := NewGenerator(sim, cfg); !errors.Is(err, ErrBadZipfSkew) {
		t.Errorf("skew in (0,1]: %v, want ErrBadZipfSkew", err)
	}
	cfg = base
	cfg.ChurnPerSec = -1
	if _, err := NewGenerator(sim, cfg); !errors.Is(err, ErrBadChurnCfg) {
		t.Errorf("negative churn: %v, want ErrBadChurnCfg", err)
	}
	cfg = base
	cfg.ChurnPerSec = 100
	cfg.Flows = maxChurnFlows * 2
	if _, err := NewGenerator(sim, cfg); !errors.Is(err, ErrBadChurnCfg) {
		t.Errorf("churn over huge flow set: %v, want ErrBadChurnCfg", err)
	}
}

// TestFlowSrcInjective pins the satellite fix: the flow encoding must
// not fold ids into 16 bits. Distinct ids anywhere in [0, MaxFlows)
// produce distinct (SrcIP, SrcPort) pairs, including ids that the old
// encoding (low 16 bits of SrcIP only) collided.
func TestFlowSrcInjective(t *testing.T) {
	seen := map[uint64]uint64{}
	ids := []uint64{0, 1, 65535, 65536, 65537, 1 << 20, 1<<20 + 65536,
		1 << 24, 1<<24 + 1, 1 << 39, MaxFlows - 1}
	// The old encoding mapped id and id+65536 to the same tuple; add a
	// dense run straddling that boundary.
	for id := uint64(65500); id < 65600; id++ {
		ids = append(ids, id, id+65536)
	}
	for _, id := range ids {
		ip, port := FlowSrc(id)
		key := uint64(ip.Uint32())<<16 | uint64(port)
		if prev, dup := seen[key]; dup && prev != id {
			t.Fatalf("FlowSrc collision: ids %d and %d -> %v:%d", prev, id, ip, port)
		}
		seen[key] = id
		if ip[0] != 10 {
			t.Fatalf("FlowSrc(%d) left the 10/8 test net: %v", id, ip)
		}
	}
}

// TestGeneratorFlowsBeyond16Bits runs the generator with a flow space
// larger than the old 65536 cap and verifies emitted tuples actually
// exceed it (distinct beyond what 16 bits could carry).
func TestGeneratorFlowsBeyond16Bits(t *testing.T) {
	sim := eventsim.New()
	pool, err := mbuf.NewPool(mbuf.PoolConfig{Name: "netdev", Capacity: 8192})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPort(sim, PortConfig{ID: 0, RateBps: 100e9, RxQueues: 2})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewGenerator(sim, GeneratorConfig{
		Port: p, Pool: pool, FrameSize: 64, OfferedWireBps: 100e9,
		Burst: 256, Flows: 1 << 22,
	})
	if err != nil {
		t.Fatal(err)
	}
	tuples := map[uint64]bool{}
	drain := func() {
		buf := make([]*mbuf.Mbuf, 256)
		for q := 0; q < 2; q++ {
			for {
				n := p.RxBurst(q, buf)
				if n == 0 {
					break
				}
				for i := 0; i < n; i++ {
					f, perr := eth.Parse(buf[i].Data())
					if perr != nil {
						t.Fatalf("bad frame: %v", perr)
					}
					tuples[uint64(f.SrcIP().Uint32())<<16|uint64(f.SrcPort())] = true
					_ = pool.Free(buf[i])
				}
			}
		}
	}
	gen.Start()
	for sim.Now() < 100*eventsim.Microsecond {
		sim.Run(sim.Now() + eventsim.Microsecond)
		drain()
	}
	gen.Stop()
	sim.RunAll()
	drain()
	if gen.Sent() < 10000 {
		t.Fatalf("only %d frames emitted", gen.Sent())
	}
	// With 4M flows and >10k uniform samples, collisions are rare: the
	// distinct-tuple count must clear 90% of frames — far beyond any
	// 16-bit (65536) flow space at these sample sizes, and impossible
	// if ids were truncated.
	if got, sent := len(tuples), int(gen.Sent()); got < sent*9/10 {
		t.Errorf("%d distinct tuples from %d frames; flow space looks truncated", got, sent)
	}
	if pool.InUse() != 0 {
		t.Errorf("%d mbufs leaked", pool.InUse())
	}
}

func TestGeneratorZipfSkew(t *testing.T) {
	sim := eventsim.New()
	pool, err := mbuf.NewPool(mbuf.PoolConfig{Name: "netdev", Capacity: 8192})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPort(sim, PortConfig{ID: 0, RateBps: 100e9, RxQueues: 1})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewGenerator(sim, GeneratorConfig{
		Port: p, Pool: pool, FrameSize: 64, OfferedWireBps: 100e9,
		Burst: 256, Flows: 1 << 16, ZipfSkew: 1.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[eth.IPv4]int{}
	total := 0
	buf := make([]*mbuf.Mbuf, 256)
	drain := func() {
		for {
			n := p.RxBurst(0, buf)
			if n == 0 {
				return
			}
			for i := 0; i < n; i++ {
				f, _ := eth.Parse(buf[i].Data())
				counts[f.SrcIP()]++
				total++
				_ = pool.Free(buf[i])
			}
		}
	}
	gen.Start()
	for sim.Now() < 100*eventsim.Microsecond {
		sim.Run(sim.Now() + eventsim.Microsecond)
		drain()
	}
	gen.Stop()
	sim.RunAll()
	drain()
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	// Zipf s=1.5: the hottest flow should carry a large share; uniform
	// over 65536 flows would put ~total/65536 on each.
	if max < total/10 {
		t.Errorf("hottest flow carried %d of %d packets; distribution looks uniform", max, total)
	}
	if len(counts) < 10 {
		t.Errorf("only %d distinct flows seen; tail missing", len(counts))
	}
}

func TestGeneratorChurn(t *testing.T) {
	sim := eventsim.New()
	pool, err := mbuf.NewPool(mbuf.PoolConfig{Name: "netdev", Capacity: 8192})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPort(sim, PortConfig{ID: 0, RateBps: 10e9, RxQueues: 1})
	if err != nil {
		t.Fatal(err)
	}
	var died []uint64
	gen, err := NewGenerator(sim, GeneratorConfig{
		Port: p, Pool: pool, FrameSize: 64, OfferedWireBps: 1e9,
		Flows: 128, ChurnPerSec: 1e6,
		OnFlowDeath: func(id uint64) { died = append(died, id) },
	})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]*mbuf.Mbuf, 256)
	gen.Start()
	for sim.Now() < eventsim.Millisecond {
		sim.Run(sim.Now() + 10*eventsim.Microsecond)
		for {
			n := p.RxBurst(0, buf)
			if n == 0 {
				break
			}
			for i := 0; i < n; i++ {
				_ = pool.Free(buf[i])
			}
		}
	}
	gen.Stop()
	sim.RunAll()
	// 1M churn/s over 1ms of virtual time = ~1000 replacements.
	if gen.Deaths() < 900 || gen.Deaths() > 1100 {
		t.Errorf("deaths = %d, want ~1000", gen.Deaths())
	}
	if gen.Births() != gen.Deaths() {
		t.Errorf("births %d != deaths %d", gen.Births(), gen.Deaths())
	}
	if uint64(len(died)) != gen.Deaths() {
		t.Errorf("OnFlowDeath saw %d, counter says %d", len(died), gen.Deaths())
	}
	// Live set stays at Flows, every live id unique, none retired twice.
	deadSet := map[uint64]int{}
	for _, id := range died {
		deadSet[id]++
		if deadSet[id] > 1 {
			t.Fatalf("flow %d retired twice", id)
		}
	}
	live := map[uint64]bool{}
	for _, id := range gen.flowIDs {
		if live[id] {
			t.Fatalf("duplicate live flow %d", id)
		}
		if deadSet[id] > 0 {
			t.Fatalf("retired flow %d still live", id)
		}
		live[id] = true
	}
	if len(live) != 128 {
		t.Errorf("live set %d, want 128", len(live))
	}
}

// TestSetOfferedWireBps retargets a running generator and verifies the
// emitted frame rate actually follows: halving the offered load halves
// the deliveries per unit time.
func TestSetOfferedWireBps(t *testing.T) {
	sim, pool, p := newRig(t, 40e9, 1)
	g, err := NewGenerator(sim, GeneratorConfig{
		Port: p, Pool: pool, FrameSize: 1024, OfferedWireBps: 8e9})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetOfferedWireBps(0); !errors.Is(err, ErrBadRateCfg) {
		t.Errorf("zero rate accepted: %v", err)
	}
	if err := g.SetOfferedWireBps(100e9); err != nil {
		t.Fatal(err)
	}
	if got := g.cfg.OfferedWireBps; got != 40e9 {
		t.Errorf("rate not capped at line rate: %g", got)
	}
	drain := func() {
		buf := make([]*mbuf.Mbuf, 64)
		for {
			n := p.RxBurst(0, buf)
			if n == 0 {
				return
			}
			for _, m := range buf[:n] {
				_ = pool.Free(m)
			}
		}
	}
	if err := g.SetOfferedWireBps(8e9); err != nil {
		t.Fatal(err)
	}
	g.Start()
	sim.Run(sim.Now() + eventsim.Millisecond)
	drain()
	atPeak := g.Sent()
	if err := g.SetOfferedWireBps(2e9); err != nil {
		t.Fatal(err)
	}
	sim.Run(sim.Now() + eventsim.Millisecond)
	drain()
	atTrough := g.Sent() - atPeak
	g.Stop()
	if atPeak == 0 || atTrough == 0 {
		t.Fatalf("no traffic: peak %d trough %d", atPeak, atTrough)
	}
	ratio := float64(atPeak) / float64(atTrough)
	if ratio < 3 || ratio > 5 {
		t.Fatalf("peak/trough frame ratio %.2f, want ~4 after a 8->2 Gbps retarget", ratio)
	}
}

// TestGeneratorDeliversInScheduleOrder checks the premise the pending-
// frame FIFO rests on: the k-th frame a generator schedules is the k-th
// it delivers, on the queue its own flow hashes to and at the instant it
// was due — at line rate, where the next burst starts the moment the
// last one ends, across retargets in both directions, and across a
// Stop/Start that lands in the middle of a burst.
func TestGeneratorDeliversInScheduleOrder(t *testing.T) {
	const queues, frameSize, burst = 4, 64, 8
	sim, pool, p := newRig(t, 10e9, queues)
	frameWire := p.wireTime(frameSize)

	// due[i] is when frame i should land: one frame time after the one
	// before it in its burst, and never before a frame scheduled earlier
	// (the wire is serial). The frames of each burst are read off pend
	// right after it ran; Payload, which runs when the port takes a
	// frame, tags it with its ordinal.
	var due []eventsim.Time
	var lastDue eventsim.Time
	g, err := NewGenerator(sim, GeneratorConfig{
		Port: p, Pool: pool, FrameSize: frameSize, OfferedWireBps: 10e9, Burst: burst,
		Payload: func(i uint64, payload []byte) {
			if i >= uint64(len(due)) || sim.Now() != due[i] {
				t.Fatalf("frame %d written at %d, not at its due instant", i, sim.Now())
			}
			payload[0], payload[1], payload[2] = byte(i>>16), byte(i>>8), byte(i)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	burstFn := g.burstFn
	g.burstFn = func() {
		burstFn()
		inBurst := 0
		for _, f := range g.pend[g.head:] {
			if f.ord < uint64(len(due)) {
				continue
			}
			if f.ord != uint64(len(due)) {
				t.Fatalf("frame %d queued after %d others", f.ord, len(due))
			}
			lastDue = max(lastDue, sim.Now()+eventsim.Time(inBurst)*frameWire)
			if f.due != lastDue {
				t.Fatalf("frame %d queued due at %d, want %d", f.ord, f.due, lastDue)
			}
			due = append(due, lastDue)
			inBurst++
		}
	}

	// Step well under one frame time, so that frames due at different
	// instants land in different steps. What lands within one step must
	// be the next frames in scheduling order, in order on each queue.
	step := frameWire / 4
	next := 0
	buf := make([]*mbuf.Mbuf, 2*burst)
	var landed []int
	run := func(d eventsim.Time) {
		t.Helper()
		for end := sim.Now() + d; sim.Now() < end; {
			from := sim.Now()
			sim.Run(from + step)
			landed = landed[:0]
			for q := 0; q < queues; q++ {
				last := -1
				n := p.RxBurst(q, buf)
				for _, m := range buf[:n] {
					frame, perr := eth.Parse(m.Data())
					if perr != nil {
						t.Fatal(perr)
					}
					pl := m.Data()[eth.EtherLen+eth.IPv4Len+eth.UDPLen:]
					i := int(pl[0])<<16 | int(pl[1])<<8 | int(pl[2])
					if i <= last {
						t.Fatalf("queue %d: frame %d landed after frame %d", q, i, last)
					}
					last = i
					ip := frame.SrcIP()
					flow := uint64(ip[1])<<16 | uint64(ip[2])<<8 | uint64(ip[3])
					if want := int(mix64(flow) % queues); q != want {
						t.Fatalf("frame %d (flow %d) landed on queue %d, want %d", i, flow, q, want)
					}
					if at := due[i]; at < from || at > sim.Now() {
						t.Fatalf("frame %d due at %d landed in [%d, %d]", i, at, from, sim.Now())
					}
					landed = append(landed, i)
					if err := pool.Free(m); err != nil {
						t.Fatal(err)
					}
				}
			}
			sort.Ints(landed)
			for _, i := range landed {
				if i != next {
					t.Fatalf("delivery %d carried frame %d", next, i)
				}
				next++
			}
		}
	}

	g.Start()
	run(20 * eventsim.Microsecond) // line rate: bursts back to back
	if err := g.SetOfferedWireBps(3e9); err != nil {
		t.Fatal(err)
	}
	run(20 * eventsim.Microsecond)
	if err := g.SetOfferedWireBps(10e9); err != nil {
		t.Fatal(err)
	}
	run(20 * eventsim.Microsecond)

	// Stop and Start again with most of a burst still on the wire: the
	// new burst queues behind it instead of overtaking it.
	g.Stop()
	run(eventsim.Microsecond)
	if err := g.SetOfferedWireBps(1e9); err != nil {
		t.Fatal(err)
	}
	g.Start()
	run(2 * frameWire)
	if len(g.pend)-g.head < burst/2 {
		t.Fatalf("only %d frames in flight; the restart below would not overlap a burst", len(g.pend)-g.head)
	}
	g.Stop()
	g.Start()
	run(20 * eventsim.Microsecond)

	g.Stop()
	run(eventsim.Microsecond)
	if next == 0 || next != int(g.Sent()) || len(g.pend) != 0 || g.head != 0 {
		t.Fatalf("delivered %d of %d frames, %d still pending", next, g.Sent(), len(g.pend)-g.head)
	}
	if dropped := p.Stats().RxDropped; dropped != 0 {
		t.Fatalf("%d frames dropped on full queues; the order check needs them all", dropped)
	}
}

// TestGeneratorsShareInstantsInReferenceOrder runs two generators on one
// port whose frames fall due at shared instants, through a Stop/Start that
// runs one of them on two burst chains. The reference books every frame at
// burst time, as At would have: right after each burst, the frames it put
// on the wire are read off pend with the (due, seq) pair burst drew, and
// the reference delivers all frames in (due, seq) order, the event heap's.
// Payload, which runs as the port takes a frame, finds it at its due
// instant with every frame it saw before delivered; a check one
// picosecond later finds it delivered; the port's one queue and the order
// of Payload's calls give the deliveries' order. The event heap holds one
// delivery per generator with frames on the wire, never more.
func TestGeneratorsShareInstantsInReferenceOrder(t *testing.T) {
	const frameSize = 64
	sim, pool, p := newRig(t, 10e9, 1)
	frameWire := p.wireTime(frameSize)

	type booking struct {
		id  uint32 // gen<<16 | ordinal
		due eventsim.Time
		seq uint64
	}
	var gens [2]*Generator
	var ref []booking         // every frame, in booking order
	var order []uint32        // frames in the order Payload saw them
	place := map[uint32]int{} // each frame's index in order
	dueOf := map[uint32]eventsim.Time{}
	dueBy := map[eventsim.Time]int{} // which generators have a frame due at an instant, as bits
	heapOK := func() {
		t.Helper()
		want := 0
		for _, g := range gens {
			if len(g.pend) > g.head {
				want++
			}
		}
		if got := heapDeliveries(sim, gens[0].deliverFn); got != want {
			t.Fatalf("at %d: %d deliveries on the heap for %d generators with frames on the wire", sim.Now(), got, want)
		}
	}
	payload := func(gen int) PayloadFn {
		return func(i uint64, payload []byte) {
			id := uint32(gen)<<16 | uint32(i)
			if due, ok := dueOf[id]; !ok || sim.Now() != due {
				t.Fatalf("frame %#x written at %d, due %d (booked %v)", id, sim.Now(), due, ok)
			}
			if got := p.Stats().RxDelivered; got != uint64(len(order)) {
				t.Fatalf("at %d, before frame %#x: %d frames delivered, want %d", sim.Now(), id, got, len(order))
			}
			heapOK()
			place[id] = len(order)
			order = append(order, id)
			payload[0], payload[1], payload[2] = byte(id>>16), byte(id>>8), byte(id)
		}
	}
	book := func(gen int, g *Generator) {
		burstFn := g.burstFn
		var booked uint64
		g.burstFn = func() {
			burstFn()
			for _, f := range g.pend[g.head:] {
				if f.ord < booked {
					continue
				}
				booked = f.ord + 1
				id := uint32(gen)<<16 | uint32(f.ord)
				dueOf[id] = f.due
				dueBy[f.due] |= 1 << gen
				ref = append(ref, booking{id: id, due: f.due, seq: f.seq})
				sim.At(f.due+1, func() {
					if i, ok := place[id]; !ok || p.Stats().RxDelivered <= uint64(i) {
						t.Fatalf("at %d: frame %#x due at %d not delivered", sim.Now(), id, f.due)
					}
					heapOK()
				})
			}
			heapOK()
		}
	}
	for i, cfg := range []struct {
		bps   float64
		burst int
	}{{10e9, 8}, {5e9, 12}} {
		g, err := NewGenerator(sim, GeneratorConfig{
			Port: p, Pool: pool, FrameSize: frameSize, OfferedWireBps: cfg.bps, Burst: cfg.burst,
			Payload: payload(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		book(i, g)
		gens[i] = g
	}

	// Generator 1 starts three frame times in: its 12-frame bursts overlap
	// two of generator 0's 8-frame ones, drawn before the second of them.
	gens[0].Start()
	sim.At(3*frameWire, gens[1].Start)
	// Halfway through a burst, generator 0 stops and starts again: the new
	// burst queues behind the frames still on the wire, and the old burst
	// chain keeps running beside the new one.
	sim.At(20*frameWire+frameWire/2, func() {
		gens[0].Stop()
		gens[0].Start()
	})
	sim.At(60*frameWire, func() { gens[0].Stop(); gens[1].Stop() })
	sim.Run(100 * frameWire)

	checked := len(order)
	if checked == 0 || len(ref) != checked || uint64(checked) != gens[0].Sent()+gens[1].Sent() {
		t.Fatalf("booked %d frames, wrote %d, %d sent", len(ref), checked, gens[0].Sent()+gens[1].Sent())
	}
	if st := p.Stats(); st.RxDelivered != uint64(checked) || st.RxDropped != 0 {
		t.Fatalf("port delivered %d, dropped %d of %d frames", st.RxDelivered, st.RxDropped, checked)
	}
	sort.SliceStable(ref, func(a, b int) bool {
		if ref[a].due != ref[b].due {
			return ref[a].due < ref[b].due
		}
		return ref[a].seq < ref[b].seq
	})
	for j, b := range ref {
		if order[j] != b.id {
			t.Fatalf("delivery %d wrote frame %#x, the reference delivers %#x (due %d, seq %d)", j, order[j], b.id, b.due, b.seq)
		}
	}
	shared := 0
	for _, bits := range dueBy {
		if bits == 3 {
			shared++
		}
	}
	if shared < 10 {
		t.Fatalf("the generators share %d due instants; the test needs them to share many", shared)
	}
	buf := make([]*mbuf.Mbuf, 32)
	for j := 0; j < checked; {
		n := p.RxBurst(0, buf)
		if n == 0 {
			t.Fatalf("queue empty after %d of %d frames", j, checked)
		}
		for _, m := range buf[:n] {
			pl := m.Data()[eth.EtherLen+eth.IPv4Len+eth.UDPLen:]
			if id := uint32(pl[0])<<16 | uint32(pl[1])<<8 | uint32(pl[2]); id != order[j] {
				t.Fatalf("delivery %d carried frame %#x, the reference delivers %#x", j, id, order[j])
			}
			j++
			if err := pool.Free(m); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// heapDeliveries counts the events on sim's heap that run deliver's
// method, of any generator. eventsim exports no view of its heap, so it
// reads the unexported one (Sim.events, event.fn) by reflection; a method
// value's code pointer is the same for every receiver.
func heapDeliveries(sim *eventsim.Sim, deliver func()) int {
	want := reflect.ValueOf(deliver).Pointer()
	h := reflect.ValueOf(sim).Elem().FieldByName("events")
	n := 0
	for i := 0; i < h.Len(); i++ {
		if h.Index(i).FieldByName("fn").Pointer() == want {
			n++
		}
	}
	return n
}

// fullBuild is the frame the generator delivers as ordinal ord of flow,
// constructed the way it once was at burst time: the whole template
// through eth.Build, then the flow's source address and port, the header
// checksum computed over the finished header, and the payload.
func fullBuild(t testing.TB, frameSize int, proto uint8, flow, ord uint64, fill PayloadFn) []byte {
	t.Helper()
	l4Len := eth.UDPLen
	if proto == eth.ProtoTCP {
		l4Len = eth.TCPLen
	}
	raw := make([]byte, frameSize)
	if _, err := eth.Build(raw, eth.BuildConfig{
		SrcMAC:  eth.MAC{0x02, 0, 0, 0, 0, 1},
		DstMAC:  eth.MAC{0x02, 0, 0, 0, 0, 2},
		SrcIP:   eth.IPv4{10, 0, 0, 1},
		DstIP:   eth.IPv4{192, 168, 0, 1},
		SrcPort: 1024,
		DstPort: 80,
		Proto:   proto,
		Payload: make([]byte, frameSize-eth.EtherLen-eth.IPv4Len-l4Len),
	}); err != nil {
		t.Fatal(err)
	}
	frame, err := eth.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	ip, port := FlowSrc(flow)
	frame.SetSrcIP(ip)
	l4 := frame.L4()
	l4[0], l4[1] = byte(port>>8), byte(port)
	frame.SetIPChecksum(frame.ComputeIPChecksum())
	fill(ord, raw[eth.EtherLen+eth.IPv4Len+l4Len:])
	return raw
}

// ordinalPayload writes the ordinal big-endian into the first eight
// payload bytes (as many as fit) and a pattern of it after them.
func ordinalPayload(i uint64, payload []byte) {
	var be [8]byte
	binary.BigEndian.PutUint64(be[:], i)
	n := copy(payload, be[:])
	for j := range payload[n:] {
		payload[n+j] = byte(i*31) + byte(j)
	}
}

// checkFullBuild runs a generator whose flows are exactly ids until every
// id has been delivered at least once, and holds every delivered frame to
// fullBuild of the flow and ordinal burst queued it with.
func checkFullBuild(t testing.TB, frameSize int, proto uint8, ids []uint64) {
	t.Helper()
	sim := eventsim.New()
	pool, err := mbuf.NewPool(mbuf.PoolConfig{Name: "netdev", Capacity: 256})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPort(sim, PortConfig{ID: 3, RateBps: 10e9, RxQueues: 2})
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(sim, GeneratorConfig{
		Port: p, Pool: pool, FrameSize: frameSize, OfferedWireBps: 10e9, Burst: 16,
		Flows: len(ids), Proto: proto, Payload: ordinalPayload,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Slot i of the live set holds ids[i], as churn would leave it.
	g.flowIDs = ids
	flowOf := map[uint64]uint64{}
	burstFn := g.burstFn
	g.burstFn = func() {
		burstFn()
		for _, f := range g.pend[g.head:] {
			flowOf[f.ord] = f.flow
		}
	}
	payloadOff := eth.EtherLen + eth.IPv4Len + eth.UDPLen
	if proto == eth.ProtoTCP {
		payloadOff = eth.EtherLen + eth.IPv4Len + eth.TCPLen
	}
	seen := map[uint64]bool{}
	buf := make([]*mbuf.Mbuf, 64)
	g.Start()
	for steps := 0; len(seen) < len(ids); steps++ {
		if steps == 1000 {
			t.Fatalf("%d of %d flows delivered after %d frames", len(seen), len(ids), g.Sent())
		}
		sim.Run(sim.Now() + eventsim.Microsecond)
		for q := 0; q < p.Queues(); q++ {
			n := p.RxBurst(q, buf)
			for _, m := range buf[:n] {
				ord := binary.BigEndian.Uint64(m.Data()[payloadOff:])
				flow, ok := flowOf[ord]
				if !ok {
					t.Fatalf("delivered frame %d was never queued", ord)
				}
				if want := fullBuild(t, frameSize, proto, flow, ord, ordinalPayload); !bytes.Equal(m.Data(), want) {
					t.Fatalf("frame %d of flow %#x:\n got %x\nwant %x", ord, flow, m.Data(), want)
				}
				if m.Port != 3 || m.RxTimestamp != 0 {
					t.Fatalf("frame %d: port %d, rx timestamp %d", ord, m.Port, m.RxTimestamp)
				}
				seen[flow] = true
				if err := pool.Free(m); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	g.Stop()
	if d := p.Stats().RxDropped; d != 0 {
		t.Fatalf("%d frames dropped; every frame should have been compared", d)
	}
}

// TestGeneratorFrameMatchesFullBuild holds the frame written at delivery,
// with its header checksum from the template's precomputed sum, to the
// frame built whole: at the edges of the flow encoding (the address
// wrapping into the port at 2^24, the last representable flow) and over a
// seeded sweep, for UDP and TCP, at the smallest and largest frame.
func TestGeneratorFrameMatchesFullBuild(t *testing.T) {
	edges := []uint64{0, 1, 1<<24 - 1, 1 << 24, MaxFlows - 1}
	rng := rand.New(rand.NewSource(7))
	sweep := make([]uint64, 64)
	for i := range sweep {
		sweep[i] = uint64(rng.Int63n(MaxFlows))
	}
	for _, proto := range []uint8{eth.ProtoUDP, eth.ProtoTCP} {
		for _, size := range []int{64, 1500} {
			checkFullBuild(t, size, proto, edges)
			checkFullBuild(t, size, proto, sweep)
		}
	}
}

func FuzzGeneratorFrameMatchesFullBuild(f *testing.F) {
	for _, id := range []uint64{0, 1, 1<<24 - 1, 1 << 24, MaxFlows - 1} {
		f.Add(id, uint16(64), false)
	}
	f.Fuzz(func(t *testing.T, id uint64, size uint16, tcp bool) {
		proto := uint8(eth.ProtoUDP)
		if tcp {
			proto = eth.ProtoTCP
		}
		checkFullBuild(t, 64+int(size)%(1500-64+1), proto, []uint64{id % MaxFlows})
	})
}

// TestGeneratorDropsUnbuiltOnFullQueue: a frame that finds its RX queue
// full is dropped as a NIC without a free descriptor drops it, before any
// of it is written — Payload never sees it — and its mbuf goes back to
// the pool at the instant of the drop.
func TestGeneratorDropsUnbuiltOnFullQueue(t *testing.T) {
	sim := eventsim.New()
	pool, err := mbuf.NewPool(mbuf.PoolConfig{Name: "netdev", Capacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	// One descriptor, and nobody polls it.
	p, err := NewPort(sim, PortConfig{ID: 0, RateBps: 10e9, RxQueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	var written []uint64
	g, err := NewGenerator(sim, GeneratorConfig{
		Port: p, Pool: pool, FrameSize: 256, OfferedWireBps: 10e9, Burst: 8,
		Payload: func(i uint64, payload []byte) { written = append(written, i) },
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	sim.Run(20 * eventsim.Microsecond)
	g.Stop()
	sim.RunAll()

	sent, st := g.Sent(), p.Stats()
	if sent < 2*8 || g.AllocFailures() != 0 {
		t.Fatalf("%d frames sent, %d allocation failures", sent, g.AllocFailures())
	}
	if st.RxDelivered != 1 || st.RxDropped != sent-1 {
		t.Fatalf("%d delivered, %d dropped of %d sent; want 1 and the rest", st.RxDelivered, st.RxDropped, sent)
	}
	if len(written) != 1 || written[0] != 0 {
		t.Fatalf("Payload ran for frames %v; want only frame 0, the one the queue took", written)
	}
	if got := pool.Available(); got != pool.Capacity()-1 {
		t.Fatalf("%d of %d mbufs free with one frame queued", got, pool.Capacity())
	}
	buf := make([]*mbuf.Mbuf, 4)
	if n := p.RxBurst(0, buf); n != 1 {
		t.Fatalf("drained %d frames, want 1", n)
	}
	if err := pool.Free(buf[0]); err != nil {
		t.Fatal(err)
	}
	if got := pool.Available(); got != pool.Capacity() {
		t.Fatalf("%d of %d mbufs free after the drain", got, pool.Capacity())
	}
}
