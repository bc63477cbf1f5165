package main

import (
	"errors"
	"fmt"
	"math/rand"

	dhl "github.com/opencloudnext/dhl-go"
	"github.com/opencloudnext/dhl-go/internal/acmatch"
	"github.com/opencloudnext/dhl-go/internal/dhlproto"
	"github.com/opencloudnext/dhl-go/internal/eth"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/flowtab"
	"github.com/opencloudnext/dhl-go/internal/fpga"
	"github.com/opencloudnext/dhl-go/internal/hwfunc"
	"github.com/opencloudnext/dhl-go/internal/mbuf"
	"github.com/opencloudnext/dhl-go/internal/netdev"
	"github.com/opencloudnext/dhl-go/internal/nf"
	"github.com/opencloudnext/dhl-go/internal/pcie"
	"github.com/opencloudnext/dhl-go/internal/perf"
	"github.com/opencloudnext/dhl-go/internal/ring"
	"github.com/opencloudnext/dhl-go/internal/swcrypto"
	"github.com/opencloudnext/dhl-go/internal/telemetry"
)

// batchBytes is the paper's transfer batch: what the Packer fills and
// every module, DMA and Dispatcher call in a DHL workload is handed.
const batchBytes = 6144

// layerProbes times each data-path layer from outside: every probe
// calls the layer's exported functions on input shaped like the
// workloads' (frame sizes, batch size, flow population, pattern
// density) and generated from the seed, and records its rounds as
// spans. Control-plane packages (ctlplane, placement, faultinject,
// lint) are off the data path and deliberately unmeasured.
func layerProbes(c *runCtx) error {
	rng := rand.New(rand.NewSource(c.o.seed))
	ops := 100_000
	tableFill := fwFlows
	if c.o.smoke {
		ops, tableFill = 1000, 10_000
	}
	for _, probe := range []func(*runCtx, *rand.Rand, int) error{
		probeEventsim, probeRingMbufEth, probeNetdev, probeDhlproto,
		probePCIeFPGA, probeCrypto, probeMatching, probeNFs,
	} {
		if err := probe(c, rng, ops); err != nil {
			return err
		}
	}
	if err := probeFlowtab(c, rng, ops, tableFill); err != nil {
		return err
	}
	reg := telemetry.New(0)
	c.tr.probe("telemetry", "observe_ns", ops, func() {
		for i := 0; i < ops; i++ {
			reg.ObserveStage(telemetry.StagePack, eventsim.Time(i)*eventsim.Nanosecond)
		}
	})
	return nil
}

// frameOf builds a UDP frame of the given size the way netdev.Generator
// does (same MACs, destination, FlowSrc source encoding) with a seeded
// payload.
func frameOf(rng *rand.Rand, size int, flow uint64) ([]byte, error) {
	payload := make([]byte, size-eth.EtherLen-eth.IPv4Len-eth.UDPLen)
	rng.Read(payload)
	src, port := netdev.FlowSrc(flow)
	buf := make([]byte, size)
	_, err := eth.Build(buf, eth.BuildConfig{
		SrcMAC: eth.MAC{0x02, 0, 0, 0, 0, 1}, DstMAC: eth.MAC{0x02, 0, 0, 0, 0, 2},
		SrcIP: src, DstIP: eth.IPv4{192, 168, 0, 1}, SrcPort: port, DstPort: 80,
		Payload: payload,
	})
	return buf, err
}

// fullBatch encodes copies of payload into one 6 KB batch until the
// next would not fit, returning the batch and its record count.
func fullBatch(payload []byte) ([]byte, int) {
	batch := make([]byte, 0, batchBytes)
	n := 0
	for {
		next, err := dhlproto.AppendRecordFit(batch, 1, 1, payload)
		if err != nil {
			return batch, n
		}
		batch = next
		n++
	}
}

func probeEventsim(c *runCtx, _ *rand.Rand, ops int) error {
	// One self-rescheduling event above 1 k events parked in the far
	// future: the heap depth a busy testbed runs at.
	sim := eventsim.New()
	for i := 0; i < 1000; i++ {
		sim.At(eventsim.Time(1<<50)+eventsim.Time(i), func() {})
	}
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < ops {
			sim.After(eventsim.Nanosecond, tick)
		}
	}
	c.tr.probe("eventsim", "event_ns", ops, func() {
		n = 0
		sim.After(0, tick)
		sim.Run(sim.Now() + eventsim.Time(ops+1)*eventsim.Nanosecond)
	})

	idleSim := eventsim.New()
	core := eventsim.NewCore(idleSim, 0, 0, perf.TestbedCoreHz)
	loop := eventsim.NewPollLoop(idleSim, core, perf.PollIdleCycles, func() (float64, func()) { return 0, nil })
	loop.Start()
	idle := core.CycleTime(perf.PollIdleCycles)
	c.tr.probe("eventsim", "idle_iter_ns", ops, func() {
		idleSim.Run(idleSim.Now() + eventsim.Time(ops)*idle)
	})
	loop.Stop()

	timerSim := eventsim.New()
	timer := timerSim.NewTimer(func() {})
	c.tr.probe("eventsim", "timer_reset_ns", ops, func() {
		for i := 0; i < ops; i++ {
			timer.Reset(2 * eventsim.Nanosecond)
			timerSim.Run(timerSim.Now() + eventsim.Nanosecond)
		}
	})
	timer.Stop()
	return nil
}

func probeRingMbufEth(c *runCtx, rng *rand.Rand, ops int) error {
	pool, err := mbuf.NewPool(mbuf.PoolConfig{Name: "bench-probe", Capacity: 64})
	if err != nil {
		return err
	}
	burst := make([]*mbuf.Mbuf, 32)
	if err := pool.AllocBulk(burst); err != nil {
		return err
	}
	out := make([]*mbuf.Mbuf, 32)
	for _, r := range []struct {
		op   string
		mode ring.SyncMode
	}{
		{"burst32_ns_per_pkt", ring.SingleProducerConsumer},
		{"mp_burst32_ns_per_pkt", ring.SingleConsumer}, // the shared IBQ: many NFs in, one TX core out
	} {
		q, rerr := ring.New[*mbuf.Mbuf]("bench-probe", 512, r.mode)
		if rerr != nil {
			return errors.Join(rerr, pool.FreeBulk(burst))
		}
		c.tr.probe("ring", r.op, ops, func() {
			for i := 0; i < ops; i += 32 {
				q.EnqueueBurst(burst)
				keep(uint64(q.DequeueBurst(out)))
			}
		})
	}
	if err := pool.FreeBulk(burst); err != nil {
		return err
	}

	var probeErr error
	c.tr.probe("mbuf", "alloc_free_ns", ops, func() {
		for i := 0; i < ops; i++ {
			m, aerr := pool.Alloc()
			if aerr != nil {
				probeErr = aerr
				return
			}
			if ferr := pool.Free(m); ferr != nil {
				probeErr = ferr
				return
			}
		}
	})
	frame, err := frameOf(rng, 1500, 7)
	if err != nil {
		return err
	}
	m, err := pool.Alloc()
	if err != nil {
		return err
	}
	c.tr.probe("mbuf", "append1500_ns", ops, func() {
		for i := 0; i < ops; i++ {
			m.Reset()
			if aerr := m.AppendBytes(frame); aerr != nil {
				probeErr = aerr
				return
			}
		}
	})
	if err := errors.Join(probeErr, pool.Free(m)); err != nil {
		return err
	}

	c.tr.probe("eth", "parse_ns", ops, func() {
		for i := 0; i < ops; i++ {
			f, perr := eth.Parse(frame)
			if perr != nil {
				probeErr = perr
				return
			}
			keep(uint64(f.Tuple().SrcPort))
		}
	})
	return probeErr
}

// probeNetdev forwards 64 B frames generator -> RxBurst -> TxBurst with
// no NF in between; the cost per frame includes the simulator events
// the generator, the ports and the polling core schedule.
func probeNetdev(c *runCtx, _ *rand.Rand, ops int) error {
	var probeErr error
	// 10 G of 64 B frames is 14.2 Mpps: the window that carries ops frames.
	window := eventsim.FromSeconds(float64(ops) * 88 * 8 / 10e9)
	fn := func() int64 {
		res, err := forward(eventsim.New(), forwardConfig{frame: 64, wireBps: 10e9, warmup: eventsim.Microsecond, window: window})
		if err != nil {
			probeErr = err
		} else if res.leaked != 0 || res.sent != res.forwarded {
			probeErr = fmt.Errorf("netdev probe: sent %d forwarded %d leaked %d", res.sent, res.forwarded, res.leaked)
		}
		return int64(res.forwarded)
	}
	fn()
	for i := 0; i < probeRounds && probeErr == nil; i++ {
		c.tr.round("netdev", "gen_rx_tx_ns_per_pkt", fn)
	}
	return probeErr
}

func probeDhlproto(c *runCtx, rng *rand.Rand, ops int) error {
	var probeErr error
	for _, size := range []int{64, 1500} {
		payload := make([]byte, size)
		rng.Read(payload)
		batch := make([]byte, 0, batchBytes)
		c.tr.probe("dhlproto", fmt.Sprintf("append%d_ns_per_rec", size), ops, func() {
			for i := 0; i < ops; i++ {
				next, err := dhlproto.AppendRecordFit(batch, 1, 1, payload)
				if err != nil { // full: the Packer would flush and lease a fresh segment
					next = batch[:0]
				}
				batch = next
			}
		})
	}
	payload := make([]byte, 64)
	rng.Read(payload)
	batch, recs := fullBatch(payload)
	c.tr.probe("dhlproto", "cursor_ns_per_rec", ops, func() {
		var cur dhlproto.Cursor
		var rec dhlproto.Record
		for done := 0; done < ops; done += recs {
			cur.SetBatch(batch)
			for {
				ok, err := cur.Next(&rec)
				if err != nil {
					probeErr = err
					return
				}
				if !ok {
					break
				}
				keep(uint64(len(rec.Payload)))
			}
		}
	})
	return probeErr
}

// probePCIeFPGA times the host cost of one call into each hardware
// model plus the completion event the call schedules.
func probePCIeFPGA(c *runCtx, rng *rand.Rand, ops int) error {
	ops /= 10 // per-batch operations: a tenth of the per-packet op count is still 1e4 batches
	var probeErr error
	sim := eventsim.New()
	dma := pcie.NewEngine(sim, pcie.Config{})
	done := func() {}
	c.tr.probe("pcie", "transfer_ns", ops, func() {
		for i := 0; i < ops; i++ {
			if _, _, err := dma.Transfer(pcie.H2C, batchBytes, done); err != nil {
				probeErr = err
				return
			}
			if i%16 == 15 {
				sim.RunAll()
			}
		}
		sim.RunAll()
	})
	if probeErr != nil {
		return probeErr
	}

	dev, err := fpga.NewDevice(sim, fpga.Config{})
	if err != nil {
		return err
	}
	region, err := dev.LoadPR(hwfunc.Specs()[hwfunc.LoopbackName], nil)
	if err != nil {
		return err
	}
	sim.RunAll() // partial reconfiguration completes
	payload := make([]byte, 64)
	rng.Read(payload)
	// offload_rt64's batches are flushed by timeout with a burst's worth
	// of records; one record is the floor of that cost.
	batch, err := dhlproto.AppendRecord(nil, 1, 1, payload)
	if err != nil {
		return err
	}
	dst := make([]byte, 0, batchBytes)
	onOut := func(out []byte, err error) {
		if err != nil {
			probeErr = err
		}
		keep(uint64(len(out)))
	}
	c.tr.probe("fpga", "dispatch_ns_per_batch", ops, func() {
		for i := 0; i < ops && probeErr == nil; i++ {
			if _, err := dev.Dispatch(region, batch, dst[:0], onOut); err != nil {
				probeErr = err
				return
			}
			sim.RunAll()
		}
	})
	return probeErr
}

// cryptoKeys returns seeded AES-256 and HMAC-SHA1 keys.
func cryptoKeys(rng *rand.Rand) (key, authKey []byte) {
	key, authKey = make([]byte, swcrypto.KeySize), make([]byte, swcrypto.AuthKeySize)
	rng.Read(key)
	rng.Read(authKey)
	return key, authKey
}

func probeCrypto(c *runCtx, rng *rand.Rand, ops int) error {
	key, authKey := cryptoKeys(rng)
	blob, err := hwfunc.EncodeIPsecCryptoConfig(key, authKey, 0xCAFEBABE)
	if err != nil {
		return err
	}
	var probeErr error
	for _, size := range []int{64, 1500} {
		frame, ferr := frameOf(rng, size, 7)
		if ferr != nil {
			return ferr
		}
		req, rerr := hwfunc.EncodeIPsecRequest(nil, frame, eth.EtherLen+eth.IPv4Len)
		if rerr != nil {
			return rerr
		}
		batch, _ := fullBatch(req)
		mod := &hwfunc.IPsecCrypto{}
		if cerr := mod.Configure(blob); cerr != nil {
			return cerr
		}
		dst := make([]byte, 0, 2*batchBytes)
		batches := max(ops*64/len(batch), 1) // 64 B of payload per counted op
		c.tr.probe("hwfunc", fmt.Sprintf("ipsec_crypto%d_ns_per_byte", size), batches*len(batch), func() {
			for i := 0; i < batches; i++ {
				out, perr := mod.ProcessBatch(dst[:0], batch)
				if perr != nil {
					probeErr = perr
					return
				}
				keep(uint64(len(out)))
			}
		})
	}
	if probeErr != nil {
		return probeErr
	}
	eng, err := swcrypto.NewEngine(swcrypto.Config{Key: key, AuthKey: authKey, Salt: 0xCAFEBABE})
	if err != nil {
		return err
	}
	buf := make([]byte, 1500)
	rng.Read(buf)
	seals := max(ops*64/len(buf), 1)
	c.tr.probe("swcrypto", "seal1500_ns_per_byte", seals*len(buf), func() {
		for i := 0; i < seals; i++ {
			tag := eng.Seal(buf, uint64(i))
			keep(uint64(tag[0]))
		}
	})
	return nil
}

// probeMatching scans 512 B frames against the Snort rule set with one
// frame in 256 carrying an alert pattern at a seeded offset, the
// density harness.RunMultiNF feeds the NIDS.
func probeMatching(c *runCtx, rng *rand.Rand, ops int) error {
	rules, err := nf.NewRuleSet(nf.DefaultSnortRules())
	if err != nil {
		return err
	}
	const nFrames = 256
	frames := make([][]byte, nFrames)
	for i := range frames {
		if frames[i], err = frameOf(rng, 512, uint64(i)); err != nil {
			return err
		}
	}
	pattern := []byte("wget http")
	hdr := eth.EtherLen + eth.IPv4Len + eth.UDPLen
	copy(frames[rng.Intn(nFrames)][hdr+rng.Intn(512-hdr-len(pattern)):], pattern)

	var probeErr error
	blob, err := hwfunc.EncodePatternConfig(rules.Patterns(), rules.CaseFold())
	if err != nil {
		return err
	}
	pm := &hwfunc.PatternMatching{}
	if err := pm.Configure(blob); err != nil {
		return err
	}
	// 256 frames of 512 B are 24 batches of 11 records (the last short).
	var batches [][]byte
	batch := make([]byte, 0, batchBytes)
	total := 0
	for _, f := range frames {
		next, aerr := dhlproto.AppendRecordFit(batch, 1, 1, f)
		if aerr != nil {
			batches = append(batches, batch)
			total += len(batch)
			if next, aerr = dhlproto.AppendRecordFit(make([]byte, 0, batchBytes), 1, 1, f); aerr != nil {
				return aerr
			}
		}
		batch = next
	}
	batches = append(batches, batch)
	total += len(batch)
	dst := make([]byte, 0, 2*batchBytes)
	passes := max(ops*64/total, 1)
	c.tr.probe("hwfunc", "pattern_matching512_ns_per_byte", passes*total, func() {
		for i := 0; i < passes; i++ {
			for _, b := range batches {
				out, perr := pm.ProcessBatch(dst[:0], b)
				if perr != nil {
					probeErr = perr
					return
				}
				keep(uint64(len(out)))
			}
		}
	})
	if probeErr != nil {
		return probeErr
	}

	matcher, err := acmatch.NewMatcher(rules.Patterns(), acmatch.Config{CaseFold: rules.CaseFold()})
	if err != nil {
		return err
	}
	hits := 0
	onMatch := func(acmatch.Match) { hits++ }
	passes = max(ops*64/(nFrames*512), 1)
	c.tr.probe("acmatch", "scan_ns_per_byte", passes*nFrames*512, func() {
		for i := 0; i < passes; i++ {
			for _, f := range frames {
				matcher.Scan(f, onMatch)
			}
		}
	})
	if hits == 0 {
		return errors.New("acmatch probe: the planted pattern never matched")
	}

	payload := make([]byte, 64)
	rng.Read(payload)
	lbBatch, _ := fullBatch(payload)
	lb := hwfunc.Loopback{}
	lbPasses := max(ops*64/len(lbBatch), 1)
	c.tr.probe("hwfunc", "loopback_ns_per_byte", lbPasses*len(lbBatch), func() {
		for i := 0; i < lbPasses; i++ {
			out, perr := lb.ProcessBatch(dst[:0], lbBatch)
			if perr != nil {
				probeErr = perr
				return
			}
			keep(uint64(len(out)))
		}
	})
	return probeErr
}

// probeNFs times the software halves of the NFs: the shallow pre- and
// post-processing the DHL NFs keep on the CPU (refilling the mbuf with
// the frame and with the module's response each round is included), and
// the flow firewall's whole Process over Zipf(1.2) 5-tuples.
func probeNFs(c *runCtx, rng *rand.Rand, ops int) error {
	sys, err := dhl.Open(dhl.SystemConfig{}, dhl.WithoutSettle())
	if err != nil {
		return err
	}
	pool := sys.Pool()
	m, err := pool.Alloc()
	if err != nil {
		return err
	}
	var probeErr error
	prePost := func(frame, resp []byte, pre, post func(*mbuf.Mbuf) (nf.Verdict, float64)) func() {
		return func() {
			for i := 0; i < ops; i++ {
				m.Reset()
				if aerr := m.AppendBytes(frame); aerr != nil {
					probeErr = aerr
					return
				}
				if v, _ := pre(m); v != nf.VerdictForward {
					probeErr = errors.New("nf probe: PreProcess dropped the frame")
					return
				}
				m.Reset()
				if aerr := m.AppendBytes(resp); aerr != nil {
					probeErr = aerr
					return
				}
				if v, _ := post(m); v != nf.VerdictForward {
					probeErr = errors.New("nf probe: PostProcess dropped the response")
					return
				}
			}
		}
	}

	sadb := nf.NewSADB()
	if err := sadb.AddDefaultSA(); err != nil {
		return errors.Join(err, pool.Free(m))
	}
	gw, err := nf.NewIPsecGatewayDHL(sys.Runtime(), sadb, "bench-ipsec", 0)
	if err != nil {
		return errors.Join(err, pool.Free(m))
	}
	frame64, err := frameOf(rng, 64, 7)
	if err != nil {
		return errors.Join(err, pool.Free(m))
	}
	// The module's response to a 64 B frame is the frame grown by the
	// IV and the ICV; PostProcess only fixes up its headers.
	resp64 := append(append([]byte(nil), frame64...), make([]byte, hwfunc.IPsecGrowth)...)
	c.tr.probe("nf", "ipsec_pre_post_ns", ops, prePost(frame64, resp64, gw.PreProcess, gw.PostProcess))

	rules, err := nf.NewRuleSet(nf.DefaultSnortRules())
	if err != nil {
		return errors.Join(err, pool.Free(m))
	}
	ids, err := nf.NewNIDSDHL(sys.Runtime(), rules, "bench-nids", 0)
	if err != nil {
		return errors.Join(err, pool.Free(m))
	}
	frame512, err := frameOf(rng, 512, 7)
	if err != nil {
		return errors.Join(err, pool.Free(m))
	}
	// A clean frame comes back with the "no match" trailer.
	resp512 := append(append([]byte(nil), frame512...), 0, 0, 0xff, 0xff)
	c.tr.probe("nf", "nids_pre_post_ns", ops, prePost(frame512, resp512, ids.PreProcess, ids.PostProcess))
	if probeErr != nil {
		return errors.Join(probeErr, pool.Free(m))
	}

	fw := nf.NewFirewall(nf.FirewallAllow)
	if err := fw.AddRule(nf.FirewallRule{SrcPrefix: 0x0A080000, SrcDepth: 13, Action: nf.FirewallDeny}); err != nil {
		return errors.Join(err, pool.Free(m))
	}
	ffw, err := nf.NewFlowFirewall(fw, nf.FlowFirewallConfig{})
	if err != nil {
		return errors.Join(err, pool.Free(m))
	}
	zipf := rand.NewZipf(rng, 1.2, 1, fwFlows-1)
	frames := make([][]byte, 4096)
	for i := range frames {
		if frames[i], err = frameOf(rng, 128, zipf.Uint64()); err != nil {
			return errors.Join(err, pool.Free(m))
		}
	}
	c.tr.probe("nf", "flowfw_process_ns", ops, func() {
		for i := 0; i < ops; i++ {
			m.Reset()
			if aerr := m.AppendBytes(frames[i%len(frames)]); aerr != nil {
				probeErr = aerr
				return
			}
			v, _ := ffw.Process(m)
			keep(uint64(v))
		}
	})
	return errors.Join(probeErr, pool.Free(m))
}

// probeFlowtab times the flow table at fw_flows1m's population: hits on
// live keys, misses followed by the insert a miss causes, and the TTL
// wheel expiring what the insert probe added.
func probeFlowtab(c *runCtx, rng *rand.Rand, ops, fill int) error {
	var now eventsim.Time
	const ttl = 50 * eventsim.Millisecond
	tab, err := flowtab.New(flowtab.Config[eth.FiveTuple, uint32]{
		Name: "bench-probe", Hash: flowtab.HashFiveTuple,
		Clock: func() eventsim.Time { return now }, TTL: ttl,
	})
	if err != nil {
		return err
	}
	tuple := func(id uint64) eth.FiveTuple {
		src, port := netdev.FlowSrc(id)
		return eth.FiveTuple{Src: src, Dst: eth.IPv4{192, 168, 0, 1}, SrcPort: port, DstPort: 80, Proto: eth.ProtoUDP}
	}
	for id := 0; id < fill; id++ {
		if _, _, err := tab.Insert(tuple(uint64(id))); err != nil {
			return err
		}
	}
	keys := make([]eth.FiveTuple, ops)
	for i := range keys {
		keys[i] = tuple(uint64(rng.Intn(fill)))
	}
	var probeErr error
	c.tr.probe("flowtab", "hit_ns", ops, func() {
		for _, k := range keys {
			if _, ok := tab.Lookup(k); !ok {
				probeErr = errors.New("flowtab probe: a live key missed")
				return
			}
		}
	})
	if probeErr != nil {
		return probeErr
	}

	// Each round of the insert probe needs keys the table has not seen;
	// the expiry probe then ages exactly those out again, so the two
	// alternate. Round 0 is the untimed warm-up.
	next := uint64(fill)
	insert := func() int64 {
		for i := 0; i < ops && probeErr == nil; i++ {
			k := tuple(next)
			next++
			if _, ok := tab.Lookup(k); ok {
				probeErr = errors.New("flowtab probe: a fresh key hit")
			} else if _, _, err := tab.Insert(k); err != nil {
				probeErr = err
			}
		}
		return int64(ops)
	}
	expire := func() int64 {
		expired := tab.Tick()
		if expired != ops {
			probeErr = fmt.Errorf("flowtab probe: Tick expired %d entries, want %d", expired, ops)
		}
		return int64(expired)
	}
	for round := 0; round <= probeRounds && probeErr == nil; round++ {
		if round == 0 {
			insert()
		} else {
			c.tr.round("flowtab", "miss_insert_ns", insert)
		}
		// Touch the base population at the new time so only this
		// round's inserts are idle past the TTL, then tick.
		now += ttl / 2
		for id := 0; id < fill; id++ {
			tab.Lookup(tuple(uint64(id)))
		}
		now += ttl/2 + eventsim.Millisecond
		if round == 0 {
			expire()
		} else {
			c.tr.round("flowtab", "expire_ns_per_entry", expire)
		}
	}
	return probeErr
}
