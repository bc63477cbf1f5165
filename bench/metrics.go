package main

// Which of the two clocks (or neither) a metric is read from. The clock
// decides how far two runs of one commit may disagree: virtual values
// and counts repeat exactly for one seed, host values carry the
// sandbox's noise.
const (
	clockVirtual = "virtual"
	clockHost    = "host"
	clockCount   = "count"
)

// metricDef names one number the bench prints. The end-to-end table is
// the contract BENCHMARK.json repeats; TestBenchmarkJSONMatches keeps
// the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Clock  string
	// Bound is the share of the baseline median by which the metric may
	// get worse before -compare calls it a regression (end-to-end only).
	Bound float64
	Doc   string
}

// Regression bounds by clock: the share of the baseline median by which
// a metric may get worse. A bound has to sit well above what two runs of
// one commit disagree by. Virtual values repeat exactly for one seed and
// move by under 0.04 % between seeds (a seed shifts the phase of each
// window, not the operating point). Host values, even in reference time
// (see refKernel), carry this sandbox's noise: the quartiles of ten runs
// lie 4 to 20 % of the median apart depending on the hour, so host
// bounds are the widest a bound may be.
const (
	boundVirtual = 0.001
	boundHost    = 0.25
	boundCount   = 0.01
	boundSetup   = 0.25
)

var endToEnd = []metricDef{
	{"goodput_gbps", "Gbit/s", "higher", clockVirtual, boundVirtual,
		"frames delivered in the saturation window x input frame size, all NFs summed"},
	{"lat_p50_us", "us", "lower", clockVirtual, boundVirtual,
		"median NIC-RX to NIC-TX (offload_rt64: burst round-trip) latency at the fixed sub-capacity rate"},
	{"lat_p99_us", "us", "lower", clockVirtual, boundVirtual,
		"99th percentile of the same latency samples"},
	{"mem_bytes_per_flow", "B", "lower", clockVirtual, boundVirtual,
		"flow-table bytes / live entries at end of run (1 where the workload holds no flow table)"},
	{"host_ns_per_pkt", "ns", "lower", clockHost, boundHost,
		"process CPU time of one timed rep, in reference time (see refKernel) / packets delivered in its measurement window"},
	{"allocs_per_pkt", "count", "lower", clockCount, boundCount,
		"heap allocations of one rep, system construction included / same packets; lowest rep (the runtime adds a few of its own to some)"},
	{"events_per_pkt", "count", "lower", clockCount, boundCount,
		"simulator events / packets (1 where the harness owns the Sim and does not export it)"},
	{"setup_s", "s", "lower", clockHost, boundSetup,
		"CPU time, in reference time, of one set-up pass: build the workload's system and bring it ready for traffic"},
}

// perLayer lists the -trace metrics. Layer names are package names.
// Timings are CPU ns per op over >= 1e5 ops of workload-shaped input,
// counts are read from the traced run; neither has a bound.
var perLayer = []metricDef{
	{Name: "eventsim.event_ns", Unit: "ns", Better: "lower", Clock: clockHost, Doc: "Sim.After + dispatch of one event with 1k events pending"},
	{Name: "eventsim.idle_iter_ns", Unit: "ns", Better: "lower", Clock: clockHost, Doc: "one idle PollLoop iteration (body reports no work)"},
	{Name: "eventsim.timer_reset_ns", Unit: "ns", Better: "lower", Clock: clockHost, Doc: "Timer.Reset plus the stale event it leaves behind"},
	{Name: "ring.burst32_ns_per_pkt", Unit: "ns", Better: "lower", Clock: clockHost, Doc: "SP/SC EnqueueBurst+DequeueBurst of 32, per packet"},
	{Name: "ring.mp_burst32_ns_per_pkt", Unit: "ns", Better: "lower", Clock: clockHost, Doc: "same on a multi-producer ring (the shared IBQ's mode)"},
	{Name: "mbuf.alloc_free_ns", Unit: "ns", Better: "lower", Clock: clockHost, Doc: "Pool.Alloc + Pool.Free"},
	{Name: "mbuf.append1500_ns", Unit: "ns", Better: "lower", Clock: clockHost, Doc: "Reset + AppendBytes of a 1500 B frame"},
	{Name: "eth.parse_ns", Unit: "ns", Better: "lower", Clock: clockHost, Doc: "eth.Parse + Tuple of a UDP frame"},
	{Name: "netdev.gen_rx_tx_ns_per_pkt", Unit: "ns", Better: "lower", Clock: clockHost, Doc: "Generator -> RxBurst -> TxBurst forwarding of one 64 B frame, its simulator events included"},
	{Name: "dhlproto.append64_ns_per_rec", Unit: "ns", Better: "lower", Clock: clockHost, Doc: "AppendRecordFit of a 64 B payload into a 6 KB batch"},
	{Name: "dhlproto.append1500_ns_per_rec", Unit: "ns", Better: "lower", Clock: clockHost, Doc: "AppendRecordFit of a 1500 B payload"},
	{Name: "dhlproto.cursor_ns_per_rec", Unit: "ns", Better: "lower", Clock: clockHost, Doc: "Cursor.Next over a full batch of 64 B records"},
	{Name: "pcie.transfer_ns", Unit: "ns", Better: "lower", Clock: clockHost, Doc: "Engine.Transfer of 6 KB plus its completion event"},
	{Name: "fpga.dispatch_ns_per_batch", Unit: "ns", Better: "lower", Clock: clockHost, Doc: "Device.Dispatch of a one-record loopback batch plus its completion event"},
	{Name: "hwfunc.ipsec_crypto64_ns_per_byte", Unit: "ns", Better: "lower", Clock: clockHost, Doc: "IPsecCrypto.ProcessBatch over a 6 KB batch of 64 B frames"},
	{Name: "hwfunc.ipsec_crypto1500_ns_per_byte", Unit: "ns", Better: "lower", Clock: clockHost, Doc: "same over 1500 B frames"},
	{Name: "swcrypto.seal1500_ns_per_byte", Unit: "ns", Better: "lower", Clock: clockHost, Doc: "Engine.Seal (AES-256-CTR + HMAC-SHA1) of 1500 B"},
	{Name: "hwfunc.pattern_matching512_ns_per_byte", Unit: "ns", Better: "lower", Clock: clockHost, Doc: "PatternMatching.ProcessBatch over a 6 KB batch of 512 B frames, Snort rule set"},
	{Name: "acmatch.scan_ns_per_byte", Unit: "ns", Better: "lower", Clock: clockHost, Doc: "Matcher.Scan of 512 B payloads, one in 256 carrying a pattern"},
	{Name: "hwfunc.loopback_ns_per_byte", Unit: "ns", Better: "lower", Clock: clockHost, Doc: "Loopback.ProcessBatch over a 6 KB batch"},
	{Name: "nf.ipsec_pre_post_ns", Unit: "ns", Better: "lower", Clock: clockHost, Doc: "IPsecGatewayDHL PreProcess + PostProcess of a 64 B frame (frame refill included)"},
	{Name: "nf.nids_pre_post_ns", Unit: "ns", Better: "lower", Clock: clockHost, Doc: "NIDSDHL PreProcess + PostProcess of a 512 B frame"},
	{Name: "nf.flowfw_process_ns", Unit: "ns", Better: "lower", Clock: clockHost, Doc: "FlowFirewall.Process over Zipf(1.2) 5-tuples"},
	{Name: "flowtab.hit_ns", Unit: "ns", Better: "lower", Clock: clockHost, Doc: "Lookup of a live key, table pre-filled to 1 M"},
	{Name: "flowtab.miss_insert_ns", Unit: "ns", Better: "lower", Clock: clockHost, Doc: "Lookup miss + Insert of a fresh key into the same table"},
	{Name: "flowtab.expire_ns_per_entry", Unit: "ns", Better: "lower", Clock: clockHost, Doc: "Tick past the TTL, per expired entry"},
	{Name: "flowtab.hit_rate", Unit: "ratio", Better: "higher", Clock: clockCount, Doc: "verdict-cache hits / lookups in the run (fw_flows1m)"},
	{Name: "core.send_recv_ns_per_pkt", Unit: "ns", Better: "lower", Clock: clockHost, Doc: "time inside SendPackets + ReceivePackets (the IBQ/OBQ hops) per packet, 64 B closed-loop probe"},
	{Name: "core.rt_ns_per_pkt", Unit: "ns", Better: "lower", Clock: clockHost, Doc: "CPU time of the whole closed-loop probe per packet"},
	{Name: "core.self_est_ns_per_pkt", Unit: "ns", Better: "lower", Clock: clockHost, Doc: "rt minus child layers' unit cost x the op counts TransferStats and Sim.Processed report"},
	{Name: "core.batch_fill_bytes", Unit: "B", Better: "higher", Clock: clockCount, Doc: "BytesSent / BatchesSent"},
	{Name: "core.flush_timeout_share", Unit: "ratio", Better: "lower", Clock: clockCount, Doc: "FlushByTimeout / all flushes"},
	{Name: "core.ibq_rejected", Unit: "count", Better: "lower", Clock: clockCount, Doc: "packets the shared IBQ refused"},
	{Name: "netdev.rx_drop_share", Unit: "ratio", Better: "lower", Clock: clockCount, Doc: "RX-queue overflow drops / frames offered, saturation phase"},
	{Name: "tuner.windows", Unit: "count", Better: "lower", Clock: clockCount, Doc: "autotuner observation windows (diurnal)"},
	{Name: "tuner.decisions", Unit: "count", Better: "lower", Clock: clockCount, Doc: "autotuner grow + shrink decisions (diurnal)"},
	{Name: "core.stage.ibq_wait_us", Unit: "us", Better: "lower", Clock: clockVirtual, Doc: "telemetry stage mean, latency phase"},
	{Name: "core.stage.pack_us", Unit: "us", Better: "lower", Clock: clockVirtual, Doc: "telemetry stage mean, latency phase"},
	{Name: "core.stage.h2c_us", Unit: "us", Better: "lower", Clock: clockVirtual, Doc: "telemetry stage mean, latency phase"},
	{Name: "core.stage.accelerator_us", Unit: "us", Better: "lower", Clock: clockVirtual, Doc: "telemetry stage mean, latency phase"},
	{Name: "core.stage.c2h_us", Unit: "us", Better: "lower", Clock: clockVirtual, Doc: "telemetry stage mean, latency phase"},
	{Name: "core.stage.distribute_us", Unit: "us", Better: "lower", Clock: clockVirtual, Doc: "telemetry stage mean, latency phase"},
	{Name: "telemetry.observe_ns", Unit: "ns", Better: "lower", Clock: clockHost, Doc: "Registry.ObserveStage"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower", Clock: clockHost, Doc: "traced / untraced host_ns_per_pkt - 1, reps interleaved in one process"},
	{Name: "trace.layer_gap_share", Unit: "ratio", Better: "lower", Clock: clockHost, Doc: "share of the probe's CPU time the child-layer unit costs do not explain"},
}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
