package harness

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/opencloudnext/dhl-go/internal/core"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/faultinject"
	"github.com/opencloudnext/dhl-go/internal/hwfunc"
	"github.com/opencloudnext/dhl-go/internal/mbuf"
	"github.com/opencloudnext/dhl-go/internal/stats"
)

// The failure-recovery experiment paces a fixed-rate packet source through
// the DHL ipsec-crypto accelerator and injects a persistent region fault
// (an SEU that garbles every response batch) about a sixth of the way
// through the run, plus a handful of transient DMA faults that the bounded
// retry must mask. Three runs share one seed:
//
//   - baseline: no fault plan, the fault-free goodput reference;
//   - no-fallback: the SEU drives the health FSM to quarantine and the
//     region reloads over ICAP (~29 ms for the 5.6 MB bitstream); until the
//     reload completes, traffic drains as StatusUnprocessed and goodput
//     collapses — the curve's dip width is the MTTR;
//   - fallback: identical schedule, but a software ipsec module is
//     registered as the quarantine fallback, so goodput barely dips.
//
// Goodput counts only bytes the pipeline actually processed (StatusOK or
// StatusFallback); unprocessed passthrough deliveries do not count.
//
// A run paces failoverPackets frames of failoverFrameSize plaintext
// bytes: 60 ms at 4 packets / 25 us, long enough to fit the ~29 ms ICAP
// reload or re-place PR with slack on both sides.
const (
	failoverBurst      = 4
	failoverIntervalPs = 25 * eventsim.Microsecond
	failoverPackets    = 9600
	failoverFrameSize  = 256
)

// FailoverConfig parameterizes RunFailover and RunBoardFailover.
type FailoverConfig struct {
	// Seed drives the deterministic fault plan; all three runs derive
	// their schedule from it. 0 selects the default seed.
	Seed uint64
	// Buckets is the goodput-curve resolution (default 60).
	Buckets int
}

func (c FailoverConfig) withDefaults() FailoverConfig {
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Buckets <= 0 {
		c.Buckets = 60
	}
	return c
}

// FailoverRun is the measured outcome of one paced run.
type FailoverRun struct {
	Label string
	// Curve is the per-bucket goodput in bits/s; BucketUs is the bucket
	// width in microseconds.
	Curve    []float64
	BucketUs float64
	// MTTRUs is the recovery time read off the curve: from the first
	// bucket below 50% of the baseline mean to the next bucket back at
	// >= 90%. 0 when the run never degraded, -1 when it never recovered.
	MTTRUs float64
	// MinRateBps is the lowest interior-bucket goodput.
	MinRateBps float64
	// RecoveredGoodBps is the mean goodput over the last quarter of the
	// run, after any reload has completed.
	RecoveredGoodBps float64

	DeliveredOK          uint64
	DeliveredFallback    uint64
	DeliveredUnprocessed uint64
	SourceDrops          uint64
	Leaked               int

	Stats  core.TransferStats
	Health core.HealthReport
}

// FailoverResult aggregates the three runs of the experiment.
type FailoverResult struct {
	Seed uint64
	// BaselineGoodBps is the fault-free mean goodput over the interior
	// buckets, the reference for the MTTR thresholds.
	BaselineGoodBps float64

	Baseline   FailoverRun
	NoFallback FailoverRun
	Fallback   FailoverRun
}

// faultAfter is where the failure experiments put their one persistent
// fault: about a sixth of the way into a run of packets, in dispatched-batch
// counts (each burst packs into one batch).
func faultAfter(packets int) uint64 {
	return uint64(max(1, packets/(failoverBurst*6)))
}

// failoverSpecs is a persistent SEU at faultAfter plus a sprinkle of
// transient H2C faults for the DMA retry to absorb.
func failoverSpecs(packets int) []faultinject.Spec {
	return []faultinject.Spec{
		{Kind: faultinject.RegionSEU, EveryN: faultAfter(packets), Count: 1},
		{Kind: faultinject.DMAH2CError, EveryN: 97, Count: 5},
	}
}

// RunFailover runs the failure-recovery experiment: a fault-free baseline,
// a fault run without fallback, and a fault run with the software ipsec
// fallback registered — all from one seed.
func RunFailover(cfg FailoverConfig) (*FailoverResult, error) {
	cfg = cfg.withDefaults()
	res := &FailoverResult{Seed: cfg.Seed}

	base, err := runFailoverOnce(cfg, nil, false, "baseline")
	if err != nil {
		return nil, fmt.Errorf("harness: failover baseline: %w", err)
	}
	res.Baseline = base
	res.BaselineGoodBps = interiorMean(base.Curve)

	for _, v := range []struct {
		label    string
		fallback bool
		dst      *FailoverRun
	}{
		{"fault/no-fallback", false, &res.NoFallback},
		{"fault/fallback", true, &res.Fallback},
	} {
		plan, err := faultinject.NewPlan(cfg.Seed, failoverSpecs(failoverPackets)...)
		if err != nil {
			return nil, fmt.Errorf("harness: failover plan: %w", err)
		}
		run, err := runFailoverOnce(cfg, plan, v.fallback, v.label)
		if err != nil {
			return nil, fmt.Errorf("harness: failover %s: %w", v.label, err)
		}
		*v.dst = run
	}

	analyzeFailoverRun(&res.Baseline, res.BaselineGoodBps)
	analyzeFailoverRun(&res.NoFallback, res.BaselineGoodBps)
	analyzeFailoverRun(&res.Fallback, res.BaselineGoodBps)
	return res, nil
}

// runFailoverOnce stands up a fresh testbed, wires the ipsec-crypto
// accelerator (optionally with its software fallback), and paces
// failoverPackets frames through it while bucketing delivered-and-processed
// bytes into a goodput time series.
func runFailoverOnce(cfg FailoverConfig, plan *faultinject.Plan, withFallback bool, label string) (FailoverRun, error) {
	run := FailoverRun{Label: label}
	tb, err := newTestbed(0)
	if err != nil {
		return run, err
	}
	rt, err := tb.newRuntime(core.Config{
		BatchBytes:   2048,
		FlushTimeout: 5 * eventsim.Microsecond,
		Faults:       plan,
	})
	if err != nil {
		return run, err
	}
	nfID, acc, err := tb.openIPsecCrypto(rt, "failover-gen", withFallback)
	if err != nil {
		return run, err
	}
	return run, tb.paceFailover(rt, nfID, acc, cfg.Buckets, &run)
}

// openIPsecCrypto brings the keyed ipsec-crypto accelerator up for an NF
// that sends it raw request records, with no gateway NF in front: register
// the NF, load the module, configure the fixed test keys, optionally
// install the software module as the quarantine fallback, and settle
// across the initial ICAP load of the 5.6 MB bitstream.
func (tb *testbed) openIPsecCrypto(rt *core.Runtime, name string, withFallback bool) (core.NFID, core.AccID, error) {
	nfID, err := rt.Register(name, 0)
	if err != nil {
		return 0, 0, err
	}
	acc, err := rt.SearchByName(hwfunc.IPsecCryptoName, 0)
	if err != nil {
		return 0, 0, err
	}
	var key [32]byte
	var authKey [20]byte
	for i := range key {
		key[i] = byte(i + 1)
	}
	for i := range authKey {
		authKey[i] = byte(0xa0 + i)
	}
	blob, err := hwfunc.EncodeIPsecCryptoConfig(key[:], authKey[:], 0x01020304)
	if err != nil {
		return 0, 0, err
	}
	if err := rt.AccConfigure(acc, blob); err != nil {
		return 0, 0, err
	}
	if withFallback {
		if err := rt.InstallFallback(hwfunc.IPsecCryptoName, 0); err != nil {
			return 0, 0, err
		}
	}
	tb.settle(40 * eventsim.Millisecond)
	return nfID, acc, nil
}

// pacedDuration is how long pace offers packets for.
func pacedDuration(packets int) eventsim.Time {
	nBursts := (packets + failoverBurst - 1) / failoverBurst
	return eventsim.Time(nBursts) * failoverIntervalPs
}

// pace is the closed-loop driver of the failure experiments. Every
// failoverIntervalPs it drains the NF's OBQ, then offers acc a burst of
// failoverBurst fresh records; after pacedDuration it keeps draining until
// every mbuf is home or 60 ms have passed (a pending ICAP reload or
// re-place PR gets that long to complete and deliver). fill writes record
// seq into a fresh mbuf, or reports false to leave that one out; delivered,
// when set, sees every packet that comes back before it is freed. The
// ledger lands in run: deliveries by mbuf.Status, source drops (pool
// empty, left out by fill, refused by the IBQ), leaked mbufs, and the
// runtime's transfer stats and accelerator health at the end.
func (tb *testbed) pace(rt *core.Runtime, nfID core.NFID, acc core.AccID, packets int,
	fill func(seq int, m *mbuf.Mbuf) (bool, error), delivered func(*mbuf.Mbuf), run *FailoverRun) error {
	var firstErr error
	fail := func(err error) {
		if firstErr == nil && err != nil {
			firstErr = err
		}
	}
	scratch := make([]*mbuf.Mbuf, 64)
	drain := func() {
		for firstErr == nil {
			n, err := rt.ReceivePackets(nfID, scratch)
			if err != nil {
				fail(err)
				return
			}
			if n == 0 {
				return
			}
			for _, m := range scratch[:n] {
				switch m.Status {
				case mbuf.StatusUnprocessed:
					run.DeliveredUnprocessed++
				case mbuf.StatusFallback:
					run.DeliveredFallback++
				default:
					run.DeliveredOK++
				}
				if delivered != nil {
					delivered(m)
				}
				fail(tb.pool.Free(m))
			}
		}
	}

	sent := 0
	batch := make([]*mbuf.Mbuf, 0, failoverBurst)
	var tick func()
	tick = func() {
		drain()
		if firstErr != nil {
			return
		}
		batch = batch[:0]
		for b := 0; b < failoverBurst && sent < packets; b++ {
			seq := sent
			sent++
			m, err := tb.pool.Alloc()
			if err != nil {
				run.SourceDrops++ // the pool refills from drains
				continue
			}
			ok, err := fill(seq, m)
			if err != nil {
				fail(err)
				fail(tb.pool.Free(m))
				return
			}
			if !ok {
				run.SourceDrops++
				fail(tb.pool.Free(m))
				continue
			}
			m.AccID = uint16(acc)
			batch = append(batch, m)
		}
		n, err := rt.SendPackets(nfID, batch)
		if err != nil {
			fail(err)
			n = 0
		}
		for _, m := range batch[n:] {
			run.SourceDrops++
			fail(tb.pool.Free(m))
		}
		if sent < packets {
			tb.sim.After(failoverIntervalPs, tick)
		}
	}
	tb.sim.After(0, tick)
	tb.sim.Run(tb.sim.Now() + pacedDuration(packets))

	deadline := tb.sim.Now() + 60*eventsim.Millisecond
	for tb.sim.Now() < deadline && tb.pool.InUse() > 0 && firstErr == nil {
		tb.sim.Run(tb.sim.Now() + eventsim.Millisecond)
		drain()
	}
	drain()
	if firstErr != nil {
		return firstErr
	}
	run.Leaked = tb.pool.InUse()
	var err error
	if run.Stats, err = rt.Stats(0); err != nil {
		return err
	}
	run.Health, err = rt.AccHealth(acc)
	return err
}

// paceFailover paces failoverPackets copies of one fixed ipsec request
// record — the 2-byte encryption offset (0: encrypt the whole frame), then
// a failoverFrameSize-byte plaintext — and buckets the bytes the pipeline
// actually processed into run's goodput curve: unprocessed passthrough
// deliveries do not count.
func (tb *testbed) paceFailover(rt *core.Runtime, nfID core.NFID, acc core.AccID, buckets int, run *FailoverRun) error {
	req := make([]byte, 0, hwfunc.IPsecReqPrefix+failoverFrameSize)
	req = binary.BigEndian.AppendUint16(req, 0)
	for i := 0; i < failoverFrameSize; i++ {
		req = append(req, byte(i))
	}
	t0 := tb.sim.Now()
	ts := stats.NewTimeSeries(pacedDuration(failoverPackets).Seconds(), buckets)
	err := tb.pace(rt, nfID, acc, failoverPackets,
		func(_ int, m *mbuf.Mbuf) (bool, error) { return true, m.AppendBytes(req) },
		func(m *mbuf.Mbuf) {
			if m.Status != mbuf.StatusUnprocessed {
				ts.Add((tb.sim.Now() - t0).Seconds(), float64(m.Len()*8))
			}
		}, run)
	if err != nil {
		return err
	}
	run.BucketUs = ts.BucketWidth() * 1e6
	run.Curve = make([]float64, buckets)
	for i := range run.Curve {
		run.Curve[i] = ts.Rate(i)
	}
	return nil
}

// interiorMean averages a curve's interior buckets; the first and last
// bucket carry pipeline-fill and delivery-lag edge effects.
func interiorMean(curve []float64) float64 {
	if len(curve) <= 2 {
		return 0
	}
	var sum float64
	for _, r := range curve[1 : len(curve)-1] {
		sum += r
	}
	return sum / float64(len(curve)-2)
}

// analyzeFailoverRun derives the MTTR and recovery figures from a run's
// goodput curve against the baseline mean.
func analyzeFailoverRun(run *FailoverRun, baselineBps float64) {
	n := len(run.Curve)
	run.MinRateBps = math.Inf(1)
	for i := 1; i < n-1; i++ {
		if run.Curve[i] < run.MinRateBps {
			run.MinRateBps = run.Curve[i]
		}
	}
	if math.IsInf(run.MinRateBps, 1) {
		run.MinRateBps = 0
	}
	degraded := -1
	for i := 1; i < n-1; i++ {
		if run.Curve[i] < 0.5*baselineBps {
			degraded = i
			break
		}
	}
	run.MTTRUs = 0
	if degraded >= 0 {
		run.MTTRUs = -1
		for j := degraded + 1; j < n; j++ {
			if run.Curve[j] >= 0.9*baselineBps {
				run.MTTRUs = float64(j-degraded) * run.BucketUs
				break
			}
		}
	}
	q := 3 * n / 4
	var sum float64
	for _, r := range run.Curve[q:] {
		sum += r
	}
	if n-q > 0 {
		run.RecoveredGoodBps = sum / float64(n-q)
	}
}
