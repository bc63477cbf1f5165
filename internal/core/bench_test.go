package core

import (
	"bytes"
	"testing"

	"github.com/opencloudnext/dhl-go/internal/dhlproto"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/fpga"
	"github.com/opencloudnext/dhl-go/internal/mbuf"
	"github.com/opencloudnext/dhl-go/internal/telemetry"
)

// benchRig is newRig for benchmarks: one node, one FPGA, one DMA engine,
// TX/RX cores attached, with the reverse module registered.
type benchRigT struct {
	sim  *eventsim.Sim
	pool *mbuf.Pool
	rt   *Runtime
	nf   NFID
	acc  AccID
}

func newBenchRig(b *testing.B, cfg Config) *benchRigT {
	b.Helper()
	r := newPoolRig(b, cfg, 2048, moduleSpec("rev", func() fpga.Module { return reverseModule{} }))
	sim, pool, rt := r.sim, r.pool, r.rt
	nf, err := rt.Register("bench", 0)
	if err != nil {
		b.Fatal(err)
	}
	acc, err := rt.SearchByName("rev", 0)
	if err != nil {
		b.Fatal(err)
	}
	sim.Run(sim.Now() + 50*eventsim.Millisecond)
	return &benchRigT{sim: sim, pool: pool, rt: rt, nf: nf, acc: acc}
}

// cycle pushes pkts copies of payload through the full
// Packer -> DMA -> Dispatcher -> module -> DMA -> Distributor path and
// drains the OBQ, returning how many packets came back.
func (r *benchRigT) cycle(b *testing.B, pkts []*mbuf.Mbuf, out []*mbuf.Mbuf, payload []byte) int {
	for i := range pkts {
		m, err := r.pool.Alloc()
		if err != nil {
			b.Fatal(err)
		}
		if err := m.AppendBytes(payload); err != nil {
			b.Fatal(err)
		}
		m.AccID = uint16(r.acc)
		pkts[i] = m
	}
	n, err := r.rt.SendPackets(r.nf, pkts)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range pkts[n:] {
		_ = r.pool.Free(m)
	}
	r.sim.Run(r.sim.Now() + 300*eventsim.Microsecond)
	got, _ := r.rt.ReceivePackets(r.nf, out)
	for i := 0; i < got; i++ {
		_ = r.pool.Free(out[i])
	}
	return got
}

// benchPipeline measures one steady-state burst round trip per iteration.
func benchPipeline(b *testing.B, nPkts, payloadLen int) {
	benchPipelineCfg(b, nPkts, payloadLen, Config{FlushTimeout: 5 * eventsim.Microsecond})
}

// benchPipelineCfg is benchPipeline with an explicit runtime config (the
// telemetry variants arm the registry through it).
func benchPipelineCfg(b *testing.B, nPkts, payloadLen int, cfg Config) {
	r := newBenchRig(b, cfg)
	payload := bytes.Repeat([]byte{0xAB}, payloadLen)
	pkts := make([]*mbuf.Mbuf, nPkts)
	out := make([]*mbuf.Mbuf, 2*nPkts)
	// Warm the freelists, rings and staging tables before measuring.
	for i := 0; i < 16; i++ {
		if got := r.cycle(b, pkts, out, payload); got != nPkts {
			b.Fatalf("warmup: %d of %d packets returned", got, nPkts)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := r.cycle(b, pkts, out, payload); got != nPkts {
			b.Fatalf("iteration %d: %d of %d packets returned", i, got, nPkts)
		}
	}
}

// BenchmarkPipeline64B: 32 small packets per burst — flushes are
// timeout-triggered, the Figure 4 small-transfer regime.
func BenchmarkPipeline64B(b *testing.B) { benchPipeline(b, 32, 64) }

// BenchmarkPipeline1500B: 16 MTU packets per burst — batches fill to
// BatchBytes and flush by size, the Figure 4 peak-throughput regime.
func BenchmarkPipeline1500B(b *testing.B) { benchPipeline(b, 16, 1500) }

// BenchmarkPipeline64BTelemetry is BenchmarkPipeline64B with the full
// telemetry subsystem armed (stage clock, histograms, span ring, per-core
// counters); comparing ns/op and allocs/op against the base benchmark is
// how EXPERIMENTS.md derives the recording overhead.
func BenchmarkPipeline64BTelemetry(b *testing.B) {
	benchPipelineCfg(b, 32, 64, Config{FlushTimeout: 5 * eventsim.Microsecond, Telemetry: telemetry.New(0)})
}

// BenchmarkPipeline1500BTelemetry is the telemetry-armed variant of
// BenchmarkPipeline1500B.
func BenchmarkPipeline1500BTelemetry(b *testing.B) {
	benchPipelineCfg(b, 16, 1500, Config{FlushTimeout: 5 * eventsim.Microsecond, Telemetry: telemetry.New(0)})
}

// BenchmarkDistributor isolates the RX half: decode one response batch
// and route its records to the owning NF's OBQ.
func BenchmarkDistributor(b *testing.B) {
	r := newBenchRig(b, Config{})
	rx := r.rt.nodeRx[0]
	tx := r.rt.nodeTx[0]
	payload := bytes.Repeat([]byte{0xCD}, 256)
	const nRecs = 16
	out := make([]*mbuf.Mbuf, 2*nRecs)
	entry := r.rt.accs[r.acc]
	cycle := func() {
		ib := tx.getInflight()
		ib.buf = tx.arena.lease()
		ib.outSeg = tx.arena.lease()
		ib.hf = entry
		ib.hfEpoch = entry.epoch
		for i := 0; i < nRecs; i++ {
			m, err := r.pool.Alloc()
			if err != nil {
				b.Fatal(err)
			}
			m.NFID = uint16(r.nf)
			var aerr error
			ib.outSeg, aerr = dhlproto.AppendRecordFit(ib.outSeg, uint16(r.nf), uint16(r.acc), payload)
			if aerr != nil {
				b.Fatal(aerr)
			}
			ib.meta = append(ib.meta, m)
		}
		ib.out = ib.outSeg
		rx.distribute(ib)
		got, _ := r.rt.ReceivePackets(r.nf, out)
		if got != nRecs {
			b.Fatalf("distributed %d of %d", got, nRecs)
		}
		for i := 0; i < got; i++ {
			_ = r.pool.Free(out[i])
		}
	}
	for i := 0; i < 16; i++ {
		cycle()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}
