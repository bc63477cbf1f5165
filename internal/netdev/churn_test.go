package netdev

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/mbuf"
)

// churnRig is one side of the churn oracle: a generator on a Sim and port
// of its own, with every frame it puts on the wire recorded. The eager
// side runs churn as the generator once did, an event per step re-armed
// by After; the lazy side is the generator as it is.
type churnRig struct {
	t      *testing.T
	sim    *eventsim.Sim
	pool   *mbuf.Pool
	port   *Port
	g      *Generator
	eager  bool
	live   bool // the eager side's churn event is on the heap
	frames []churnFrame
	buf    []*mbuf.Mbuf

	// The eager side's instants of bursts that drew flows and of churn
	// steps, for counting the ties between the two.
	burstAt map[eventsim.Time]bool
	churnAt []eventsim.Time
}

// churnFrame is what a frame on the wire shows of the flow process.
type churnFrame struct {
	flow uint64
	due  eventsim.Time
}

// churnCase is what both sides of the oracle are built from and driven by.
type churnCase struct {
	gen GeneratorConfig
	// The churn interval is num/den burst intervals, set exactly: the
	// float rate would round it off the burst instants it is to tie with.
	num, den eventsim.Time
	startAt  eventsim.Time
	slices   []eventsim.Time // Run slice lengths, cycled
	retarget float64         // offered rate set after the first quarter
	restart  bool            // stop and start again in the middle
}

func newChurnRig(t *testing.T, c churnCase, eager bool) *churnRig {
	t.Helper()
	sim := eventsim.New()
	pool, err := mbuf.NewPool(mbuf.PoolConfig{Name: "churn", Capacity: 256})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPort(sim, PortConfig{ID: 0, RateBps: 10e9, RxQueues: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := c.gen
	cfg.Port, cfg.Pool, cfg.ChurnPerSec = p, pool, 1
	g, err := NewGenerator(sim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g.interChurn = max(g.interBurst*c.num/c.den, 1)
	r := &churnRig{t: t, sim: sim, pool: pool, port: p, g: g, eager: eager,
		buf: make([]*mbuf.Mbuf, 64), burstAt: map[eventsim.Time]bool{}}
	burstFn := g.burstFn
	g.burstFn = func() {
		sent := g.Sent()
		if !g.stop {
			r.burstAt[sim.Now()] = true
		}
		burstFn()
		for _, f := range g.pend[len(g.pend)-int(g.Sent()-sent):] {
			r.frames = append(r.frames, churnFrame{flow: f.flow, due: f.due})
		}
	}
	sim.Run(c.startAt)
	r.start()
	return r
}

// start starts the generator; on the eager side the lazy process is kept
// off and an event chain runs churn instead, drawing its first seq right
// after Start drew the burst's, as Start once did.
func (r *churnRig) start() {
	r.g.Start()
	if !r.eager {
		return
	}
	r.g.churnAt = noChurn
	if !r.live {
		r.live = true
		r.sim.After(r.g.interChurn, r.churn)
	}
}

// churn is the eager side's churn event: the generator's step as it was
// before steps were applied where flows are drawn.
func (r *churnRig) churn() {
	g := r.g
	if g.stop {
		r.live = false
		return
	}
	r.churnAt = append(r.churnAt, r.sim.Now())
	slot := g.next() % uint64(len(g.flowIDs))
	g.flowIDs[slot] = g.nextFlowID
	g.nextFlowID++
	g.churned++
	r.sim.After(g.interChurn, r.churn)
}

// run runs the Sim to until and reads every RX queue empty.
func (r *churnRig) run(until eventsim.Time) {
	r.sim.Run(until)
	for q := 0; q < r.port.Queues(); q++ {
		for {
			n := r.port.RxBurst(q, r.buf)
			if n == 0 {
				break
			}
			for _, m := range r.buf[:n] {
				if err := r.pool.Free(m); err != nil {
					r.t.Fatal(err)
				}
			}
		}
	}
}

// ties counts the eager side's churn steps that fell on the instant of a
// burst that drew flows.
func (r *churnRig) ties() int {
	n := 0
	for _, at := range r.churnAt {
		if r.burstAt[at] {
			n++
		}
	}
	return n
}

// checkChurn drives both sides through c and, after every Run slice,
// requires the same frames on the wire (flow and due instant), the same
// Churned and Sent. It returns the eager side's ties.
func checkChurn(t *testing.T, c churnCase) int {
	t.Helper()
	lazy, eager := newChurnRig(t, c, false), newChurnRig(t, c, true)
	horizon := c.startAt + 400*lazy.g.interBurst
	i, checked := 0, 0
	step := func() {
		until := lazy.sim.Now() + c.slices[i%len(c.slices)]
		i++
		lazy.run(until)
		eager.run(until)
		if err := compareChurnRigs(lazy, eager, checked); err != nil {
			t.Fatal(err)
		}
		checked = len(eager.frames)
	}
	for lazy.sim.Now() < c.startAt+100*lazy.g.interBurst {
		step()
	}
	if c.retarget > 0 {
		for _, r := range []*churnRig{lazy, eager} {
			if err := r.g.SetOfferedWireBps(c.retarget); err != nil {
				t.Fatal(err)
			}
		}
	}
	for lazy.sim.Now() < c.startAt+200*lazy.g.interBurst {
		step()
	}
	if c.restart {
		lazy.g.Stop()
		eager.g.Stop()
		step()
		lazy.start()
		eager.start()
	}
	for lazy.sim.Now() < horizon {
		step()
	}
	lazy.g.Stop()
	eager.g.Stop()
	for j := 0; j < 8; j++ {
		step()
	}
	return eager.ties()
}

// compareChurnRigs requires the same Sent, the same frames from the
// from-th on, and the same Churned of both sides. It reports
// the first difference; a check that passes costs no t.Helper call, which
// every slice would pay.
func compareChurnRigs(lazy, eager *churnRig, from int) error {
	now := lazy.sim.Now()
	if ls, es := lazy.g.Sent(), eager.g.Sent(); ls != es {
		return fmt.Errorf("at %d: the lazy generator sent %d frames, the eager %d", now, ls, es)
	}
	for k := from; k < len(eager.frames); k++ {
		if l, e := lazy.frames[k], eager.frames[k]; l != e {
			return fmt.Errorf("at %d: frame %d is flow %d due at %d on the lazy side, flow %d due at %d on the eager",
				now, k, l.flow, l.due, e.flow, e.due)
		}
	}
	if lc, ec := lazy.g.Churned(), eager.g.Churned(); lc != ec {
		return fmt.Errorf("at %d: %d churn steps on the lazy side, %d on the eager", now, lc, ec)
	}
	return nil
}

// churnRatios are the churn intervals the oracle sweeps, in burst
// intervals: ½×, 1×, 2× and 3× tie with burst instants exactly, the rest
// now and then or never.
var churnRatios = [][2]eventsim.Time{{1, 2}, {1, 1}, {2, 1}, {3, 1}, {1, 3}, {7, 5}}

// TestChurnMatchesEager holds the lazy churn process to an event per step
// over uniform and Zipf flows, bursts of 1, 3 and 32, churn intervals that
// tie with burst instants, an offered-rate change mid-run and a stop and
// start: the same flows drawn for the same frames, the same births and
// deaths, whichever of a churn step and a burst on one instant was armed
// first going first.
func TestChurnMatchesEager(t *testing.T) {
	ties := 0
	for _, zipf := range []float64{0, 1.3} {
		for _, burst := range []int{1, 3, 32} {
			for ri, ratio := range churnRatios[:4] {
				for v := 0; v < 4; v++ {
					c := churnCase{
						gen:     GeneratorConfig{FrameSize: 64 + 100*v, OfferedWireBps: 10e9 / float64(1+v%2), Burst: burst, Flows: 1 + 40*ri, ZipfSkew: zipf},
						num:     ratio[0],
						den:     ratio[1],
						startAt: eventsim.Time(v) * 777,
						restart: v >= 2,
					}
					if v%2 == 0 {
						c.retarget = 3e9
					}
					// Slices of whole half burst intervals end on burst
					// instants; the odd one falls anywhere.
					half := newChurnRig(t, c, false).g.interBurst / 2
					c.slices = []eventsim.Time{half, 2 * half, 3 * half, eventsim.Time(1000 + 3001*v)}[v:]
					ties += checkChurn(t, c)
				}
			}
		}
	}
	if ties == 0 {
		t.Fatal("no churn step fell on a burst instant")
	}
	t.Logf("%d churn steps on a burst instant", ties)
}

// FuzzChurnMatchesEager is TestChurnMatchesEager on configurations drawn
// from the seed.
func FuzzChurnMatchesEager(f *testing.F) {
	for seed := uint64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		rng := rand.New(rand.NewSource(int64(seed)))
		c := churnCase{
			gen: GeneratorConfig{
				FrameSize:      64 + rng.Intn(1500-64+1),
				OfferedWireBps: 10e9 / float64(1+rng.Intn(4)),
				Burst:          1 + rng.Intn(32),
				Flows:          1 + rng.Intn(256),
			},
			startAt: eventsim.Time(rng.Intn(100_000)),
			restart: rng.Intn(2) == 0,
		}
		if rng.Intn(2) == 0 {
			c.gen.ZipfSkew = 1.1 + rng.Float64()
		}
		ratio := churnRatios[rng.Intn(len(churnRatios))]
		c.num, c.den = ratio[0], ratio[1]
		if rng.Intn(2) == 0 {
			c.retarget = 10e9 / float64(1+rng.Intn(4))
		}
		probe := newChurnRig(t, c, false)
		for range 1 + rng.Intn(4) {
			// Mostly whole multiples of half a burst interval, so that
			// slices end on the instants where steps and bursts tie.
			d := probe.g.interBurst / 2 * eventsim.Time(1+rng.Intn(6))
			if rng.Intn(3) == 0 {
				d = eventsim.Time(1 + rng.Int63n(int64(4*probe.g.interBurst)))
			}
			c.slices = append(c.slices, max(d, 1))
		}
		checkChurn(t, c)
	})
}
