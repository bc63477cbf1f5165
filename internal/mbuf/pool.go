package mbuf

import "fmt"

// Pool is a fixed-capacity packet-buffer pool, the stand-in for
// rte_pktmbuf_pool. Every mbuf exists from construction and is recycled
// through a LIFO free list; the buffer memory behind them is a hot slab up
// front (the first hotSlots slots, the ones a closed loop or a latency run
// keeps reusing) and then slabs that grow geometrically as the pool first
// hands out more: the first slot past what is backed, idx, brings in
// [idx, 4·idx), so a pool costs about what it hands out, not what it
// could, in at most ⌈log₄(capacity / hotSlots)⌉ more heap objects.
//
// Pool is not safe for concurrent use. It belongs to the goroutine that
// drives the simulator (Sim.Run), like the rest of the data path; a reader
// on another goroutine — the dhl_mbuf_in_use gauge of a served system —
// goes through that loop (System.Serve renders metrics there).
type Pool struct {
	name  string
	slots []Mbuf
	free  []int

	allocs uint64
	frees  uint64
	fails  uint64
}

// hotSlots is how many slots are backed at construction. The free list pops
// slot 0 first, so a pool that never has more than this many mbufs out
// never leaves them.
const hotSlots = 1024

// PoolConfig parameterizes NewPool.
type PoolConfig struct {
	// Name identifies the pool in diagnostics.
	Name string
	// Capacity is the number of mbufs pre-allocated. Every mbuf's buffer
	// is DefaultDataRoom bytes, headroom included.
	Capacity int
}

// NewPool pre-allocates a pool of cfg.Capacity mbufs.
func NewPool(cfg PoolConfig) (*Pool, error) {
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("mbuf: pool %q: capacity must be positive, got %d", cfg.Name, cfg.Capacity)
	}
	p := &Pool{
		name:  cfg.Name,
		slots: make([]Mbuf, cfg.Capacity),
		free:  make([]int, cfg.Capacity),
	}
	for i := range p.slots {
		p.slots[i] = Mbuf{pool: p, index: i}
		// LIFO free list: hot buffers are reused first, like mempool caches.
		p.free[i] = cfg.Capacity - 1 - i
	}
	p.back(0, min(cfg.Capacity, hotSlots))
	return p, nil
}

// back gives slots [lo, hi) their buffers, out of one slab. It is the cold
// constructor behind NewPool and grow;
// //go:noinline keeps its allocation out of Alloc's and AllocBulk's
// //dhl:hotpath ranges under escape analysis.
//
//go:noinline
func (p *Pool) back(lo, hi int) {
	slab := make([]byte, (hi-lo)*DefaultDataRoom)
	for i := lo; i < hi; i++ {
		off := (i - lo) * DefaultDataRoom
		p.slots[i].buf = slab[off : off+DefaultDataRoom : off+DefaultDataRoom]
	}
}

// grow backs the slab that starts at idx, the first slot without a buffer:
// the free list hands slots out lowest first until they come back, so
// every slot from idx on is unbacked and every one below it backed.
func (p *Pool) grow(idx int) {
	p.back(idx, min(4*idx, len(p.slots)))
}

// Name reports the pool's name.
func (p *Pool) Name() string { return p.name }

// Capacity reports the total number of mbufs.
func (p *Pool) Capacity() int { return len(p.slots) }

// Available reports how many mbufs are currently free.
func (p *Pool) Available() int { return len(p.free) }

// InUse reports how many mbufs are currently allocated.
func (p *Pool) InUse() int { return p.Capacity() - p.Available() }

// Alloc takes one mbuf from the pool, reset and with refcount 1.
//
//dhl:hotpath
func (p *Pool) Alloc() (*Mbuf, error) {
	if len(p.free) == 0 {
		p.fails++
		return nil, ErrPoolExhausted
	}
	idx := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	m := &p.slots[idx]
	if m.buf == nil {
		p.grow(idx)
	}
	m.Reset()
	m.refcnt = 1
	p.allocs++
	return m, nil
}

// AllocBulk fills dst with freshly allocated mbufs. Mirroring
// rte_pktmbuf_alloc_bulk, it is all-or-nothing: on exhaustion it frees any
// partial allocation and returns ErrPoolExhausted.
//
//dhl:hotpath
func (p *Pool) AllocBulk(dst []*Mbuf) error {
	if len(p.free) < len(dst) {
		p.fails++
		return ErrPoolExhausted
	}
	for i := range dst {
		idx := p.free[len(p.free)-1]
		p.free = p.free[:len(p.free)-1]
		m := &p.slots[idx]
		if m.buf == nil {
			p.grow(idx)
		}
		m.Reset()
		m.refcnt = 1
		dst[i] = m
		p.allocs++
	}
	return nil
}

// Free returns m to the pool. Freeing an already-free mbuf returns
// ErrDoubleFree.
//
//dhl:hotpath
func (p *Pool) Free(m *Mbuf) error {
	if m == nil {
		return nil
	}
	if m.pool != p {
		return ErrForeignMbuf
	}
	if m.refcnt <= 0 {
		return ErrDoubleFree
	}
	m.refcnt = 0
	p.free = append(p.free, m.index)
	p.frees++
	return nil
}

// FreeBulk frees a batch, skipping nil entries and stopping at the first
// error: what came before it stays freed.
//
//dhl:hotpath
func (p *Pool) FreeBulk(ms []*Mbuf) error {
	for _, m := range ms {
		if err := p.Free(m); err != nil {
			return err
		}
	}
	return nil
}
