package mbuf

// Only this package's tests read what follows; the rest of the module
// has no use for it.

// Adj trims n bytes from the packet head (rte_pktmbuf_adj).
func (m *Mbuf) Adj(n int) error {
	if n < 0 || n > m.dataLen {
		return ErrNoHeadroom
	}
	m.dataOff += n
	m.dataLen -= n
	return nil
}

// Retain increments the mbuf's reference count (rte_mbuf_refcnt_update +1).
func (p *Pool) Retain(m *Mbuf) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if m.pool != p {
		return ErrForeignMbuf
	}
	if m.refcnt <= 0 {
		return ErrDoubleFree
	}
	m.refcnt++
	return nil
}
