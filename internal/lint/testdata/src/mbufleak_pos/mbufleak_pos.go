// Package mbufleak_pos holds deliberate mbuf-lifecycle violations the
// mbufleak analyzer must flag.
package mbufleak_pos

import "github.com/opencloudnext/dhl-go/internal/mbuf"

// LeakOnEarlyReturn allocates and then returns on a non-error path
// without freeing or handing the mbuf off.
func LeakOnEarlyReturn(p *mbuf.Pool) error {
	m, err := p.Alloc()
	if err != nil {
		return err
	}
	if m.Len() == 0 {
		return nil // leak: m is still owned here
	}
	return p.Free(m)
}

// LeakBulkAtExit allocates a batch and falls off the end still owning it.
func LeakBulkAtExit(p *mbuf.Pool, dst []*mbuf.Mbuf) {
	if err := p.AllocBulk(dst); err != nil {
		return
	}
	// leak: dst's mbufs are never freed or handed off
}
