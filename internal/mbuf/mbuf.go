// Package mbuf reimplements the parts of DPDK's rte_mbuf/rte_mempool that
// the DHL prototype depends on: fixed-size, pre-allocated packet buffers
// with headroom and a pooled lifecycle.
//
// The DHL paper (§VI.3) notes that DHL deliberately adopts rte_mbuf as its
// unified packet structure ("highly optimized for networking packets, and
// has a limited maximum data size for 64 KB"); this package preserves those
// limits so the framework code above it exercises the same constraints.
package mbuf

import (
	"errors"
	"fmt"
)

const (
	// DefaultHeadroom mirrors RTE_PKTMBUF_HEADROOM.
	DefaultHeadroom = 128
	// DefaultDataRoom mirrors RTE_MBUF_DEFAULT_DATAROOM (2 KB) plus headroom.
	DefaultDataRoom = 2048 + DefaultHeadroom
	// MaxDataLen mirrors the 64 KB rte_mbuf data size limit called out in §VI.3.
	MaxDataLen = 64 * 1024
)

// Errors returned by mbuf operations.
var (
	ErrPoolExhausted = errors.New("mbuf: pool exhausted")
	ErrDoubleFree    = errors.New("mbuf: double free")
	ErrForeignMbuf   = errors.New("mbuf: mbuf does not belong to this pool")
	ErrNoHeadroom    = errors.New("mbuf: not enough headroom")
	ErrNoTailroom    = errors.New("mbuf: not enough tailroom")
	ErrTooLarge      = errors.New("mbuf: data length exceeds 64KB rte_mbuf limit")
)

// Mbuf is a packet buffer. The DHL-specific tag pair (NFID, AccID) from
// paper §IV-B rides in dedicated fields, mirroring the prototype's use of
// rte_mbuf dynamic fields.
type Mbuf struct {
	buf     []byte // full buffer including headroom
	dataOff int
	dataLen int

	pool   *Pool
	refcnt int32 // 1 while allocated, 0 in the pool: catches a double free
	index  int   // slot in pool, for ownership checks

	// NFID identifies the network function that owns the packet (paper: nf_id).
	NFID uint16
	// AccID identifies the target accelerator module (paper: acc_id).
	AccID uint16
	// Port is the ingress port number.
	Port uint16
	// RxTimestamp records virtual ingress time in picoseconds; used for the
	// end-to-end latency measurements of Figure 6.
	RxTimestamp int64
	// QueuedAt records when SendPackets enqueued the packet onto the
	// shared IBQ (picoseconds on the simulation clock). Stamped only when
	// telemetry is armed — the TX core consumes it for the IBQ-wait stage
	// histogram and zeroes it at dequeue; zero means "unstamped".
	QueuedAt int64
	// Userdata carries per-packet NF scratch state (e.g. matched rule IDs).
	Userdata uint64
	// Status reports how the runtime processed the packet on its way to
	// the OBQ: graceful degradation surfaces fallback and unprocessed
	// deliveries here instead of dropping silently.
	Status Status
}

// Status is the per-packet processing disposition the transfer layer
// stamps before OBQ delivery.
type Status uint8

// Packet statuses.
const (
	// StatusOK: processed by the accelerator module as requested.
	StatusOK Status = iota
	// StatusFallback: the accelerator was quarantined; a registered
	// software fallback produced this (functionally equivalent) result.
	StatusFallback
	// StatusUnprocessed: the accelerator was quarantined and no fallback
	// is registered; the packet is returned untouched so the NF can
	// decide (retry, software path, drop) instead of losing it.
	StatusUnprocessed
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusFallback:
		return "fallback"
	case StatusUnprocessed:
		return "unprocessed"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// Data returns the packet payload as a mutable slice aliasing the buffer.
func (m *Mbuf) Data() []byte { return m.buf[m.dataOff : m.dataOff+m.dataLen] }

// Len reports the packet data length.
func (m *Mbuf) Len() int { return m.dataLen }

// Tailroom reports bytes available after the packet data.
func (m *Mbuf) Tailroom() int { return len(m.buf) - m.dataOff - m.dataLen }

// Reset re-initializes the mbuf to an empty packet with default headroom,
// preserving pool ownership. Called automatically on allocation.
func (m *Mbuf) Reset() {
	m.dataOff = DefaultHeadroom
	if m.dataOff > len(m.buf) {
		m.dataOff = len(m.buf)
	}
	m.dataLen = 0
	m.NFID = 0
	m.AccID = 0
	m.Port = 0
	m.RxTimestamp = 0
	m.QueuedAt = 0
	m.Userdata = 0
	m.Status = StatusOK
}

// Append grows the packet by n bytes at the tail and returns the new region.
func (m *Mbuf) Append(n int) ([]byte, error) {
	if n < 0 || m.Tailroom() < n {
		return nil, ErrNoTailroom
	}
	if m.dataLen+n > MaxDataLen {
		return nil, ErrTooLarge
	}
	start := m.dataOff + m.dataLen
	m.dataLen += n
	return m.buf[start : start+n], nil
}

// AppendBytes copies p onto the packet tail.
func (m *Mbuf) AppendBytes(p []byte) error {
	dst, err := m.Append(len(p))
	if err != nil {
		return err
	}
	copy(dst, p)
	return nil
}

// Prepend grows the packet by n bytes at the head (into headroom) and
// returns the new region. Used for pushing headers.
func (m *Mbuf) Prepend(n int) ([]byte, error) {
	if n < 0 || m.dataOff < n {
		return nil, ErrNoHeadroom
	}
	if m.dataLen+n > MaxDataLen {
		return nil, ErrTooLarge
	}
	m.dataOff -= n
	m.dataLen += n
	return m.buf[m.dataOff : m.dataOff+n], nil
}

// Trim removes n bytes from the packet tail (rte_pktmbuf_trim).
func (m *Mbuf) Trim(n int) error {
	if n < 0 || n > m.dataLen {
		return ErrNoTailroom
	}
	m.dataLen -= n
	return nil
}

// SetLen forces the data length (bounded by buffer capacity), zero-extending
// semantics are the caller's responsibility. Useful for synthetic workloads.
func (m *Mbuf) SetLen(n int) error {
	if n < 0 || m.dataOff+n > len(m.buf) {
		return ErrNoTailroom
	}
	if n > MaxDataLen {
		return ErrTooLarge
	}
	m.dataLen = n
	return nil
}

// String summarizes the mbuf for diagnostics.
func (m *Mbuf) String() string {
	return fmt.Sprintf("mbuf{len=%d nf=%d acc=%d port=%d ref=%d}",
		m.dataLen, m.NFID, m.AccID, m.Port, m.refcnt)
}
