// Package dhlproto defines the on-DMA batch encoding shared by the DHL
// Runtime's Packer/Distributor on the host side and the Dispatcher on the
// FPGA side.
//
// Per paper §IV-A3, the Packer groups packets by acc_id and "encodes the
// 2-Byte tag pair (nf_id, acc_id) into the header of the data field" before
// batching them into one DMA transfer; the FPGA Dispatcher routes records
// by acc_id and the host Distributor demultiplexes returned records to
// private OBQs by nf_id.
package dhlproto

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// RecordOverhead is the per-record header size: nf_id(2) + acc_id(2) +
// payload length(2).
const RecordOverhead = 6

// Errors returned by the codec.
var (
	// ErrCorrupt reports a malformed batch.
	ErrCorrupt = errors.New("dhlproto: corrupt batch")
	// ErrRecordTooLarge reports a payload over 64 KB-RecordOverhead.
	ErrRecordTooLarge = errors.New("dhlproto: record too large")
	// ErrBatchFull reports an append that would exceed the batch buffer's
	// existing capacity (AppendRecordFit/AppendRecordHeader never grow the
	// buffer — that is the point of the arena-backed encode path).
	ErrBatchFull = errors.New("dhlproto: batch buffer full")
)

// Record is one packet inside a batch.
type Record struct {
	NFID    uint16
	AccID   uint16
	Payload []byte
}

// AppendRecord appends one encoded record to batch and returns the
// extended slice.
func AppendRecord(batch []byte, nfID, accID uint16, payload []byte) ([]byte, error) {
	if len(payload) > 0xffff {
		return batch, fmt.Errorf("%w: %d bytes", ErrRecordTooLarge, len(payload))
	}
	var hdr [RecordOverhead]byte
	binary.BigEndian.PutUint16(hdr[0:2], nfID)
	binary.BigEndian.PutUint16(hdr[2:4], accID)
	binary.BigEndian.PutUint16(hdr[4:6], uint16(len(payload)))
	batch = append(batch, hdr[:]...)
	return append(batch, payload...), nil
}

// AppendRecordFit is AppendRecord constrained to batch's existing
// capacity: it never reallocates, returning ErrBatchFull (and the batch
// unchanged) when the record does not fit. It is the Packer's hot-path
// encoder into arena-leased segments, where a silent realloc would leak
// the segment out of the freelist. Errors are bare sentinels so the
// encoder stays allocation-free.
//
//dhl:hotpath
func AppendRecordFit(batch []byte, nfID, accID uint16, payload []byte) ([]byte, error) {
	if len(payload) > 0xffff {
		return batch, ErrRecordTooLarge
	}
	if len(batch)+RecordOverhead+len(payload) > cap(batch) {
		return batch, ErrBatchFull
	}
	batch = binary.BigEndian.AppendUint16(batch, nfID)
	batch = binary.BigEndian.AppendUint16(batch, accID)
	batch = binary.BigEndian.AppendUint16(batch, uint16(len(payload)))
	return append(batch, payload...), nil
}

// AppendRecordHeader appends only the 6-byte record header for a payload
// of payloadLen bytes the caller will append itself — the encode shape
// accelerator modules use to stream a response payload into a leased
// output buffer without staging it separately first.
func AppendRecordHeader(batch []byte, nfID, accID uint16, payloadLen int) ([]byte, error) {
	if payloadLen < 0 || payloadLen > 0xffff {
		return batch, ErrRecordTooLarge
	}
	batch = binary.BigEndian.AppendUint16(batch, nfID)
	batch = binary.BigEndian.AppendUint16(batch, accID)
	return binary.BigEndian.AppendUint16(batch, uint16(payloadLen)), nil
}

// Walk decodes batch record by record, invoking fn for each. The payload
// slice aliases batch. Walk stops early if fn returns an error.
func Walk(batch []byte, fn func(Record) error) error {
	off := 0
	for off < len(batch) {
		if len(batch)-off < RecordOverhead {
			return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(batch)-off)
		}
		nfID := binary.BigEndian.Uint16(batch[off : off+2])
		accID := binary.BigEndian.Uint16(batch[off+2 : off+4])
		plen := int(binary.BigEndian.Uint16(batch[off+4 : off+6]))
		off += RecordOverhead
		if len(batch)-off < plen {
			return fmt.Errorf("%w: record wants %d bytes, %d remain", ErrCorrupt, plen, len(batch)-off)
		}
		if err := fn(Record{NFID: nfID, AccID: accID, Payload: batch[off : off+plen]}); err != nil {
			return err
		}
		off += plen
	}
	return nil
}

// Cursor decodes a batch record by record without the callback (and the
// closure allocation) of Walk; it is the Distributor's hot-path decoder.
// The zero Cursor is ready after SetBatch; payloads alias the batch.
type Cursor struct {
	batch []byte
	off   int
}

// SetBatch (re)positions the cursor at the start of a batch.
func (c *Cursor) SetBatch(batch []byte) {
	c.batch = batch
	c.off = 0
}

// Next decodes the next record into rec, reporting false at the end of
// the batch. Framing violations return the bare ErrCorrupt sentinel so
// the decoder stays allocation-free; callers needing detail can report
// Offset themselves.
//
//dhl:hotpath
func (c *Cursor) Next(rec *Record) (bool, error) {
	if c.off >= len(c.batch) {
		return false, nil
	}
	if len(c.batch)-c.off < RecordOverhead {
		return false, ErrCorrupt
	}
	rec.NFID = binary.BigEndian.Uint16(c.batch[c.off : c.off+2])
	rec.AccID = binary.BigEndian.Uint16(c.batch[c.off+2 : c.off+4])
	plen := int(binary.BigEndian.Uint16(c.batch[c.off+4 : c.off+6]))
	c.off += RecordOverhead
	if len(c.batch)-c.off < plen {
		return false, ErrCorrupt
	}
	rec.Payload = c.batch[c.off : c.off+plen]
	c.off += plen
	return true, nil
}
