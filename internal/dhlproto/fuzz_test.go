package dhlproto

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzCursorMatchesWalk holds the Distributor's decoder to the reference
// one on any bytes, above all on the corrupted batches the DMA and module
// faults hand it: Cursor.Next must yield the records Walk yields and fail
// at the same record, and every payload must lie inside the batch, right
// after its own header. The corpus is well-formed batches and the same
// batches with their first header overwritten with 0xFF, which is what
// the corrupt-transfer fault writes (faultinject.CorruptBatchHeader).
func FuzzCursorMatchesWalk(f *testing.F) {
	payloads := [][][]byte{
		nil,
		{{}},
		{bytes.Repeat([]byte{0xAB}, 64)},
		{[]byte("abc"), {}, bytes.Repeat([]byte{0x11}, 1500)},
		{bytes.Repeat([]byte{0x22}, 512), bytes.Repeat([]byte{0x33}, 512), []byte{0x44}},
	}
	for i, recs := range payloads {
		var batch []byte
		for j, p := range recs {
			var err error
			if batch, err = AppendRecord(batch, uint16(i+1), uint16(j), p); err != nil {
				f.Fatal(err)
			}
		}
		f.Add(batch)
		corrupt := bytes.Clone(batch)
		for k := 0; k < RecordOverhead && k < len(corrupt); k++ {
			corrupt[k] = 0xFF
		}
		f.Add(corrupt)
	}
	f.Fuzz(func(t *testing.T, batch []byte) {
		var want []Record
		walkErr := Walk(batch, func(r Record) error {
			want = append(want, r)
			return nil
		})
		if walkErr != nil && !errors.Is(walkErr, ErrCorrupt) {
			t.Fatalf("Walk: %v, want nil or ErrCorrupt", walkErr)
		}
		var c Cursor
		c.SetBatch(batch)
		off := 0
		for i := 0; ; i++ {
			var rec Record
			ok, err := c.Next(&rec)
			if err != nil || !ok {
				if i != len(want) {
					t.Fatalf("Cursor stopped after %d records (err %v), Walk yielded %d", i, err, len(want))
				}
				if (err != nil) != (walkErr != nil) || err != nil && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("Cursor ends with %v after %d records, Walk with %v", err, i, walkErr)
				}
				break
			}
			if i >= len(want) {
				t.Fatalf("Cursor yields record %d, Walk yielded %d", i, len(want))
			}
			w := want[i]
			if rec.NFID != w.NFID || rec.AccID != w.AccID || !bytes.Equal(rec.Payload, w.Payload) {
				t.Fatalf("record %d: Cursor %+v, Walk %+v", i, rec, w)
			}
			// A payload is batch[start:end]: its capacity says where it
			// starts, and it starts right after its own header.
			start := cap(batch) - cap(rec.Payload)
			end := start + len(rec.Payload)
			if start != off+RecordOverhead || end > len(batch) {
				t.Fatalf("record %d: payload at [%d:%d] of a %d-byte batch, want it at %d", i, start, end, len(batch), off+RecordOverhead)
			}
			off = end
		}
	})
}
