package core

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/opencloudnext/dhl-go/internal/dhlproto"
	"github.com/opencloudnext/dhl-go/internal/mbuf"
)

// TestDistributorRuns holds the Distributor, which hands each run of
// consecutive records of one NF to its OBQ as one burst, to per-packet
// delivery: a reference in the test routes every record on its own, and
// each NF's OBQ contents and order, the NF's returned count and the
// transfer counters must come out the same. The batches interleave two
// NFs' records, break a run with an nf_id mismatch, with a record that
// does not fit its mbuf (SetLen fails) and with an NF whose OBQ fills
// mid-run, and carry records for a closed NF and for no NF at all. Each
// OBQ starts with all but room of its slots taken by filler packets, so
// a run of room+1 records fills it.
func TestDistributorRuns(t *testing.T) {
	// rec is one record of the batch: the NF whose original it is, the
	// nf_id the response carries for it (0: the same), and whether its
	// payload outgrows the mbuf.
	type rec struct {
		owner, says int
		big         bool
	}
	const a, b, closed, unknown = 1, 2, 3, 9
	const room = 7
	for _, tc := range []struct {
		name string
		recs []rec
	}{
		{"interleaved", []rec{{owner: a}, {owner: a}, {owner: b}, {owner: b}, {owner: a}, {owner: b}, {owner: a}, {owner: a}, {owner: a}}},
		{"mismatch mid-run", []rec{{owner: a}, {owner: a}, {owner: a, says: b}, {owner: a}, {owner: a}, {owner: b}}},
		{"mismatch at a run's edge", []rec{{owner: a}, {owner: b, says: a}, {owner: a}, {owner: b}}},
		{"SetLen failure mid-run", []rec{{owner: b}, {owner: b}, {owner: b, big: true}, {owner: b}, {owner: a}}},
		{"OBQ fills mid-run", []rec{{owner: b}, {owner: a}, {owner: a}, {owner: a}, {owner: a}, {owner: a}, {owner: a}, {owner: a}, {owner: a}, {owner: a}, {owner: b}}},
		{"closed and unknown NFs", []rec{{owner: a}, {owner: closed}, {owner: closed}, {owner: a}, {owner: unknown}, {owner: unknown}, {owner: b}}},
		{"one record", []rec{{owner: b}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newPoolRig(t, Config{}, 4096)
			for _, name := range []string{"a", "b", "closed"} {
				if _, err := r.rt.Register(name, 0); err != nil {
					t.Fatal(err)
				}
			}
			if err := r.rt.Unregister(closed); err != nil {
				t.Fatal(err)
			}
			r.settle()
			r.rt.StopCores(0)
			tx, rx := r.rt.nodeTx[0], r.rt.nodeRx[0]
			before, err := r.rt.Stats(0)
			if err != nil {
				t.Fatal(err)
			}

			// The reference: every record delivered on its own.
			want := TransferStats{}
			wantOBQ := map[int][]string{}
			fill := r.rt.nfs[a-1].obq.Capacity() - room
			r.fillOBQ(t, a, room)
			r.fillOBQ(t, b, room)
			payload := func(i int, big bool) []byte {
				if big {
					return bytes.Repeat([]byte{byte(i)}, mbuf.DefaultDataRoom-mbuf.DefaultHeadroom+1)
				}
				return []byte(fmt.Sprintf("record %d", i))
			}
			for i, rc := range tc.recs {
				switch {
				case rc.says != 0 && rc.says != rc.owner:
					want.NFIDMismatches++
					want.DropMismatch++
				case rc.big:
					want.DropCorrupt++
				case rc.owner == unknown:
					want.PktsDistributed++
					want.DropUnknownNF++
				case rc.owner == closed:
					want.PktsDistributed++
					want.DropNFClosed++
				case len(wantOBQ[rc.owner]) == room:
					want.PktsDistributed++
					want.DropOBQFull++
				default:
					want.PktsDistributed++
					wantOBQ[rc.owner] = append(wantOBQ[rc.owner], string(payload(i, false)))
				}
			}

			ib := tx.getInflight()
			ib.buf = tx.arena.lease()
			ib.outSeg = tx.arena.lease()
			for i, rc := range tc.recs {
				m, err := r.pool.Alloc()
				if err != nil {
					t.Fatal(err)
				}
				m.NFID = uint16(rc.owner)
				ib.meta = append(ib.meta, m)
				says := rc.owner
				if rc.says != 0 {
					says = rc.says
				}
				if ib.outSeg, err = dhlproto.AppendRecordFit(ib.outSeg, uint16(says), 1, payload(i, rc.big)); err != nil {
					t.Fatal(err)
				}
			}
			ib.out = ib.outSeg
			rx.distribute(ib)

			after, err := r.rt.Stats(0)
			if err != nil {
				t.Fatal(err)
			}
			got := TransferStats{
				PktsDistributed: after.PktsDistributed - before.PktsDistributed,
				NFIDMismatches:  after.NFIDMismatches - before.NFIDMismatches,
				DropMismatch:    after.DropMismatch - before.DropMismatch,
				DropCorrupt:     after.DropCorrupt - before.DropCorrupt,
				DropUnknownNF:   after.DropUnknownNF - before.DropUnknownNF,
				DropNFClosed:    after.DropNFClosed - before.DropNFClosed,
				DropOBQFull:     after.DropOBQFull - before.DropOBQFull,
			}
			if got != want {
				t.Errorf("counters %+v, per-packet delivery gives %+v", got, want)
			}
			out := make([]*mbuf.Mbuf, fill+2*room)
			for _, id := range []int{a, b} {
				n, err := r.rt.ReceivePackets(NFID(id), out)
				if err != nil {
					t.Fatal(err)
				}
				var gotOBQ []string
				for i, m := range out[:n] {
					if i >= fill {
						gotOBQ = append(gotOBQ, string(m.Data()))
					}
					if err := r.pool.Free(m); err != nil {
						t.Fatal(err)
					}
				}
				if fmt.Sprint(gotOBQ) != fmt.Sprint(wantOBQ[id]) {
					t.Errorf("NF %d's OBQ holds %q, per-packet delivery gives %q", id, gotOBQ, wantOBQ[id])
				}
			}
			checkNoLeaks(t, r)
		})
	}
}
