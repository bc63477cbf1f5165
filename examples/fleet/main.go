// Fleet example: board-level failure domains — placement, replication
// and live migration across a multi-FPGA fleet.
//
// A two-board system loads the ipsec-crypto accelerator, warms a
// load-sharing replica on the second board, then hard-kills the primary's
// board mid-traffic. The placement layer promotes the replica with a
// routing-table cutover — no ICAP write, no measurable outage — and the
// conservation ledger stays balanced across the failure. The example then
// reruns the same failure through the harness without the replica to show
// the contrast: a live migration whose MTTR is the ~29 ms ICAP re-place
// of the 5.6 MB bitstream.
//
// Run with: go run ./examples/fleet
package main

import (
	"fmt"
	"log"
	"strings"

	dhl "github.com/opencloudnext/dhl-go"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/harness"
	"github.com/opencloudnext/dhl-go/internal/hwfunc"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	sys, err := dhl.Open(dhl.SystemConfig{FPGAsPerNode: 2})
	if err != nil {
		return err
	}

	// Load ipsec-crypto: the scheduler first-fits it onto board 0.
	acc, err := sys.SearchByName(dhl.IPsecCrypto, 0)
	if err != nil {
		return err
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
		return err
	}
	if err := sys.AccConfigure(acc, blob); err != nil {
		return err
	}
	sys.Settle() // ~29 ms ICAP load of the 5.6 MB bitstream

	// Warm a replica on the second board: same bitstream, same config
	// replay, then it joins the weighted round-robin rotation.
	board, err := sys.Control().Replicate(acc, -1)
	if err != nil {
		return err
	}
	fmt.Printf("replica of acc_id %d warming on board %d\n", acc, board)
	sys.Settle()
	printPlacement(sys)

	// Pace traffic and kill board 0 mid-stream.
	nf, err := sys.Register("fleet-demo", 0)
	if err != nil {
		return err
	}
	sim, pool := sys.Sim(), sys.Pool()
	payload := make([]byte, 0, 2+256)
	payload = append(payload, 0, 0) // encrypt the whole frame
	for i := 0; i < 256; i++ {
		payload = append(payload, byte(i))
	}
	var sent, delivered, dropped int
	scratch := make([]*dhl.Packet, 64)
	drain := func() error {
		for {
			n, derr := sys.ReceivePackets(nf, scratch)
			if derr != nil {
				return derr
			}
			if n == 0 {
				return nil
			}
			for _, m := range scratch[:n] {
				if m.Status == dhl.StatusOK {
					delivered++
				} else {
					dropped++
				}
				if ferr := pool.Free(m); ferr != nil {
					return ferr
				}
			}
		}
	}
	const rounds = 40
	for round := 0; round < rounds; round++ {
		if round == rounds/2 {
			moved, oerr := sys.Control().OfflineBoard(0)
			if oerr != nil {
				return oerr
			}
			fmt.Printf("\nboard 0 hard-killed mid-traffic; rebalance moved %d accelerator(s)\n", moved)
			printPlacement(sys)
		}
		burst := make([]*dhl.Packet, 0, 8)
		for i := 0; i < 8; i++ {
			m, aerr := pool.Alloc()
			if aerr != nil {
				return aerr
			}
			if aerr := m.AppendBytes(payload); aerr != nil {
				if ferr := pool.Free(m); ferr != nil {
					return ferr
				}
				return aerr
			}
			m.AccID = uint16(acc)
			burst = append(burst, m)
		}
		n, serr := sys.SendPackets(nf, burst)
		if serr != nil {
			return serr
		}
		sent += n
		for _, m := range burst[n:] {
			if ferr := pool.Free(m); ferr != nil {
				return ferr
			}
		}
		sim.Run(sim.Now() + 50*eventsim.Microsecond)
		if derr := drain(); derr != nil {
			return derr
		}
	}
	sim.Run(sim.Now() + 5*eventsim.Millisecond)
	if err := drain(); err != nil {
		return err
	}
	st, err := sys.Stats(0)
	if err != nil {
		return err
	}
	fmt.Printf("\ntraffic across the board loss: sent %d, delivered ok %d, degraded %d\n",
		sent, delivered, dropped)
	fmt.Printf("ledger: IBQ drained %d = packed %d + staging drops %d; in-flight faults %d; mbufs in use %d\n",
		st.IBQDrained, st.PktsPacked, st.StagingDrops, st.DropFault, pool.InUse())

	// The contrast: the same board loss without a replica pays a live
	// migration (PR re-place on the surviving board).
	fmt.Println("\nharness contrast — the same loss with and without the warm replica:")
	res, err := harness.RunBoardFailover(harness.FailoverConfig{})
	if err != nil {
		return err
	}
	for _, r := range []*harness.BoardFailoverRun{&res.Baseline, &res.NoReplica, &res.Replica} {
		fmt.Printf("%-22s %s\n", r.Label, sparkline(r.Curve, res.BaselineGoodBps))
		mttr := "no outage"
		switch {
		case r.MTTRUs > 0:
			mttr = fmt.Sprintf("outage %.0f ms", r.MTTRUs/1000)
		case r.MTTRUs < 0:
			mttr = "not recovered"
		}
		fmt.Printf("%-22s %s | floor %.1f Mbps | recovered %.1f Mbps | served by board %d\n\n",
			"", mttr, r.MinRateBps/1e6, r.RecoveredGoodBps/1e6, r.FinalBoard)
	}
	fmt.Println("each column is 1 ms of goodput; the no-replica dip is the ICAP re-place")
	fmt.Println("of the bitstream on the surviving board, the replica run never dips")
	return nil
}

// printPlacement renders the fleet placement table.
func printPlacement(sys *dhl.System) {
	fmt.Println("fleet placement:")
	for _, b := range sys.Control().PlacementTable() {
		fmt.Printf("  board %d (node %d, %s): free %d LUTs, %d BRAM, %d region(s)\n",
			b.Board, b.Node, b.State, b.FreeLUTs, b.FreeBRAM, b.FreeRegions)
		for _, ep := range b.Endpoints {
			role := "replica"
			if ep.Primary {
				role = "primary"
			}
			fmt.Printf("    acc_id %d (%s) region %d: %s, weight %d, ready=%v\n",
				ep.Acc, ep.HF, ep.Region, role, ep.Weight, ep.Ready)
		}
	}
}

// sparkline renders a goodput curve against the baseline mean.
func sparkline(curve []float64, baseline float64) string {
	levels := []rune(" ▁▂▃▄▅▆▇█")
	var b strings.Builder
	for _, r := range curve {
		frac := 0.0
		if baseline > 0 {
			frac = r / baseline
		}
		i := int(frac * float64(len(levels)-1))
		if i >= len(levels) {
			i = len(levels) - 1
		}
		if i < 0 {
			i = 0
		}
		b.WriteRune(levels[i])
	}
	return b.String()
}
