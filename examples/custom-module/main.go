// Custom-module example: adding a self-built accelerator module to the
// accelerator module database (§IV-C: "DHL allows software developers to
// add their self-built accelerator modules ... as long as following the
// specified design specifications").
//
// The example implements a "flow-compression" hardware function (one of
// the accelerator types the paper lists alongside encryption and pattern
// matching), registers it with the runtime, loads it through partial
// reconfiguration, and round-trips packets through it.
//
// Run with: go run ./examples/custom-module
package main

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"io"
	"log"
	"strings"

	dhl "github.com/opencloudnext/dhl-go"
	"github.com/opencloudnext/dhl-go/internal/dhlproto"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
)

// compressModule is the self-built accelerator: it DEFLATE-compresses
// every record payload. A real deployment would provide the matching
// Verilog for a reconfigurable part; here the functional model plugs into
// the same Module interface the stock modules use.
type compressModule struct {
	level int
}

// Configure accepts a single-byte compression level (1..9).
func (c *compressModule) Configure(params []byte) error {
	if len(params) != 1 || params[0] < 1 || params[0] > 9 {
		return fmt.Errorf("compress: want a single level byte 1..9, got %v", params)
	}
	c.level = int(params[0])
	return nil
}

// ProcessBatch compresses each record, appending responses to dst.
func (c *compressModule) ProcessBatch(dst, in []byte) ([]byte, error) {
	if c.level == 0 {
		return dst, fmt.Errorf("compress: not configured")
	}
	err := dhlproto.Walk(in, func(rec dhlproto.Record) error {
		var buf bytes.Buffer
		w, werr := flate.NewWriter(&buf, c.level)
		if werr != nil {
			return werr
		}
		if _, werr := w.Write(rec.Payload); werr != nil {
			return werr
		}
		if werr := w.Close(); werr != nil {
			return werr
		}
		var aerr error
		dst, aerr = dhlproto.AppendRecord(dst, rec.NFID, rec.AccID, buf.Bytes())
		return aerr
	})
	return dst, err
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	sys, err := dhl.Open(dhl.SystemConfig{})
	if err != nil {
		return err
	}

	// Register the self-built module in the accelerator module database.
	// Resource figures follow the base-design specification (a 256-bit
	// AXI4-stream datapath at 250 MHz) with a plausible footprint.
	spec := dhl.ModuleSpec{
		Name:           "flow-compression",
		LUTs:           14200,
		BRAM:           96,
		ThroughputBps:  25e9,
		DelayCycles:    180,
		BitstreamBytes: 4 * 1024 * 1024,
		New:            func() dhl.Module { return &compressModule{} },
	}
	if err := sys.Control().RegisterModule(spec); err != nil {
		return err
	}

	nfID, err := sys.Register("compressing-nf", 0)
	if err != nil {
		return err
	}
	accID, err := sys.SearchByName("flow-compression", 0)
	if err != nil {
		return err
	}
	if err := sys.AccConfigure(accID, []byte{9}); err != nil {
		return err
	}
	sys.Settle()
	fmt.Println("hardware function table:")
	for _, row := range sys.Control().HFTable() {
		fmt.Println(" ", row)
	}

	// Push highly compressible payloads through the hardware function.
	payload := []byte(strings.Repeat("redundancy elimination! ", 40))
	const nPkts = 4
	pkts := make([]*dhl.Packet, nPkts)
	for i := range pkts {
		m, aerr := sys.Pool().Alloc()
		if aerr != nil {
			return aerr
		}
		if aerr := m.AppendBytes(payload); aerr != nil {
			return errors.Join(aerr, sys.Pool().Free(m))
		}
		m.AccID = uint16(accID)
		pkts[i] = m
	}
	if _, err := sys.SendPackets(nfID, pkts); err != nil {
		return err
	}
	sys.Sim().Run(sys.Sim().Now() + 200*eventsim.Microsecond)

	out := make([]*dhl.Packet, nPkts)
	n, err := sys.ReceivePackets(nfID, out)
	if err != nil {
		return err
	}
	fmt.Printf("\n%d packets round-tripped through flow-compression:\n", n)
	for i := 0; i < n; i++ {
		comp := out[i].Data()
		r := flate.NewReader(bytes.NewReader(comp))
		plain, rerr := io.ReadAll(r)
		if rerr != nil {
			return fmt.Errorf("packet %d: decompress: %w", i, rerr)
		}
		if !bytes.Equal(plain, payload) {
			return fmt.Errorf("packet %d: payload mismatch after round trip", i)
		}
		fmt.Printf("  packet %d: %d B -> %d B (%.1f%% of original), decompression verified\n",
			i, len(payload), len(comp), 100*float64(len(comp))/float64(len(payload)))
		if perr := sys.Pool().Free(out[i]); perr != nil {
			return perr
		}
	}
	fmt.Println("\nself-built accelerator module integrated without touching the runtime")
	return nil
}
