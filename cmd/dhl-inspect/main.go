// Command dhl-inspect is the operator's console for a DHL system: it
// either connects to a live system's management API or spawns a
// simulated one of its own.
//
// Connect mode (-addr) drives a running system over /api/v1:
//
//	dhl-inspect -addr :9090                     overview: sys.info + health.get + placement.get + tune.auto
//	dhl-inspect -addr :9090 -cmd acc.load -args ipsec-crypto,0
//	dhl-inspect -addr :9090 -cmd acc.migrate -args 1
//	dhl-inspect -addr :9090 -cmd board.drain -args 0
//	dhl-inspect -addr :9090 -cmd tune.auto -args on
//	dhl-inspect -addr :9090 -watch 5            5 telemetry.delta long-polls
//	dhl-inspect -addr :9090 -json ...           machine-readable output
//
// -cmd sends one management RPC; -args fills its parameters
// positionally (run -cmd help for the table). The fleet surface —
// placement.get, acc.migrate, acc.replicate, board.drain/undrain/offline
// and placement.rebalance — drives the multi-board placement scheduler.
// -watch long-polls telemetry.delta and prints the per-stage latency
// delta for each active window. -json prints raw JSON instead of tables.
//
// Spawn mode (no -addr) stands up a simulated system, loads accelerator
// modules, and dumps the FPGA floorplan, resource utilization and the
// hardware function table — the operator's view of Figure 2:
//
//	dhl-inspect [-modules ipsec-crypto,pattern-matching] [-boards N] [-fill]
//	            [-chaos-seed N] [-watch N] [-serve addr]
//
// -boards spawns a fleet of N boards per node, so a second dhl-inspect
// can exercise migration and replication against the served system.
//
// -fill keeps loading copies of the first module until the board rejects
// the next one, demonstrating the §V-F packing bound.
//
// -chaos-seed arms deterministic fault injection and pushes a short burst
// of loopback traffic through the board, then prints the health FSM state
// and the fault-attribution ledger; the same seed reproduces the same run.
//
// -watch arms the telemetry subsystem, paces N rounds of loopback traffic
// through the board, and after each round prints the per-stage latency
// delta (count, p50, p99, mean) plus the batch counters for that round.
//
// -serve exposes the full operator surface at the given address —
// Prometheus text on /metrics, expvar JSON on /debug/vars, pprof under
// /debug/pprof/, and the JSON-RPC management API on /api/v1 — then keeps
// pumping the event loop until a sys.shutdown RPC or SIGINT arrives, so
// a second dhl-inspect can manage the first with -addr.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	dhl "github.com/opencloudnext/dhl-go"
	"github.com/opencloudnext/dhl-go/internal/ctlplane"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
)

func main() {
	addr := flag.String("addr", "", "management endpoint of a live system (e.g. :9090); connect instead of spawning")
	cmd := flag.String("cmd", "", "with -addr: send one management RPC (e.g. acc.load); 'help' lists commands")
	args := flag.String("args", "", "comma-separated positional parameters for -cmd")
	jsonOut := flag.Bool("json", false, "print raw JSON instead of tables")
	serve := flag.String("serve", "", "spawn mode: serve /metrics, /debug/* and /api/v1 at this address, pump until sys.shutdown or SIGINT")
	modules := flag.String("modules", "ipsec-crypto,pattern-matching", "spawn mode: comma-separated hardware function names to load")
	boards := flag.Int("boards", 1, "spawn mode: FPGA boards per node (a fleet for migration/replication RPCs)")
	fill := flag.Bool("fill", false, "spawn mode: load copies of the first module until the board is full")
	chaosSeed := flag.Uint64("chaos-seed", 0, "spawn mode: arm fault injection with this seed and run a loopback chaos burst (0: off)")
	watch := flag.Int("watch", 0, "print per-stage latency deltas for N rounds (spawn: paced loopback traffic; -addr: telemetry.delta long-polls)")
	flag.Parse()

	var err error
	switch {
	case *cmd == "help":
		printCommandTable(os.Stdout)
	case *addr != "":
		if *serve != "" || *fill || *chaosSeed != 0 || *boards != 1 || *modules != flag.Lookup("modules").DefValue {
			err = fmt.Errorf("-serve, -modules, -boards, -fill and -chaos-seed spawn a local system and cannot be combined with -addr")
		} else {
			err = runConnected(*addr, *cmd, *args, *watch, *jsonOut)
		}
	case *cmd != "":
		err = fmt.Errorf("-cmd drives a live system; it requires -addr (or use -serve to spawn one first)")
	default:
		err = runSpawned(*modules, *boards, *fill, *chaosSeed, *watch, *serve, *jsonOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dhl-inspect:", err)
		os.Exit(1)
	}
}

// --- connect mode -------------------------------------------------------

// printCommandTable lists the management API's verbs — the same table
// the server dispatches on — with "?" on the optional parameters.
func printCommandTable(w io.Writer) {
	fmt.Fprintln(w, "management commands (dhl-inspect -addr HOST:PORT -cmd NAME -args A,B,...):")
	for _, v := range ctlplane.Verbs() {
		params := make([]string, len(v.Params))
		for i, p := range v.Params {
			params[i] = p.Name
			if !p.Required {
				params[i] += "?"
			}
		}
		fmt.Fprintf(w, "  %-20s %-18s %s\n", v.Name, strings.Join(params, ","), v.Doc)
	}
}

// buildParams turns the comma-separated positional -args into the verb's
// parameter object: arguments fill its parameters in declaration order,
// and an optional tail may be left off.
func buildParams(name, raw string) (map[string]any, error) {
	verb, ok := ctlplane.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("unknown command %q (run -cmd help)", name)
	}
	var vals []string
	if raw != "" {
		vals = strings.Split(raw, ",")
	}
	if len(vals) > len(verb.Params) {
		return nil, fmt.Errorf("%s takes at most %d argument(s)", name, len(verb.Params))
	}
	params := map[string]any{}
	for i, p := range verb.Params {
		if i >= len(vals) {
			if !p.Required {
				break
			}
			return nil, fmt.Errorf("%s needs %q (run -cmd help)", name, p.Name)
		}
		val := strings.TrimSpace(vals[i])
		if p.Kind != ctlplane.KindInt {
			// Strings as they are; bytes are already base64, their wire form.
			params[p.Name] = val
			continue
		}
		n, err := strconv.Atoi(val)
		if err != nil {
			return nil, fmt.Errorf("%s: %q must be an integer: %v", name, p.Name, err)
		}
		params[p.Name] = n
	}
	return params, nil
}

// runConnected drives a live system's management endpoint.
func runConnected(addr, cmd, args string, watch int, jsonOut bool) error {
	c := dhl.DialControl(addr)
	defer func() { _ = c.Close() }()
	if cmd != "" {
		params, err := buildParams(cmd, args)
		if err != nil {
			return err
		}
		var res json.RawMessage
		if err := c.Call(cmd, params, &res); err != nil {
			return err
		}
		return printJSON(os.Stdout, res, !jsonOut)
	}
	if watch > 0 {
		return watchRemote(c, watch, jsonOut)
	}
	return overviewRemote(c, jsonOut)
}

// overviewRemote prints the connect-mode default view: sys.info plus
// per-accelerator health.
func overviewRemote(c *dhl.ControlClient, jsonOut bool) error {
	var (
		info   ctlplane.InfoResult
		health ctlplane.HealthResult
		fleet  ctlplane.PlacementResult
		tune   dhl.TunerStatus
	)
	if err := c.Call("sys.info", nil, &info); err != nil {
		return err
	}
	if err := c.Call("health.get", nil, &health); err != nil {
		return err
	}
	if err := c.Call("placement.get", nil, &fleet); err != nil {
		return err
	}
	if err := c.Call("tune.auto", nil, &tune); err != nil {
		return err
	}
	if jsonOut {
		raw, err := json.Marshal(map[string]any{"info": info, "health": health.Accs, "placement": fleet.Boards, "autotune": tune})
		if err != nil {
			return err
		}
		return printJSON(os.Stdout, raw, false)
	}
	fmt.Printf("system at %s: %d node(s), batch %d bytes\n",
		c.URL(), info.Nodes, info.BatchBytes)
	fmt.Printf("module DB: %s\n", strings.Join(info.ModuleDB, ", "))
	fmt.Println("\nHardware function table:")
	for _, row := range info.HFTable {
		fmt.Println(" ", row)
	}
	healthByID := map[dhl.AccID]string{}
	for _, h := range health.Accs {
		healthByID[h.AccID] = fmt.Sprintf("%s (faults %d, quarantines %d, reloads %d, fallback active: %v)",
			h.Health, h.Faults, h.Quarantines, h.Reloads, h.FallbackActive)
	}
	fmt.Println("\nAccelerators:")
	if len(info.Accelerators) == 0 {
		fmt.Println("  (none loaded)")
	}
	for _, a := range info.Accelerators {
		fmt.Printf("  acc_id %d: %s node %d fpga %d region %d ready=%v — %s\n",
			a.AccID, a.Name, a.Node, a.FPGA, a.Region, a.Ready, healthByID[a.AccID])
	}
	fmt.Println("\nFleet placement:")
	for _, b := range fleet.Boards {
		fmt.Printf("  board %d: node %d %s — free %d LUTs, %d BRAM, %d region(s); migrations in/out %d/%d\n",
			b.Board, b.Node, b.State, b.FreeLUTs, b.FreeBRAM, b.FreeRegions, b.MigratedIn, b.MigratedOut)
		for _, ep := range b.Endpoints {
			role := "replica"
			if ep.Primary {
				role = "primary"
			}
			fmt.Printf("    acc_id %d (%s) region %d: %s, weight %d, ready=%v disabled=%v\n",
				ep.Acc, ep.HF, ep.Region, role, ep.Weight, ep.Ready, ep.Disabled)
		}
	}
	fmt.Println("\nAdaptive batching:")
	if !tune.Enabled {
		fmt.Println("  autotuner off (enable: -cmd tune.auto -args on)")
		return nil
	}
	fmt.Printf("  autotuner on: %.0f us windows, %d sampled, decisions grow/shrink %d/%d\n",
		tune.IntervalUs, tune.Windows, tune.GrowDecisions, tune.ShrinkDecisions)
	for _, a := range tune.Accs {
		fmt.Printf("  acc_id %d (%s) node %d: batch target %d B, flush %.1f us, fill %.2f, batch latency %.1f us\n",
			a.AccID, a.Name, a.Node, a.BatchTarget, a.FlushTimeoutUs, a.Fill, a.BatchLatencyUs)
	}
	for _, n := range tune.Nodes {
		fmt.Printf("  node %d: burst %d, IBQ rejected %d, pressured=%v\n",
			n.Node, n.Burst, n.Rejected, n.Hot)
	}
	return nil
}

// watchRemote long-polls telemetry.delta and prints each active window's
// per-stage latency view — the same table spawn-mode -watch prints, fed
// over the wire instead of in-process.
func watchRemote(c *dhl.ControlClient, rounds int, jsonOut bool) error {
	fmt.Printf("watch: %d telemetry.delta long-polls against %s\n", rounds, c.URL())
	for round := 1; round <= rounds; round++ {
		var d ctlplane.DeltaResult
		if err := c.Call("telemetry.delta",
			map[string]any{"stream": "dhl-inspect", "wait_ms": 2000}, &d); err != nil {
			return err
		}
		if jsonOut {
			raw, err := json.Marshal(d)
			if err != nil {
				return err
			}
			if perr := printJSON(os.Stdout, raw, false); perr != nil {
				return perr
			}
			continue
		}
		if !d.Active {
			fmt.Printf("round %2d: idle\n", round)
			continue
		}
		printDeltaRound(round, d.Delta)
	}
	return nil
}

// printJSON writes raw to w, indented when pretty.
func printJSON(w *os.File, raw json.RawMessage, pretty bool) error {
	if len(raw) == 0 {
		raw = json.RawMessage("null")
	}
	if pretty {
		var buf bytes.Buffer
		if err := json.Indent(&buf, raw, "", "  "); err != nil {
			return err
		}
		_, err := fmt.Fprintln(w, buf.String())
		return err
	}
	_, err := fmt.Fprintln(w, string(raw))
	return err
}

// printDeltaRound renders one round's TelemetrySnapshot delta: batch
// counters plus the per-stage latency table.
func printDeltaRound(round int, d *dhl.TelemetrySnapshot) {
	fmt.Printf("round %2d: %d batches, %d pkts, %d bytes delivered\n",
		round, d.CounterTotal(dhl.CounterBatches), d.CounterTotal(dhl.CounterPackets),
		d.CounterTotal(dhl.CounterBytes))
	fmt.Printf("  %-12s %7s %10s %10s %10s\n", "stage", "count", "p50(ns)", "p99(ns)", "mean(ns)")
	for s := dhl.StageIBQWait; s < dhl.NumStages; s++ {
		h := d.Stages[s]
		if h.Count == 0 {
			continue
		}
		fmt.Printf("  %-12s %7d %10.0f %10.0f %10.0f\n",
			s, h.Count, h.QuantileNs(0.50), h.QuantileNs(0.99), h.MeanNs())
	}
}

// --- spawn mode ---------------------------------------------------------

func runSpawned(modules string, boards int, fill bool, chaosSeed uint64, watch int, serve string, jsonOut bool) error {
	if jsonOut {
		return fmt.Errorf("-json applies to connect mode (-addr) output")
	}
	var opts []dhl.Option
	if chaosSeed != 0 {
		plan, err := dhl.NewFaultPlan(chaosSeed,
			dhl.FaultSpec{Kind: dhl.FaultModuleError, EveryN: 1, Count: 8},
			dhl.FaultSpec{Kind: dhl.FaultDMAH2CError, EveryN: 5, Count: 4},
		)
		if err != nil {
			return err
		}
		opts = append(opts, dhl.WithFaultPlan(plan))
	}
	if serve != "" {
		opts = append(opts, dhl.WithControlPlane())
	}
	sys, err := dhl.Open(dhl.SystemConfig{Telemetry: watch > 0, FPGAsPerNode: boards}, opts...)
	if err != nil {
		return err
	}
	shutdown := make(chan os.Signal, 1)
	if serve != "" {
		exp, serr := sys.Serve(serve, dhl.WithShutdownHook(func() {
			shutdown <- syscall.SIGTERM
		}))
		if serr != nil {
			return serr
		}
		defer func() { _ = exp.Close() }()
		fmt.Printf("serving operator surface at http://%s (metrics: /metrics, expvar: /debug/vars, pprof: /debug/pprof/, api: /api/v1)\n", exp.Addr())
	}
	names := strings.Split(modules, ",")
	var loaded []dhl.AccID
	for _, name := range names {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		acc, lerr := sys.SearchByName(name, 0)
		if lerr != nil {
			return fmt.Errorf("load %q: %w", name, lerr)
		}
		loaded = append(loaded, acc)
		fmt.Printf("loaded %q as acc_id %d\n", name, acc)
	}
	if fill && len(names) > 0 {
		first := strings.TrimSpace(names[0])
		n := 1
		for {
			if _, lerr := sys.LoadPR(first, 0); lerr != nil {
				fmt.Printf("board full after %d instance(s) of %q: %v\n", n, first, lerr)
				break
			}
			n++
		}
	}
	sys.Settle()

	if chaosSeed != 0 {
		acc, cerr := chaosBurst(sys, chaosSeed)
		if cerr != nil {
			return cerr
		}
		loaded = append(loaded, acc)
	}
	if watch > 0 {
		if werr := watchLoop(sys, watch); werr != nil {
			return werr
		}
	}

	fmt.Println("\nHardware function table:")
	for _, row := range sys.Control().HFTable() {
		fmt.Println(" ", row)
	}
	if chaosSeed != 0 {
		fmt.Println("\nAccelerator health:")
		for _, acc := range loaded {
			rep, herr := sys.Control().AccHealth(acc)
			if herr != nil {
				return herr
			}
			fmt.Printf("  acc_id %d: %s (faults %d, quarantines %d, reloads %d, fallback active: %v)\n",
				acc, rep.Health, rep.Faults, rep.Quarantines, rep.Reloads, rep.FallbackActive)
		}
	}
	fmt.Println()
	dev, err := sys.Control().Device(0)
	if err != nil {
		return err
	}
	fmt.Print(dev.Floorplan())
	if serve != "" {
		// Keep the event loop pumping so management RPCs execute; a
		// sys.shutdown RPC (via the hook above) or SIGINT/SIGTERM ends it.
		signal.Notify(shutdown, syscall.SIGINT, syscall.SIGTERM)
		fmt.Println("\npumping event loop; stop with: dhl-inspect -addr", serve, "-cmd sys.shutdown")
		sim := sys.Sim()
		for {
			select {
			case sig := <-shutdown:
				fmt.Printf("shutting down (%v)\n", sig)
				return nil
			default:
				sim.Run(sim.Now() + eventsim.Millisecond)
				time.Sleep(2 * time.Millisecond)
			}
		}
	}
	return nil
}

// watchLoop paces rounds of loopback traffic through the telemetry-armed
// system and prints the per-stage latency view after every round: the
// TelemetrySnapshot delta against the previous round isolates exactly the
// batches that completed in that window.
func watchLoop(sys *dhl.System, rounds int) error {
	acc, err := sys.SearchByName(dhl.Loopback, 0)
	if err != nil {
		return err
	}
	sys.Settle() // the loopback bitstream loads over ICAP
	nf, err := sys.Register("inspect-watch", 0)
	if err != nil {
		return err
	}
	sim, pool := sys.Sim(), sys.Pool()
	payload := []byte("dhl-inspect watch probe........................................")
	const nPkts = 32
	pkts := make([]*dhl.Packet, nPkts)
	out := make([]*dhl.Packet, 2*nPkts)
	prev := sys.Snapshot()
	fmt.Printf("\nwatch: %d rounds x %d loopback packets\n", rounds, nPkts)
	for round := 1; round <= rounds; round++ {
		for i := range pkts {
			m, aerr := pool.Alloc()
			if aerr != nil {
				return aerr
			}
			if aerr := m.AppendBytes(payload); aerr != nil {
				_ = pool.Free(m)
				return aerr
			}
			m.AccID = uint16(acc)
			pkts[i] = m
		}
		n, serr := sys.SendPackets(nf, pkts)
		if serr != nil {
			return serr
		}
		for _, m := range pkts[n:] {
			_ = pool.Free(m)
		}
		sim.Run(sim.Now() + 300*eventsim.Microsecond)
		got, rerr := sys.ReceivePackets(nf, out)
		if rerr != nil {
			return rerr
		}
		for i := 0; i < got; i++ {
			if ferr := pool.Free(out[i]); ferr != nil {
				return ferr
			}
		}
		snap := sys.Snapshot()
		d := snap.Delta(prev)
		prev = snap
		printDeltaRound(round, d)
	}
	return nil
}

// chaosBurst pushes paced loopback traffic through the armed system: the
// injected module errors drive the loopback accelerator through the health
// FSM (degraded, then quarantined with the software fallback carrying the
// tail) while the DMA retry masks the transient H2C faults.
func chaosBurst(sys *dhl.System, seed uint64) (dhl.AccID, error) {
	acc, err := sys.SearchByName(dhl.Loopback, 0)
	if err != nil {
		return acc, err
	}
	if err := sys.Control().InstallFallback(dhl.Loopback, 0); err != nil {
		return acc, err
	}
	sys.Settle() // the loopback bitstream loads over ICAP
	nf, err := sys.Register("inspect-chaos", 0)
	if err != nil {
		return acc, err
	}
	sim, pool := sys.Sim(), sys.Pool()
	payload := []byte("dhl-inspect chaos probe")
	var sent, ok, fallback, unprocessed int
	scratch := make([]*dhl.Packet, 32)
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
				switch m.Status {
				case dhl.StatusFallback:
					fallback++
				case dhl.StatusUnprocessed:
					unprocessed++
				default:
					ok++
				}
				if ferr := pool.Free(m); ferr != nil {
					return ferr
				}
			}
		}
	}
	for round := 0; round < 24; round++ {
		burst := make([]*dhl.Packet, 0, 8)
		for i := 0; i < 8; i++ {
			m, aerr := pool.Alloc()
			if aerr != nil {
				return acc, aerr
			}
			if aerr := m.AppendBytes(payload); aerr != nil {
				if ferr := pool.Free(m); ferr != nil {
					return acc, ferr
				}
				return acc, aerr
			}
			m.AccID = uint16(acc)
			burst = append(burst, m)
		}
		n, serr := sys.SendPackets(nf, burst)
		if serr != nil {
			return acc, serr
		}
		sent += n
		for _, m := range burst[n:] {
			if ferr := pool.Free(m); ferr != nil {
				return acc, ferr
			}
		}
		sim.Run(sim.Now() + 50*eventsim.Microsecond)
		if derr := drain(); derr != nil {
			return acc, derr
		}
	}
	sim.Run(sim.Now() + 5*eventsim.Millisecond)
	if derr := drain(); derr != nil {
		return acc, derr
	}
	st, err := sys.Stats(0)
	if err != nil {
		return acc, err
	}
	fmt.Printf("\nchaos burst (seed %d): sent %d, delivered ok/fallback/unprocessed %d/%d/%d\n",
		seed, sent, ok, fallback, unprocessed)
	fmt.Printf("fault ledger: dma retries %d (give-ups %d), corrupt batches %d, faulted-batch drops %d pkts,\n",
		st.DMARetries, st.DMARetryGiveUps, st.CorruptBatches, st.DropFault)
	fmt.Printf("              watchdog timeouts %d, forced quarantines %d\n",
		st.WatchdogTimeouts, st.ForcedQuarantines)
	return acc, nil
}
