// Package dhl is a faithful, fully-simulated reproduction of DHL ("DHL:
// Enabling Flexible Software Network Functions with FPGA Acceleration",
// ICDCS 2018) — a CPU-FPGA co-design framework in which software network
// functions keep their control logic and shallow packet processing on CPU
// cores and offload deep packet processing (encryption, pattern matching)
// to accelerator modules on an FPGA, abstracted as *hardware functions*.
//
// Because the original system requires a Xilinx VC709 board, 40G NICs and
// DPDK, this reproduction replaces the hardware with a deterministic
// discrete-event simulation whose components are functionally real (bytes
// are really encrypted with AES-256-CTR + HMAC-SHA1, really scanned with
// an Aho-Corasick DFA) and temporally calibrated against the paper's
// published numbers (see DESIGN.md and internal/perf).
//
// # Programming model
//
// The public API mirrors the paper's Table II one-for-one:
//
//	sys, _ := dhl.Open(dhl.SystemConfig{})               // options: WithFaultPlan, WithControlPlane, ...
//	nfID, _ := sys.Register("my-nf", 0)                  // DHL_register()
//	accID, _ := sys.SearchByName("ipsec-crypto", 0)      // DHL_search_by_name()
//	_ = sys.AccConfigure(accID, cfgBlob)                 // DHL_acc_configure()
//	sys.Settle()                                         // wait out partial reconfiguration
//
//	// data path (typically from simulated I/O cores):
//	pkt.AccID = uint16(accID)
//	sys.SendPackets(nfID, pkts)                          // DHL_send_packets()
//	n, _ := sys.ReceivePackets(nfID, out)                // DHL_receive_packets()
//
// Those eight calls, plus Sim, Pool, Settle, Stats and Snapshot to drive
// and observe the simulation, are all of System. Everything else an
// operator does to a running system is on System.Control: the runtime's
// management calls (RegisterModule, Evict, InstallFallback,
// SetBatchBytes, Migrate, OfflineBoard, Device, ...) plus the flow-table
// registry and the autotuner. The runtime builds the boards, their DMA
// engines and its transfer cores itself from SystemConfig's node and
// board counts; Device(b) returns board b for inspection. Custom accelerator modules are added to the
// accelerator module database with Control().RegisterModule, exactly as
// §IV-C allows for self-built modules that follow the base design's
// interface specification.
//
// # Operations
//
// Opening with WithControlPlane and calling Serve exposes the whole
// operator surface on one listener: Prometheus metrics on /metrics,
// expvar and pprof under /debug/, and a JSON-RPC 2.0 management API on
// /api/v1 that reconfigures the running system — register NFs, load and
// evict accelerator modules, install software fallbacks, retune the
// batcher — without stopping the data path (see DESIGN.md
// §11 and cmd/dhl-inspect). Each verb is one Control call.
//
// # Adaptive batching and backpressure
//
// The paper fixes the DMA batch size at 6 KB, the PCIe saturation point;
// off-peak that batch never fills and every packet pays the flush
// deadline in latency. Opening with WithAutoTune (or calling
// Control().AutoTuneEnable on a live system, or the control plane's
// tune.auto op) arms a closed-loop controller that samples
// per-accelerator batch fill and per-node IBQ pressure in fixed windows
// on the event loop and retunes batch size, flush timeout and poll burst
// within fixed bounds, never above the system's configured batch size and
// flush timeout — observable via AutoTuneStatus, dhl-inspect and the
// dhl_tuner_* metrics, reversible via AutoTuneDisable, and
// allocation-free in steady state (DESIGN.md §14).
//
// Overload is reported rather than silently dropped: SendPackets never
// blocks, returns how many packets the shared IBQ accepted, and leaves
// the refused tail with the caller to hold, retry or free. The runtime
// counts each refusal once, in Stats(node).IBQRejected.
//
// The runnable examples under examples/ and the experiment harness
// (internal/harness, driven by cmd/dhl-bench and the root benchmarks)
// regenerate every table and figure of the paper's evaluation; see
// EXPERIMENTS.md for the measured-vs-published comparison.
package dhl
