package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time. It is the host clock
// of every timing the bench reports: GC work is charged, time the
// process spends pre-empted by a neighbour is not.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// Cannot fail for RUSAGE_SELF with a valid pointer.
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mallocs is the cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// environment is recorded in every output file so two files can be
// judged comparable before their numbers are.
type environment struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Reps       int    `json:"reps,omitempty"`
	Traced     bool   `json:"traced"`
	Smoke      bool   `json:"smoke,omitempty"`
	Started    string `json:"started"`
}

func captureEnv(o options) environment {
	return environment{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		Commit:     gitCommit("."),
		Seed:       o.seed,
		Seconds:    o.seconds,
		Reps:       o.reps,
		Traced:     o.trace,
		Smoke:      o.smoke,
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD by reading .git directly (the benchmark's
// checkout need not be a repository and may not have git installed).
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
				return hash
			}
		}
	}
	return "unknown"
}

// The reference kernel. This sandbox's CPU changes speed by a third or
// more for many minutes at a time (neighbours, frequency, SMT siblings):
// two sets of ten runs of one commit, 25 minutes apart, put ipsec64 at
// 3245 and 4482 CPU ns per packet. No bound a benchmark may carry covers
// that, so a run also times a fixed kernel that owes nothing to the code
// under test — before its first and after each of its timed regions —
// and reports host times in reference time:
//
//	raw time x refKernel / median kernel time of the run
//
// On a box where the kernel takes exactly refKernel, reference time is
// CPU time. The raw values and the kernel's times stay in the result
// file beside the metric.
//
// The kernel mixes what the simulator's own time goes into: sift
// operations on a binary heap (the event queue), dependent loads across
// 16 MB (mbufs, flow state) and small short-lived allocations.
const (
	refKernel   = 20 * time.Millisecond
	kernelIters = 120_000
)

type refKernelState struct {
	chase []uint32
	heap  []uint64
	live  [256]*[8]uint64
}

func newRefKernel() *refKernelState {
	k := &refKernelState{chase: make([]uint32, 16<<20/4), heap: make([]uint64, 4096)}
	// Sattolo's shuffle with a fixed seed: one cycle through every slot.
	for i := range k.chase {
		k.chase[i] = uint32(i)
	}
	x := uint64(88172645463325252)
	for i := len(k.chase) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x % uint64(i)
		k.chase[i], k.chase[j] = k.chase[j], k.chase[i]
	}
	for i := range k.heap {
		k.heap[i] = uint64(i) * 7919
	}
	k.run() // page the arrays in
	return k
}

// run executes the kernel once and returns its CPU time in seconds.
func (k *refKernelState) run() float64 {
	c0 := cpuTime()
	h := k.heap
	x := uint64(2463534242)
	p := uint32(0)
	for i := 0; i < kernelIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		// Replace the heap's minimum with a later key and sift it down.
		h[0] += x & 0xffff
		for j := 0; ; {
			l := 2*j + 1
			if l >= len(h) {
				break
			}
			if r := l + 1; r < len(h) && h[r] < h[l] {
				l = r
			}
			if h[j] <= h[l] {
				break
			}
			h[j], h[l] = h[l], h[j]
			j = l
		}
		p = k.chase[p]
		if i%8 == 0 {
			k.live[(i/8)%len(k.live)] = &[8]uint64{x}
		}
	}
	keep(uint64(p) + h[0])
	return (cpuTime() - c0).Seconds()
}
