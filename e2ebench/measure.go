package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"syscall"
	"time"
	"unsafe"

	"github.com/green-dc/baat/internal/sim"
)

const mb = 1e6

// cpuNow reads the process's CPU time: user plus system, all threads. The
// benchmark times its intervals with it rather than the wall clock because
// on a shared virtual machine the hypervisor steals guest CPU time in
// bursts (a third of it at times), which a wall clock charges to whatever
// the program was doing; CPU time excludes stolen time. Garbage collection
// and the daemon's request handling run on other threads and count too.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // fails only on a bad argument
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// threadCPU reads the calling thread's CPU time from the
// CLOCK_THREAD_CPUTIME_ID clock; getrusage's per-thread figure is only as
// fine as the scheduler tick.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime: %v", errno)) // fails only on a bad argument
	}
	return time.Duration(ts.Nano())
}

// meter takes the readings made between timed intervals: the runtime's
// heap counters and the host's speed, as the reference kernel's CPU time.
// Its samples are reused, so reading the heap allocates nothing.
type meter struct {
	samples []metrics.Sample
	peak    uint64
	ref     []time.Duration
	refBuf  []byte
}

func newMeter() *meter {
	return &meter{
		samples: []metrics.Sample{
			{Name: "/gc/heap/allocs:bytes"},
			{Name: "/gc/heap/live:bytes"},
		},
		refBuf: make([]byte, 0, 32),
	}
}

// settle collects garbage, folds the live heap into the peak, times one
// pass of the reference kernel, and returns the cumulative bytes
// allocated. The collection flushes the per-P allocation caches, so the
// counter is exact at this point. A second collection empties every
// sync.Pool (the first only moves pooled objects to the victim cache), so
// each timed interval starts without pooled buffers, and whether a pool
// hit saves an allocation does not depend on when the last collection
// happened to run. Call it only between timed intervals.
func (h *meter) settle() uint64 {
	runtime.GC()
	runtime.GC()
	metrics.Read(h.samples)
	if live := h.samples[1].Value.Uint64(); live > h.peak {
		h.peak = live
	}
	h.ref = append(h.ref, refPass(h.refBuf))
	return h.samples[0].Value.Uint64()
}

func (h *meter) peakMB() float64 { return float64(h.peak) / mb }

// The reference kernel is fixed work that no change to the simulator
// touches: formatting a float64 200,000 times with strconv.AppendFloat
// into a reused buffer. It allocates nothing and is timed on its own
// locked thread, so neither the collector nor the daemon's goroutines
// count in it. On the shared virtual machine the benchmark was written
// on, the host runs guest code at a speed that shifts by a third or more
// for a minute or two at a time, longer than a run, and the simulator's
// CPU time moves with it. Across 66 repetitions of three workloads the
// logarithm of a repetition's median day time rose with the logarithm of
// its median kernel time with correlation 0.44 to 0.94 and slope 0.41 to
// 0.50: the kernel, being compute-bound, slows about twice as much as the
// simulator. So times are scaled by the square root (refExponent) of the
// kernel's slowdown. README.md lists the kernels that tracked the host
// less well.
//
// refNominal is the kernel's median CPU time on the reference machine, a
// 2-vCPU Intel Xeon guest, in a fast phase of the host.
const (
	refSteps    = 200_000
	refNominal  = 20 * time.Millisecond
	refExponent = 0.5
)

// refPass runs the reference kernel once and returns its thread CPU time.
func refPass(buf []byte) time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := threadCPU()
	v := 0.123456789
	for k := 0; k < refSteps; k++ {
		buf = strconv.AppendFloat(buf[:0], v, 'g', -1, 64)
		v = v*1.0000001 + float64(len(buf))*0.01
	}
	return threadCPU() - start
}

// scaleTimes converts the end-to-end times in m from this run's CPU
// seconds to the reference machine's: it multiplies them by refNominal
// over the median reference-kernel time the meter sampled, raised to
// refExponent, divides the throughput by the same factor, and prints the
// unscaled figures to standard error.
func (h *meter) scaleTimes(m map[string]float64) {
	ref := median(seconds(h.ref))
	k := math.Pow(refNominal.Seconds()/ref, refExponent)
	fmt.Fprintf(os.Stderr, "e2ebench: host scale %.4f (reference kernel %.2f ms, median of %d); unscaled setup_s %.4f day_p50_s %.4f node_steps_per_s %.0f\n",
		k, ref*1e3, len(h.ref), m["setup_s"], m["day_p50_s"], m["node_steps_per_s"])
	m["setup_s"] *= k
	m["day_p50_s"] *= k
	m["node_steps_per_s"] /= k
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// digest hashes simulated outputs: every DayStats and the end-of-run node
// summaries. It never sees a policy name, so a run under the timing
// decorator digests exactly like the undecorated run.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) days(days ...sim.DayStats) {
	for _, ds := range days {
		fmt.Fprintf(d.h, "day %+v\n", ds)
	}
}

func (d *digest) nodes(nodes []sim.NodeSummary) {
	for _, n := range nodes {
		fmt.Fprintf(d.h, "node %+v\n", n)
	}
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// dayKey renders one day's stats for equality checks between runs.
func dayKey(ds sim.DayStats) string { return fmt.Sprintf("%+v", ds) }

// roundAll rounds durations to milliseconds for diagnostics.
func roundAll(ds []time.Duration) []time.Duration {
	out := make([]time.Duration, len(ds))
	for i, d := range ds {
		out[i] = d.Round(time.Millisecond)
	}
	return out
}
