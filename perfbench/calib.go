package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The shared VM this benchmark was built on changed speed by up to 1.5x
// between minutes: the host's other tenants slowed every instruction,
// through the caches and memory they share, and at times took a quarter
// of the CPU outright (steal). Raw timings of the same code spread up to
// 50% (interquartile range over median) across runs, however many
// samples a run took. Two things take the host out of the metrics:
//
//   - Set-up, the kernel, the stream engine and the serving capacity are
//     timed in CPU time, which the guest kernel keeps free of steal
//     (CONFIG_PARAVIRT_TIME_ACCOUNTING).
//   - A calibrator measures the host's speed with a fixed reference unit
//     of work run right before and after each timed unit, and scales the
//     unit's times, CPU or wall (serving latency), by refNominal over the
//     reference unit's CPU time.
//
// The reference unit is code of this benchmark only, so a change to
// dagsched moves a calibrated metric exactly as much as the raw one;
// only the host's speed drops out. Raw values stay in the context
// lines.

// refNominal is the reference unit's CPU time the calibrated metrics
// are scaled to. It is a fixed constant; the unit took 29-64 ms on the
// 2-core Xeon VM, so calibrated times read lower than raw ones.
const refNominal = 25 * time.Millisecond

// refNodes is the size of the reference unit's graph, with refDegree
// edges out of each node; refParts is the number of passes over it, of
// which the reference unit reports the median, so that one pass that an
// interrupt or a GC worker hit does not move it.
const (
	refNodes  = 300_000
	refDegree = 4
	refParts  = 3
)

// calibrator runs the reference unit: a longest-path pass over a fixed
// random DAG in compressed sparse rows, about 10 MB, with the irregular
// memory access of the scheduler's rank and placement loops. Of the
// candidates tried (a float loop, a pointer chase over 64 MB, sorting
// and hashing in L2, sorting 1.6 MB, this graph pass), it and the large
// sort tracked the host's speed as the kernel saw it best: scaled by
// it, the median kernel time of a 40 s window spread 2-3.5% across
// windows, against 8-13% unscaled. It reuses its buffers and allocates
// nothing, so it starts no GC cycle.
type calibrator struct {
	off, adj []int32 // node u's successors are adj[off[u]:off[u+1]], all > u
	level    []float64
	sink     float64
	last     sample   // the latest reference unit
	refs     []sample // every reference unit of the run
}

// sample is the wall and CPU time of one reference unit; the metrics
// are scaled by the CPU time, the wall time shows in the context lines
// how much steal the unit saw.
type sample struct{ wall, cpu time.Duration }

func newCalibrator() *calibrator {
	rng := rand.New(rand.NewSource(1))
	c := &calibrator{off: make([]int32, refNodes+1), adj: make([]int32, 0, refNodes*refDegree),
		level: make([]float64, refNodes)}
	for u := 0; u < refNodes; u++ {
		for k := 0; k < refDegree && u+1 < refNodes; k++ {
			c.adj = append(c.adj, int32(u+1+rng.Intn(refNodes-u-1)))
		}
		c.off[u+1] = int32(len(c.adj))
	}
	c.work() // warms the code and the pages
	return c
}

// work is one pass of the reference unit: every node's longest path
// from a source, relaxing edges in index order.
func (c *calibrator) work() {
	clear(c.level)
	for u := 0; u < refNodes; u++ {
		next := c.level[u] + 1
		for _, v := range c.adj[c.off[u]:c.off[u+1]] {
			if c.level[v] < next {
				c.level[v] = next
			}
		}
	}
	c.sink += c.level[refNodes-1]
}

// ref runs the reference unit once, on one OS thread so that its CPU
// time is its own. Its times are refParts times the median part's.
func (c *calibrator) ref() sample {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var wall, cpu [refParts]float64
	for i := range wall {
		w, t := time.Now(), threadCPU()
		c.work()
		wall[i], cpu[i] = float64(time.Since(w)), float64(threadCPU()-t)
	}
	c.last = sample{wall: time.Duration(refParts * median(wall[:])), cpu: time.Duration(refParts * median(cpu[:]))}
	c.refs = append(c.refs, c.last)
	return c.last
}

// around runs f, which times itself, between two reference units: the
// one that ended the previous unit, if any, and a new one.
func (c *calibrator) around(f func()) {
	if c.last.cpu == 0 {
		c.ref()
	}
	f()
	c.ref()
}

// factor converts the times of a unit between reference units before and
// after to the reference speed: multiply a time by it, divide a rate by
// it.
func factor(before, after sample) float64 {
	return float64(2*refNominal) / float64(before.cpu+after.cpu)
}

// mark is the index of the latest reference unit.
func (c *calibrator) mark() int { return len(c.refs) - 1 }

// window is the factor for a unit that ran between reference units i
// and j, taken from the median of those and the k units on either side. A
// kernel call runs for up to two seconds, while a reference unit samples
// the host's speed for a few tens of milliseconds; the median over a few
// seconds of reference units matches the call's span better than its two
// neighbours alone. Call it once the k units after j have run.
func (c *calibrator) window(i, j, k int) float64 {
	var cpu []float64
	for _, r := range c.refs[max(0, i-k):min(len(c.refs), j+k+1)] {
		cpu = append(cpu, float64(r.cpu))
	}
	return float64(refNominal) / median(cpu)
}

// clock reads one of the kernel's clocks.
func clock(id int) time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(id), uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(fmt.Sprintf("clock_gettime(%d): %v", id, e))
	}
	return time.Duration(ts.Nano())
}

// processCPU is the CPU time of every thread of the process; threadCPU
// that of the calling thread, which the caller must have locked.
func processCPU() time.Duration { return clock(2) } // CLOCK_PROCESS_CPUTIME_ID
func threadCPU() time.Duration  { return clock(3) } // CLOCK_THREAD_CPUTIME_ID

// summary describes the run's reference units for the context lines.
func (c *calibrator) summary() map[string]any {
	wall, cpu := make([]float64, len(c.refs)), make([]float64, len(c.refs))
	for i, r := range c.refs {
		wall[i], cpu[i] = ms(r.wall), ms(r.cpu)
	}
	return map[string]any{"ref_units": len(wall), "ref_wall_ms_min": quantile(wall, 0), "ref_wall_ms_p50": median(wall),
		"ref_wall_ms_max": quantile(wall, 1), "ref_cpu_ms_min": quantile(cpu, 0), "ref_cpu_ms_p50": median(cpu),
		"ref_cpu_ms_max": quantile(cpu, 1)}
}
