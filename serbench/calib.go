package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"
)

// refNominalMS is the reference kernel's CPU time on the machine the
// gated CPU times are scaled to: a 2 GHz Xeon vCPU with its host busy.
const refNominalMS = 40

// refBuf is the reference kernel's working set: 4 MiB, beyond a
// core's private caches, like the larger circuits' arenas.
var refBuf = make([]uint64, 1<<19)

// refKernel runs a fixed amount of work of the benchmark's own that
// resembles the program's: gate evaluations over 64-bit words gathered
// from a large array, then a float recurrence like a transient
// solver's. It calls nothing in the program and allocates nothing, so
// its time measures the machine alone. It returns the CPU time of its
// own thread, which leaves out whatever other goroutines run meanwhile.
func refKernel() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPUTime()
	x := uint64(0x9e3779b97f4a7c15)
	for i := range refBuf {
		x = xorshift(x)
		refBuf[i] = x
	}
	n := uint64(len(refBuf) - 1)
	var acc uint64
	for i := 0; i < 1<<20; i++ {
		x = xorshift(x)
		a, b := refBuf[x&n], refBuf[(x>>20)&n]
		v := (a & b) ^ (a | ^b)
		refBuf[(x>>40)&n] = v
		acc += v
	}
	f := 0.5
	for i := 0; i < 1<<19; i++ {
		f += 1e-3 * (math.Exp(-f) - 0.25*f)
	}
	refSink = acc ^ math.Float64bits(f)
	return threadCPUTime() - c0
}

// refSink keeps the reference kernel's result alive.
var refSink uint64

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// rusageThread is Linux's RUSAGE_THREAD.
const rusageThread = 1

// threadCPUTime is the calling thread's CPU time so far.
func threadCPUTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// calibration measures the machine's speed with the reference kernel.
// A shared host's speed moves by 20% and more within minutes: the
// hypervisor steals wall time, and the CPU time of the same work grows
// while other guests load the host. The kernel runs between stretches
// of measured work, while the program is idle, and each stretch's CPU
// time is scaled by refNominalMS over the kernel's time around it.
type calibration struct {
	prev float64
	ms   []float64
}

// mark runs the reference kernel and returns the mean of its time and
// the previous run's (its own time on the first call): the machine's
// speed over the stretch between the two runs.
func (c *calibration) mark() float64 {
	r := ms(refKernel())
	around := r
	if c.prev > 0 {
		around = (c.prev + r) / 2
	}
	c.prev = r
	c.ms = append(c.ms, r)
	return around
}

func (c *calibration) metric() metric {
	return metric{Name: "ref_kernel_ms", Unit: "ms", Value: median(c.ms), Note: fmt.Sprintf("CPU, median of %d", len(c.ms))}
}
