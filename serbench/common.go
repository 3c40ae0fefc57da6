package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro"
)

// defaultSeed is the workload seed at which the first call of each
// kind uses the seeds of the repository's paper benchmarks, so the run
// reproduces their pinned values.
const defaultSeed = 1

// metric is one named, unit-carrying number the benchmark prints.
type metric struct {
	Name  string
	Unit  string
	Value float64
	Note  string
}

// outcome is what one workload run reports: the gated metrics of its
// mode (end-to-end untraced, per-layer traced), the metrics only this
// workload has, the operation tally and, when traced, the spans.
type outcome struct {
	gated []metric
	extra []metric
	tally *tally
	spans []span
}

// tally counts operations attempted and failed. An operation fails
// when its call errors or any of its correctness checks fails.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	reasons   []string
}

// op records one attempted operation and whether it passed.
func (t *tally) op(ok bool, format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if !ok {
		t.failed++
		if len(t.reasons) < 8 {
			t.reasons = append(t.reasons, fmt.Sprintf(format, args...))
		}
	}
}

func (t *tally) counts() (attempted, failed int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed
}

// checks accumulates the correctness checks of one operation; an
// operation passes only when every check does.
type checks struct {
	failures []string
}

func (c *checks) expect(ok bool, format string, args ...any) {
	if !ok {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

func (c *checks) err(err error) bool {
	if err != nil {
		c.failures = append(c.failures, err.Error())
		return true
	}
	return false
}

func (c *checks) done(t *tally, what string) {
	t.op(len(c.failures) == 0, "%s: %s", what, strings.Join(c.failures, "; "))
}

// sameU reports whether two unreliability values are bitwise equal.
// With inject set the first value is nudged by one ulp first, which
// the smoke test uses to prove a wrong U is caught and counted.
func sameU(got, want float64, inject bool) bool {
	if inject {
		got = math.Nextafter(got, math.Inf(1))
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// checkUSum checks that per-gate contributions, summed in netlist
// order, reproduce the analysis's U exactly.
func checkUSum(ck *checks, perGate []float64, u float64, inject bool) {
	sum := 0.0
	for _, x := range perGate {
		sum += x
	}
	ck.expect(sameU(sum, u, inject), "per-gate U sums to %v, U %v", sum, u)
}

// splitmix64 is the SplitMix64 finalizer, used to derive per-call
// seeds from the workload seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// callSeed derives the seed of the k-th call on one stream (a circuit,
// or a kind of call). At the default workload seed the first call
// uses paperSeed when one is given; every other call gets a seed
// derived from (workload seed, stream, k), distinct across k.
func callSeed(wseed, stream, k, paperSeed uint64) uint64 {
	if wseed == defaultSeed && k == 0 && paperSeed != 0 {
		return paperSeed
	}
	s := splitmix64(splitmix64(wseed)^(stream<<32)^k) >> 1
	if s <= 1<<16 {
		s += 1 << 16 // keep derived seeds clear of the small paper seeds
	}
	return s
}

// warmSeed is the seed of the set-up analysis of stream i: its top bit
// is set, which callSeed never produces, so the timed phase never
// reuses it.
func warmSeed(wseed, stream uint64) uint64 {
	return splitmix64(wseed^0x5eed^(stream<<40)) | 1<<63
}

// perm returns a permutation of 0..n-1 fixed by (workload seed, round).
func perm(n int, wseed, round uint64) []int {
	return rand.New(rand.NewPCG(wseed, round)).Perm(n)
}

// timedCycles runs cycle(0), cycle(1), ... until the cycles' summed
// wall time reaches d: always at least one cycle, and at most limit
// when limit > 0. Before every cycle but the first it runs between
// (when not nil), outside the timing. It returns the number of cycles
// run and their summed wall time.
func timedCycles(d time.Duration, limit int, between func(k int), cycle func(k int)) (int, time.Duration) {
	var wall time.Duration
	k := 0
	for k == 0 || wall < d && (limit <= 0 || k < limit) {
		if k > 0 && between != nil {
			between(k)
		}
		t0 := time.Now()
		cycle(k)
		wall += time.Since(t0)
		k++
	}
	return k, wall
}

// loadCircuits loads built-in benchmark circuits by name.
func loadCircuits(names []string) ([]*ser.Circuit, error) {
	out := make([]*ser.Circuit, len(names))
	for i, n := range names {
		c, err := ser.Benchmark(n)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// benchText is a circuit's .bench text.
func benchText(c *ser.Circuit) (string, error) {
	var b strings.Builder
	if err := ser.WriteBench(&b, c); err != nil {
		return "", err
	}
	return b.String(), nil
}

// nonInputGates counts a circuit's gates other than primary inputs:
// the gates an analysis reports on.
func nonInputGates(c *ser.Circuit) int {
	return c.NumGates() - len(c.Inputs())
}

// quantile returns the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// beyond counts the samples strictly above the q-quantile.
func beyond(xs []float64, q float64) int {
	v := quantile(xs, q)
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// resetPeakRSS returns the garbage left so far to the OS and resets
// the process's peak resident set to its current size, so that
// peakRSSMiB then covers only what runs from here on. Where the kernel
// refuses the reset, the peak also covers what ran before.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// sample is one completed timed operation and its wall time.
type sample struct {
	gates int
	dur   time.Duration
}

// window is a stretch of a timed phase and the process CPU time it
// took: a cycle of analyze-fresh, a pass of paper, a second of
// serve-warm. ref is the reference kernel's time around it.
type window struct {
	gates float64
	cpu   time.Duration
	ref   float64
}

// timedWindows runs timedCycles with a cycle that appends one window
// to *wins. It runs the reference kernel before the first cycle and
// after each one, outside the timing, and gives each window the mean
// of the two reference runs around it.
func timedWindows(d time.Duration, cal *calibration, wins *[]window, between func(k int), cycle func(k int)) time.Duration {
	cal.mark()
	_, wall := timedCycles(d, 0, func(k int) {
		(*wins)[len(*wins)-1].ref = cal.mark()
		if between != nil {
			between(k)
		}
	}, cycle)
	(*wins)[len(*wins)-1].ref = cal.mark()
	return wall
}

// endToEnd derives the end-to-end metrics every workload reports. The
// gated times are process CPU times, each scaled to the nominal
// machine by the reference kernel run next to it (calib.go): on a
// shared host the hypervisor steals a varying share of wall time (up
// to two thirds of it for minutes), which CPU time leaves out, and the
// scaling takes out the rest of the host's drift. The wall-clock and
// unscaled CPU figures of the same run are returned as extra lines.
func endToEnd(setup setupTime, wins []window, samples []sample, wall time.Duration, cal *calibration, t *tally) (gated, extra []metric) {
	var gates, cpu, rawCPU float64
	for _, w := range wins {
		gates += w.gates
		cpu += ms(w.cpu) * refNominalMS / w.ref
		rawCPU += ms(w.cpu)
	}
	lat := make([]float64, len(samples))
	var wallGates float64
	for i, s := range samples {
		lat[i] = ms(s.dur)
		wallGates += float64(s.gates)
	}
	attempted, failed := t.counts()
	ok := 0.0
	if attempted > 0 {
		ok = 100 * float64(attempted-failed) / float64(attempted)
	}
	gated = []metric{
		{Name: "setup_s", Unit: "s", Value: setup.cpu.Seconds(), Note: "scaled CPU"},
		{Name: "gates_per_cpu_s", Unit: "gates/s", Value: 1000 * gates / cpu, Note: "scaled CPU"},
		{Name: "peak_rss_mib", Unit: "MiB", Value: peakRSSMiB()},
		{Name: "ok_pct", Unit: "%", Value: ok},
	}
	extra = []metric{
		cal.metric(),
		{Name: "setup_cpu_raw_s", Unit: "s", Value: setup.rawCPU.Seconds(), Note: "CPU, not scaled"},
		{Name: "gates_per_cpu_raw_s", Unit: "gates/s", Value: 1000 * gates / rawCPU, Note: "CPU, not scaled"},
		{Name: "setup_wall_s", Unit: "s", Value: setup.wall.Seconds()},
		{Name: "gates_per_s", Unit: "gates/s", Value: wallGates / wall.Seconds(), Note: "wall"},
		{Name: "op_p50_ms", Unit: "ms", Value: quantile(lat, 0.5), Note: fmt.Sprintf("wall n=%d", len(lat))},
	}
	return gated, extra
}

// failedPct is the share of attempted operations that failed.
func failedPct(t *tally) metric {
	attempted, failed := t.counts()
	v := 0.0
	if attempted > 0 {
		v = 100 * float64(failed) / float64(attempted)
	}
	return metric{Name: "failed_pct", Unit: "%", Value: v, Note: fmt.Sprintf("failed=%d attempted=%d", failed, attempted)}
}

// setupTime is the median time of a workload's set-up: CPU time
// scaled like the timed phase's, unscaled CPU time and wall time.
type setupTime struct{ cpu, rawCPU, wall time.Duration }

// medianSetup runs set-up reps times, with the reference kernel before
// the first and after each, and returns the median times. Every rep
// but the last is discarded by its caller.
func medianSetup(reps int, cal *calibration, setup func(last bool) error) (setupTime, error) {
	var cpus, raws, walls []float64
	cal.mark()
	for i := 0; i < reps; i++ {
		t0, c0 := time.Now(), cpuTime()
		if err := setup(i == reps-1); err != nil {
			return setupTime{}, err
		}
		c, w := float64(cpuTime()-c0), float64(time.Since(t0))
		raws, walls = append(raws, c), append(walls, w)
		cpus = append(cpus, c*refNominalMS/cal.mark())
	}
	return setupTime{time.Duration(median(cpus)), time.Duration(median(raws)), time.Duration(median(walls))}, nil
}

// cpuTime is the process's CPU time so far, user plus system, summed
// over its threads. Time the hypervisor steals from the machine is not
// in it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
