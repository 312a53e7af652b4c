package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// percentile returns the q-th percentile (0..100) of xs by linear
// interpolation between order statistics; NaN when xs is empty. xs is
// sorted in place.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q / 100 * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// tally counts attempts and failures across goroutines; every failed
// check, error response and transport error is one failure.
type tally struct {
	attempted, failed atomic.Int64
}

func (t *tally) fail(logf func(string, ...any), format string, a ...any) {
	if t.failed.Add(1) <= 10 {
		logf("FAIL: "+format, a...)
	}
}

// overheadPct is the tracing overhead: how much faster the untraced
// loop ran than the traced one, in percent (0 when either did no work).
func overheadPct(untraced, traced float64) float64 {
	if untraced <= 0 || traced <= 0 {
		return 0
	}
	return 100 * (untraced/traced - 1)
}

// A shared host only ever slows the benchmark down, and its slow spells
// last seconds. So each end-to-end figure is taken within equal slices
// of the window and then read at the quartile on the fast side: the
// upper quartile of the slices' rates and the lower quartile of their
// latencies. A spell that covers up to three fifths of the slices then
// leaves the figure alone, while a change to the program, which moves
// every slice, moves it.
const (
	// subWindows is how many slices the throughput is taken over.
	subWindows = 10
	// latencyWindows is how many slices the latencies are taken over;
	// fewer, so that a slice holds enough operations for its tail.
	latencyWindows = 5
	// tailPct is the percentile latency_tail_ms reports on every
	// workload. Higher ones still leave ten samples of a slice beyond
	// them on population-sweep and serve-hot, but they grow with the
	// host's CPU steal: at 11% steal serve-hot's p99 doubled while its
	// p90 rose by a fifth.
	tailPct = 90.0
)

// item is one timed unit of work: its start and end in seconds since
// the window opened, and its amount.
type item struct{ start, end, work float64 }

// windowRate returns the upper quartile over subWindows equal slices of
// [0, span) seconds of the work done in each slice, per second, and the
// slices' rates. An item's work is spread evenly over its duration, so
// a slice is credited with the part of every item that ran inside it.
func windowRate(items []item, span float64) (float64, []float64) {
	w := span / subWindows
	per := make([]float64, subWindows)
	for _, it := range items {
		d := it.end - it.start
		for k := max(0, int(it.start/w)); k < subWindows && float64(k)*w < it.end; k++ {
			lo, hi := max(it.start, float64(k)*w), min(it.end, float64(k+1)*w)
			if hi > lo && d > 0 {
				per[k] += it.work * (hi - lo) / d
			}
		}
	}
	for k := range per {
		per[k] /= w
	}
	return percentile(append([]float64(nil), per...), 75), per
}

// latencyMetrics turns per-operation timings into the shared end-to-end
// latency metrics. The operations are split by completion time into
// latencyWindows equal slices of [0, span) seconds; each slice gives
// its median and its tailPct percentile, and each metric is the lower
// quartile of its slice values.
func latencyMetrics(m map[string]metric, items []item, span float64, logf func(string, ...any)) {
	slices := make([][]float64, latencyWindows)
	for _, it := range items {
		k := min(latencyWindows-1, int(it.end/span*latencyWindows))
		slices[k] = append(slices[k], 1e3*(it.end-it.start))
	}
	p50s := make([]float64, latencyWindows)
	tails := make([]float64, latencyWindows)
	// p99s are only logged: the bounded tail is tailPct.
	p99s := make([]float64, latencyWindows)
	for k, xs := range slices {
		if beyond := float64(len(xs)) * (1 - tailPct/100); beyond < 10 {
			logf("warning: only %.0f samples beyond p%g in latency slice %d (n=%d)", beyond, tailPct, k, len(xs))
		}
		p50s[k] = median(xs)
		tails[k] = percentile(xs, tailPct)
		p99s[k] = percentile(xs, 99)
	}
	logf("latency n=%d per slice n=%d p50=%.4g p%g=%.4g p99=%.4g ms", len(items), lens(slices), p50s, tailPct, tails, p99s)
	m["latency_p50_ms"] = metric{percentile(p50s, 25), "ms"}
	m["latency_tail_ms"] = metric{percentile(tails, 25), "ms"}
	logf("latency p50=%.4gms p%g=%.4gms", m["latency_p50_ms"].Value, tailPct, m["latency_tail_ms"].Value)
}

func lens(xss [][]float64) []int {
	n := make([]int, len(xss))
	for i, xs := range xss {
		n[i] = len(xs)
	}
	return n
}

// A window during which the hypervisor took more than maxSteal of the
// machine's CPU time is measured again, up to remeasures times, and the
// window with the least steal is reported. Steal, not the program's own
// figures, decides: on a 2-vCPU VM, serve-hot windows with 11% steal
// served a quarter fewer requests than windows with under 3%, and their
// p99 doubled.
const (
	maxSteal   = 0.05
	remeasures = 1
)

// cpuTimes reads the machine's total and stolen CPU time in clock ticks
// from the first line of /proc/stat; ok is false where it is missing.
func cpuTimes() (total, steal uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, v := range f[1:9] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return total, steal, true
}

// quietWindow calls measure, which measures one window, until the host
// steals at most maxSteal of the CPU time during a window or tries
// windows have been measured, and returns the window with the least
// steal.
func quietWindow[T any](tries int, measure func() (T, error), logf func(string, ...any)) (T, error) {
	var best T
	bestStolen := math.Inf(1)
	for k := 1; ; k++ {
		t0, s0, ok0 := cpuTimes()
		r, err := measure()
		if err != nil {
			return r, err
		}
		t1, s1, ok1 := cpuTimes()
		if !ok0 || !ok1 {
			return r, nil
		}
		stolen := ratio(float64(s1-s0), float64(t1-t0))
		logf("host steal during window %d: %.1f%% of CPU time", k, 100*stolen)
		if stolen < bestStolen {
			best, bestStolen = r, stolen
		}
		if stolen <= maxSteal || k >= tries {
			break
		}
		logf("more than %.0f%% steal: measuring the window again", 100*maxSteal)
	}
	if bestStolen > maxSteal {
		logf("warning: reporting a window with %.1f%% steal", 100*bestStolen)
	}
	return best, nil
}

// peakRSSMB reads a process's peak resident set size (VmHWM) in MB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, os.ErrNotExist
}
