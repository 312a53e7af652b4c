package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
)

// buildDaemon builds cmd/rlckitd for the tests that drive it.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "rlckitd")
	out, err := exec.Command("go", "build", "-o", bin, "rlckit/cmd/rlckitd").CombinedOutput()
	if err != nil {
		t.Fatalf("build rlckitd: %v\n%s", err, out)
	}
	return bin
}

// benchmarkMetrics reads the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func names(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func sameSet(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSmokeAllWorkloads runs every workload at a tiny size, untraced and
// traced, and checks that each run is correct and reports exactly the
// metrics BENCHMARK.json declares.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("drives rlckitd")
	}
	bin := buildDaemon(t)
	endToEnd, perLayer := benchmarkMetrics(t)
	for _, w := range []string{"population-sweep", "serve-hot", "serve-exact"} {
		for _, trace := range []bool{false, true} {
			o := options{workload: w, seed: 3, seconds: 0.6, trace: trace, rlckitd: bin, out: t.TempDir(), scale: 0.05, corruptRef: -1}
			res, err := workloads[w](o, t.Logf)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if got := names(res.Metrics); !sameSet(got, want) {
				t.Errorf("%s trace=%t: metrics %v, BENCHMARK.json declares %v", w, trace, got, want)
			}
			if trace {
				files, _ := filepath.Glob(filepath.Join(o.out, w+"-seed3.json"))
				if len(files) != 1 {
					t.Errorf("%s: no trace file in %s", w, o.out)
				}
			}
		}
	}
}

// TestWrongReferenceIsCaught flips a byte of one reference body and
// checks that the run counts the mismatch and reports itself incorrect.
func TestWrongReferenceIsCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("drives rlckitd")
	}
	bin := buildDaemon(t)
	o := options{workload: "serve-hot", seed: 1, seconds: 0.3, rlckitd: bin, scale: 0.2, corruptRef: 0}
	res, err := runServeHot(o, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted reference went unnoticed: correct=%t failed=%d", res.Correct, res.Failed)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("p50 = %g, want 3", got)
	}
	if got := percentile(xs, 75); got != 4 {
		t.Errorf("p75 = %g, want 4", got)
	}
	if got := percentile(xs, 100); got != 5 {
		t.Errorf("p100 = %g, want 5", got)
	}
}

// TestSelfTime checks that overlapping children are counted once.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "a", Start: 30, End: 70},
		{ID: 4, Parent: 1, Name: "b", Start: 90, End: 120},
	}
	for _, ls := range summarize(spans) {
		if ls.Name == "op" && math.Abs(ls.SelfMS-30e-6) > 1e-12 {
			t.Errorf("op self time = %g ms, want 30e-6 (100 ns minus 60 ns of [10,70] and 10 ns of [90,100])", ls.SelfMS)
		}
	}
}

// TestRunningOutOfReferencesFails caps serve-exact's referenced ops far
// below what its window needs and checks that the run counts the
// exhaustion as a failure.
func TestRunningOutOfReferencesFails(t *testing.T) {
	if testing.Short() {
		t.Skip("drives rlckitd")
	}
	bin := buildDaemon(t)
	o := options{workload: "serve-exact", seed: 1, seconds: 1, rlckitd: bin, scale: 0.05, corruptRef: -1, maxRefs: 6}
	res, err := runServeExact(o, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("running out of referenced ops went unnoticed: correct=%t failed=%d", res.Correct, res.Failed)
	}
}

// TestFastSideQuartiles checks that rates are read at the upper
// quartile of their slices and latencies at the lower quartile, so that
// slow spells in a few slices leave the figures alone.
func TestFastSideQuartiles(t *testing.T) {
	// Slice k of a 10 s window does k+1 units of work, except that the
	// first three slices are slowed down to a tenth.
	var items []item
	for k := 0; k < subWindows; k++ {
		work := float64(k + 1)
		if k < 3 {
			work /= 10
		}
		items = append(items, item{float64(k), float64(k + 1), work})
	}
	// Sorted, the slice rates are 0.1, 0.2, 0.3, 4, ..., 10, whose
	// upper quartile lies between 7 and 8 at 7.75.
	if got, _ := windowRate(items, subWindows); math.Abs(got-7.75) > 1e-12 {
		t.Errorf("windowRate = %g, want 7.75", got)
	}

	// Five latency slices of 1 s; slice k's operations all take k+1 ms,
	// and slice 0 is slowed to 50 ms. The lower quartile of the slice
	// values (2, 3, 4, 5, 50) is the second smallest, 3 ms.
	items = items[:0]
	for k := 0; k < latencyWindows; k++ {
		d := float64(k+1) / 1e3
		if k == 0 {
			d = 0.05
		}
		for i := 0; i < 200; i++ {
			end := float64(k) + 0.5 + float64(i)/1000
			items = append(items, item{end - d, end, 1})
		}
	}
	m := map[string]metric{}
	latencyMetrics(m, items, latencyWindows, t.Logf)
	for _, name := range []string{"latency_p50_ms", "latency_tail_ms"} {
		if got := m[name].Value; math.Abs(got-3) > 1e-9 {
			t.Errorf("%s = %g, want 3", name, got)
		}
	}
}
