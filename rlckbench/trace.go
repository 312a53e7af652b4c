package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Times are nanoseconds since the tracer
// started. Spans of one operation share Op; Parent is 0 for a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// tracing off: every method is a no-op that costs one nil check.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a started span; close it with end.
type openSpan struct {
	tr *tracer
	s  span
}

// begin starts a span named name under parent (0 for a root) in
// operation op.
func (tr *tracer) begin(name string, parent, op int64) openSpan {
	if tr == nil {
		return openSpan{}
	}
	return openSpan{tr: tr, s: span{ID: tr.next.Add(1), Parent: parent, Op: op, Name: name, Start: int64(time.Since(tr.t0))}}
}

// id is the span's ID, for children to name as their parent.
func (o openSpan) id() int64 { return o.s.ID }

// end records the span and returns its duration (0 when tracing is off).
func (o openSpan) end() time.Duration {
	if o.tr == nil {
		return 0
	}
	o.s.End = int64(time.Since(o.tr.t0))
	o.tr.mu.Lock()
	o.tr.spans = append(o.tr.spans, o.s)
	o.tr.mu.Unlock()
	return time.Duration(o.s.End - o.s.Start)
}

// layerSummary aggregates the spans of one name.
type layerSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
	P50MS   float64 `json:"p50_ms"`
}

// summarize groups spans by name. A span's self time is its duration
// minus the part of its interval that its children cover (children of
// one parent may overlap when they run on parallel workers, so the
// covered time is the union of their intervals).
func summarize(spans []span) []layerSummary {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	by := make(map[string]*layerSummary)
	durs := make(map[string][]float64)
	for _, s := range spans {
		ls := by[s.Name]
		if ls == nil {
			ls = &layerSummary{Name: s.Name}
			by[s.Name] = ls
		}
		d := float64(s.End-s.Start) / 1e6
		ls.Count++
		ls.TotalMS += d
		ls.SelfMS += d - float64(covered(s, kids[s.ID]))/1e6
		durs[s.Name] = append(durs[s.Name], d)
	}
	out := make([]layerSummary, 0, len(by))
	for name, ls := range by {
		ls.P50MS = median(durs[name])
		out = append(out, *ls)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns the nanoseconds of parent's interval covered by the
// union of the children's intervals.
func covered(parent span, children []span) int64 {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	curA, curB = -1, -1
	for _, x := range iv {
		if x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	return total + curB - curA
}

// traceFile is what the traced run writes: environment, per-layer
// metrics, server counter deltas, span summaries and every span.
type traceFile struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Seconds  float64           `json:"seconds"`
	Env      map[string]string `json:"env"`
	Metrics  map[string]metric `json:"metrics"`
	Counters map[string]any    `json:"counters"`
	Layers   []layerSummary    `json:"layers"`
	Spans    []span            `json:"spans"`
}

// environment records where the numbers were measured.
func environment() map[string]string {
	host, _ := os.Hostname()
	env := map[string]string{
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"host":       host,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, model, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
				env["cpu"] = strings.TrimSpace(model)
				break
			}
		}
	}
	return env
}

// writeTrace writes the traced run's file and returns its path.
func writeTrace(dir string, tf traceFile, tr *tracer) (string, error) {
	tr.mu.Lock()
	tf.Spans = append([]span(nil), tr.spans...)
	tr.mu.Unlock()
	sort.Slice(tf.Spans, func(i, j int) bool { return tf.Spans[i].ID < tf.Spans[j].ID })
	tf.Layers = summarize(tf.Spans)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", tf.Workload, tf.Seed))
	b, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
