package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rlckit"
	"rlckit/internal/repeater"
	"rlckit/internal/serve"
)

// setupRounds is how many times a run sets up its workload; setup_s is
// the lower quartile (see stats.go).
const setupRounds = 9

// inProcess runs one request through an in-process handler.
func inProcess(h http.Handler, method, path string, body []byte) (int, []byte) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// reference fills every step's want body from the in-process reference
// server. It returns false when a reference request itself failed.
func reference(h http.Handler, o *op) bool {
	id := ""
	for k := range o.steps {
		s := &o.steps[k]
		code, body := inProcess(h, s.method, fillID(s.path, id), s.body)
		if code/100 != 2 {
			s.want = body
			return false
		}
		if k == 0 && o.kind == "session" {
			id = sessionIDOf(body)
		}
		s.want = body
	}
	return true
}

// referencePool generates ops from index from up to to and computes
// their references on workers goroutines. Failed references are counted
// in tl.
func referencePool(h http.Handler, gen func(i int) (op, error), from, to, workers int, tl *tally, logf func(string, ...any)) ([]op, error) {
	var (
		next     atomic.Int64
		mu       sync.Mutex
		ops      = make([]op, to-from)
		firstErr error
		wg       sync.WaitGroup
	)
	next.Store(int64(from))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= to {
					return
				}
				o, err := gen(i)
				if err == nil && !reference(h, &o) {
					tl.attempted.Add(1)
					tl.fail(logf, "reference %s op %d answered %s", o.kind, i, bytes.TrimSpace(o.steps[len(o.steps)-1].want))
				}
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				ops[i-from] = o
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return ops, nil
}

// loopResult is one closed-loop measurement window.
type loopResult struct {
	items    []item // per request, for the throughput
	ops      []item // per op (a request, or a whole session), for the latencies
	start    time.Time
	editLat  []float64 // session edit requests, ms
	requests int64
	elapsed  time.Duration
	// exhausted reports that serve-exact ran out of referenced ops
	// before the window ended.
	exhausted bool
}

// rate is the window's requests per second, in-flight tail included.
func (r loopResult) rate() float64 { return float64(r.requests) / r.elapsed.Seconds() }

// runOp sends an op's steps in order on one connection and checks every
// response against its reference.
func runOp(d *daemon, o *op, opID int64, tr *tracer, tl *tally, logf func(string, ...any), res *loopResult) {
	root := tr.begin("op."+o.kind, 0, opID)
	opStart := time.Since(res.start).Seconds()
	id, wantID := "", ""
	for k := range o.steps {
		s := &o.steps[k]
		sp := tr.begin(stepName(o, k), root.id(), opID)
		t0 := time.Now()
		tl.attempted.Add(1)
		status, body, err := d.do(s.method, fillID(s.path, id), s.body)
		el := ms(time.Since(t0))
		sp.end()
		res.requests++
		end := time.Since(res.start).Seconds()
		res.items = append(res.items, item{end - el/1e3, end, 1})
		if o.kind == "session" && k > 0 && k < len(o.steps)-1 {
			res.editLat = append(res.editLat, el)
		}
		switch {
		case err != nil:
			tl.fail(logf, "%s %s: %v", s.method, s.path, err)
		case status/100 != 2:
			tl.fail(logf, "%s %s answered %d: %s", s.method, s.path, status, bytes.TrimSpace(body))
		default:
			if k == 0 && o.kind == "session" {
				id, wantID = sessionIDOf(body), sessionIDOf(s.want)
			}
			if !sameBody(body, s.want, id, wantID) {
				tl.fail(logf, "op %d step %d %s %s (%s): body differs from the in-process reference:\n got %s\nwant %s",
					opID, k, s.method, s.path, o.kind, bytes.TrimSpace(body), bytes.TrimSpace(s.want))
			}
		}
		if k == 0 && id == "" && o.kind == "session" {
			break // no session to edit
		}
	}
	res.ops = append(res.ops, item{opStart, time.Since(res.start).Seconds(), 1})
	root.end()
}

// stepName names a step's span: the op kind, or the session phase.
func stepName(o *op, k int) string {
	switch {
	case o.kind != "session":
		return "rlckitd." + o.kind
	case k == 0:
		return "rlckitd.session.open"
	case k == len(o.steps)-1:
		return "rlckitd.session.delete"
	default:
		return "rlckitd.session.edit"
	}
}

// closedLoop runs conns callers against d for dur, each sending its next
// op only after the previous one's last reply. next returns a caller's
// next op, or false when there are none left.
func closedLoop(d *daemon, conns int, dur time.Duration, next func(caller int) (*op, int64, bool), tr *tracer, tl *tally, logf func(string, ...any)) loopResult {
	results := make([]loopResult, conns)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &results[c]
			r.start = start
			for time.Now().Before(deadline) {
				o, id, ok := next(c)
				if !ok {
					r.exhausted = true
					return
				}
				runOp(d, o, id, tr, tl, logf, r)
			}
		}(c)
	}
	wg.Wait()
	out := loopResult{elapsed: time.Since(start)}
	for _, r := range results {
		out.items = append(out.items, r.items...)
		out.ops = append(out.ops, r.ops...)
		out.editLat = append(out.editLat, r.editLat...)
		out.requests += r.requests
		out.exhausted = out.exhausted || r.exhausted
	}
	return out
}

// serveRun is what the serve workloads share: ops with references, a
// chooser of the next op, the warm-up and the sanity gate.
type serveRun struct {
	// repeatable reports that a window can be measured again: serve-hot
	// only resends cached bodies, while serve-exact spends its
	// referenced ops.
	repeatable bool
	// warm sends the set-up traffic to a fresh daemon.
	warm func(d *daemon, tl *tally, logf func(string, ...any))
	// next picks caller c's next op and its id.
	next func(c int) (*op, int64, bool)
	// gate checks the window's counters against the workload's
	// rationale and returns a failure description or "".
	gate func(s statsDelta) string
	// probe are the inputs the per-layer probes run on.
	probe probeInputs
}

// runServe measures a serve workload: set-up rounds, then one timed
// closed loop (end-to-end run) or an untraced and a traced loop plus the
// layer probes (traced run).
func runServe(o options, sr *serveRun, tl *tally, logf func(string, ...any)) (*result, error) {
	conns := runtime.NumCPU()
	var d *daemon
	var setups []float64
	rounds := setupRounds
	if o.trace {
		rounds = 1
	}
	for k := 0; k < rounds; k++ {
		t0 := time.Now()
		nd, err := startDaemon(o.rlckitd, conns)
		if err != nil {
			return nil, err
		}
		sr.warm(nd, tl, logf)
		setups = append(setups, time.Since(t0).Seconds())
		if d != nil {
			d.stop()
		}
		d = nd
	}
	defer d.stop()
	logf("setup_s rounds=%v", setups)

	res := &result{Metrics: map[string]metric{}}
	window := time.Duration(o.seconds * float64(time.Second))
	// loop runs one window; a window that runs out of referenced ops is
	// a failed check, since its rate and tails would then describe a
	// partly idle loop.
	loop := func(tr *tracer) loopResult {
		lr := closedLoop(d, conns, window, sr.next, tr, tl, logf)
		if lr.exhausted {
			tl.attempted.Add(1)
			tl.fail(logf, "ran out of referenced ops before the %.2fs window ended", window.Seconds())
		}
		return lr
	}
	var tr *tracer
	var untraced loopResult
	if o.trace {
		window /= 2
		untraced = loop(nil)
		tr = newTracer()
	}
	type measured struct {
		lr loopResult
		st statsDelta
	}
	measure := func() (measured, error) {
		before, err := d.stats()
		if err != nil {
			return measured{}, err
		}
		lr := loop(tr)
		after, err := d.stats()
		if err != nil {
			return measured{}, err
		}
		st := delta(before, after)
		if msg := sr.gate(st); msg != "" {
			tl.attempted.Add(1)
			tl.fail(logf, "workload gate: %s", msg)
		}
		return measured{lr, st}, nil
	}
	tries := 1
	if sr.repeatable && !o.trace {
		tries += remeasures
	}
	m, err := quietWindow(tries, measure, logf)
	if err != nil {
		return nil, err
	}
	lr, st := m.lr, m.st
	rps, per := windowRate(lr.items, window.Seconds())
	logf("requests=%d elapsed=%.2fs requests_per_s=%.5g per slice=%.4g cache.hit_ratio=%.4f rejected=%g degraded=%g edit_p50_ms=%.4g",
		lr.requests, lr.elapsed.Seconds(), rps, per, st.hitRatio(), st.Rejected, st.Degraded, median(lr.editLat))
	if !o.trace {
		rss, err := d.peakRSSMB()
		if err != nil {
			return nil, err
		}
		res.Metrics["setup_s"] = metric{percentile(setups, 25), "s"}
		res.Metrics["ops_per_s"] = metric{rps, "1/s"}
		res.Metrics["peak_rss_mb"] = metric{rss, "MB"}
		latencyMetrics(res.Metrics, lr.ops, window.Seconds(), logf)
	} else {
		st.layerMetrics(res.Metrics)
		res.Metrics["trace.overhead_pct"] = metric{overheadPct(untraced.rate(), lr.rate()), "%"}
		counters := map[string]any{"window": st, "requests": lr.requests}
		if len(lr.editLat) > 0 {
			counters["edit_rtt_ms_p50_loop"] = median(lr.editLat)
		}
		if err := layerProbes(o, sr.probe, d, tr, tl, logf, res.Metrics); err != nil {
			return nil, err
		}
		if err := finishTrace(o, tr, res.Metrics, counters, logf); err != nil {
			return nil, err
		}
	}
	res.Attempted, res.Failed = tl.attempted.Load(), tl.failed.Load()
	res.Correct = res.Failed == 0
	return res, nil
}

// sendAll sends ops once each, in order, on conns callers, checking
// every response; it is the serve workloads' warm-up.
func sendAll(d *daemon, ops []op, conns int, tl *tally, logf func(string, ...any)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var r loopResult
			for {
				i := next.Add(1) - 1
				if int(i) >= len(ops) {
					return
				}
				runOp(d, &ops[i], -1-i, nil, tl, logf, &r)
			}
		}()
	}
	wg.Wait()
}

// hotPerKind sizes serve-hot's body set: this many lines (each as an
// Eq. 9 delay, a screen and a repeater plan) and trees.
const hotPerKind = 16

func runServeHot(o options, logf func(string, ...any)) (*result, error) {
	tl := &tally{}
	perKind := max(2, int(hotPerKind*o.scale))
	ops, err := hotOps(o.seed, perKind)
	if err != nil {
		return nil, err
	}
	ref, err := serve.New(serve.Config{})
	if err != nil {
		return nil, err
	}
	defer ref.Close()
	for i := range ops {
		if !reference(ref.Handler(), &ops[i]) {
			tl.attempted.Add(1)
			tl.fail(logf, "reference %s op %d answered %s", ops[i].kind, i, bytes.TrimSpace(ops[i].steps[0].want))
		}
	}
	corrupt(o, ops)
	checkHotOutputs(ops, tl, logf)
	staticChecks(tl, logf)
	logf("serve-hot: %d byte-distinct bodies", len(ops))

	conns := runtime.NumCPU()
	rngs := make([]*rand.Rand, conns)
	var opSeq atomic.Int64
	sr := &serveRun{
		repeatable: true,
		warm:       func(d *daemon, tl *tally, logf func(string, ...any)) { sendAll(d, ops, conns, tl, logf) },
		next: func(c int) (*op, int64, bool) {
			if rngs[c] == nil {
				rngs[c] = rand.New(rand.NewSource(o.seed*31 + int64(c)))
			}
			return &ops[rngs[c].Intn(len(ops))], opSeq.Add(1), true
		},
		gate: func(s statsDelta) string {
			if s.hitRatio() < 0.99 || s.Rejected != 0 || s.Degraded != 0 {
				return fmt.Sprintf("serve-hot needs cache.hit_ratio >= 0.99 and no rejected/degraded requests, got %.4f/%g/%g", s.hitRatio(), s.Rejected, s.Degraded)
			}
			return ""
		},
		probe: probeFromOps(ops),
	}
	return runServe(o, sr, tl, logf)
}

// serve-exact references a fixed count of ops before timing: it times
// the references of the first exactCalibRounds passes over exactMix
// (a few seconds, so that a short stall of a shared host does not skew
// the rate), and at that rate references exactRefMargin windows' worth
// in all. The daemon's loop runs the same computations on the same
// cores, plus TCP and its callers; in measured 16- and 20-second
// windows it used 34–49% of the references. A window that still runs
// out is a failed check.
const (
	exactCalibRounds = 40
	exactRefMargin   = 2.5
)

// exactBaseNets is how many net shapes of each family serve-exact
// cycles through.
const exactBaseNets = 16

func runServeExact(o options, logf func(string, ...any)) (*result, error) {
	tl := &tally{}
	bases, err := newExactBases(max(2, int(exactBaseNets*o.scale)))
	if err != nil {
		return nil, err
	}
	ref, err := serve.New(serve.Config{})
	if err != nil {
		return nil, err
	}
	defer ref.Close()
	conns := runtime.NumCPU()
	// Warm-up ops come from a fixed seed stream of their own (negative,
	// unlike the run seeds), so set-up does the same work on every run
	// and never repeats a measured body.
	warmOps, err := referencePool(ref.Handler(), func(i int) (op, error) { return bases.exactOp(-1, i) }, 0, len(exactMix), conns, tl, logf)
	if err != nil {
		return nil, err
	}
	gen := func(i int) (op, error) { return bases.exactOp(o.seed, i) }
	calib := exactCalibRounds * len(exactMix)
	t0 := time.Now()
	ops, err := referencePool(ref.Handler(), gen, 0, calib, conns, tl, logf)
	if err != nil {
		return nil, err
	}
	rate := float64(calib) / time.Since(t0).Seconds()
	total := max(calib, int(math.Ceil(exactRefMargin*rate*o.seconds)))
	rest, err := referencePool(ref.Handler(), gen, calib, total, conns, tl, logf)
	if err != nil {
		return nil, err
	}
	ops = append(ops, rest...)
	if o.maxRefs > 0 {
		ops = ops[:min(len(ops), o.maxRefs)]
	}
	logf("serve-exact: %d referenced ops in %.1fs (%.4g ops/s on the first %d)", len(ops), time.Since(t0).Seconds(), rate, calib)
	corrupt(o, ops)
	checkExactOutputs(ref.Handler(), ops, tl, logf)
	staticChecks(tl, logf)

	var next atomic.Int64
	sr := &serveRun{
		warm: func(d *daemon, tl *tally, logf func(string, ...any)) { sendAll(d, warmOps, conns, tl, logf) },
		next: func(int) (*op, int64, bool) {
			i := next.Add(1) - 1
			if int(i) >= len(ops) {
				return nil, 0, false
			}
			return &ops[i], i, true
		},
		gate: func(s statsDelta) string {
			if s.hitRatio() > 0.01 || s.Rejected != 0 || s.Degraded != 0 {
				return fmt.Sprintf("serve-exact needs cache.hit_ratio <= 0.01 and no rejected/degraded requests, got %.4f/%g/%g", s.hitRatio(), s.Rejected, s.Degraded)
			}
			return ""
		},
		probe: probeFromOps(ops),
	}
	res, err := runServe(o, sr, tl, logf)
	logf("serve-exact: the loop used %d of %d referenced ops", min(int(next.Load()), len(ops)), len(ops))
	return res, err
}

// corrupt applies the -corrupt test hook: flip one byte of an op's
// first reference body.
func corrupt(o options, ops []op) {
	if o.corruptRef >= 0 && o.corruptRef < len(ops) {
		w := ops[o.corruptRef].steps[0].want
		if len(w) > 0 {
			w = append([]byte(nil), w...)
			w[len(w)/2] ^= 0x01
			ops[o.corruptRef].steps[0].want = w
		}
	}
}

// checkHotOutputs checks serve-hot's references against independent
// answers: Eq. 9 delays bit for bit against the facade, and the
// single-RC-branch tree against ln2·(Rtr+R)·CL (see rcExact).
func checkHotOutputs(ops []op, tl *tally, logf func(string, ...any)) {
	for i := range ops {
		o := &ops[i]
		switch o.kind {
		case "delay-eq9":
			tl.attempted.Add(1)
			var resp serve.DelayResponse
			want, err := rlckit.Delay(o.line.line(), o.line.tlDrive())
			if e := json.Unmarshal(o.steps[0].want, &resp); e != nil || err != nil || math.Float64bits(resp.DelayS) != math.Float64bits(want) {
				tl.fail(logf, "eq9 op %d: delay_s %v, rlckit.Delay %v (%v)", i, resp.DelayS, want, err)
			}
		case "tree-rc-branch":
			tl.attempted.Add(1)
			var resp serve.TreeResponse
			br, sk := o.tree.spec.Branches[0], o.tree.spec.Sinks[0]
			want := math.Ln2 * (o.tree.drive.Rtr + br.R) * sk.CL
			if e := json.Unmarshal(o.steps[0].want, &resp); e != nil || len(resp.Sinks) != 1 || !rcExact(resp.Sinks[0].DelayS, want) {
				tl.fail(logf, "single-RC-branch tree: got %s, want delay_s %v", bytes.TrimSpace(o.steps[0].want), want)
			}
		}
	}
}

// rcExact reports whether a closed-form single-RC-branch delay equals
// ln2·(Rtr+R)·CL up to rounding. The engine reaches it through the
// tree's moments, not through that product, so the last bits differ
// (by 14 ulps on the documented 1000 Ω / 500 Ω / 1 pF case).
func rcExact(got, want float64) bool {
	return math.Abs(got-want) <= 1e-12*math.Abs(want)
}

// closedTolPct is the conformance harness's default closed-form vs MNA
// bound for in-domain sinks.
const closedTolPct = 10

// checkExactOutputs checks every tree-mna reference against the closed
// form on its in-domain sinks.
func checkExactOutputs(h http.Handler, ops []op, tl *tally, logf func(string, ...any)) {
	for i := range ops {
		o := &ops[i]
		if o.kind != "tree-mna" {
			continue
		}
		tl.attempted.Add(1)
		var exact, closed serve.TreeResponse
		_, cb := inProcess(h, "POST", "/v1/tree", mustJSON(serve.TreeRequest{Tree: o.tree.spec, Drive: o.tree.drive, Engine: "closed"}))
		if json.Unmarshal(o.steps[0].want, &exact) != nil || json.Unmarshal(cb, &closed) != nil || len(exact.Sinks) != len(closed.Sinks) {
			tl.fail(logf, "tree-mna op %d: unreadable responses", i)
			continue
		}
		worst := 0.0
		for k, s := range closed.Sinks {
			if s.InDomain {
				worst = math.Max(worst, 100*math.Abs(s.DelayS-exact.Sinks[k].DelayS)/exact.Sinks[k].DelayS)
			}
		}
		if worst > closedTolPct {
			tl.fail(logf, "tree-mna op %d: in-domain closed form off MNA by %.2f%% > %d%%", i, worst, closedTolPct)
		}
	}
}

// staticChecks are the paper anchors every workload re-checks:
// Eq. 18's area increase of 154% at T_L/R = 3 and 435% at 5.
func staticChecks(tl *tally, logf func(string, ...any)) {
	for _, c := range []struct{ tlr, want, tol float64 }{{3, 154, 1}, {5, 435, 2}} {
		tl.attempted.Add(1)
		if got := repeater.AreaIncrease(c.tlr); math.Abs(got-c.want) > c.tol {
			tl.fail(logf, "repeater.AreaIncrease(%g) = %.2f%%, paper says %g%%", c.tlr, got, c.want)
		}
	}
}

// probeFromOps collects the lines, trees and single-request bodies of
// a serve workload's ops for the layer probes.
func probeFromOps(ops []op) probeInputs {
	var in probeInputs
	for i := range ops {
		o := &ops[i]
		if o.line != nil {
			in.lines = append(in.lines, *o.line)
		}
		if o.tree != nil && len(o.tree.spec.Sinks) > 1 {
			in.trees = append(in.trees, *o.tree)
		}
		if len(o.steps) == 1 {
			in.bodies = append(in.bodies, o.steps[0])
		}
	}
	sort.SliceStable(in.trees, func(i, j int) bool { return len(in.trees[i].spec.Sinks) < len(in.trees[j].spec.Sinks) })
	return in
}
