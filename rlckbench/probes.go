package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"rlckit/internal/core"
	"rlckit/internal/mna"
	"rlckit/internal/netgen"
	"rlckit/internal/refeng"
	"rlckit/internal/report"
	"rlckit/internal/rlctree"
	"rlckit/internal/serve"
	"rlckit/internal/session"
	"rlckit/internal/sweep"
)

// The layer probes give every per-layer metric on every workload: each
// one calls one layer's public functions on the workload's own inputs
// (its lines, trees and request bodies), inside spans of the traced
// run. probeNets bounds the lines the line engines are run on.
const (
	probeNets   = 3
	probeBodies = 16
	probeRounds = 20 // timed passes over the bodies for handler and TCP p50s
	probeEdits  = 8
)

// probeInputs are a workload's generated nets, as the probes use them.
type probeInputs struct {
	lines  []lineIn
	trees  []treeIn
	bodies []step
	// nets is the population the sweep probe runs; nil means the lines.
	nets []netgen.Net
}

// layerProbes runs every probe and adds its metrics to m. d is the
// workload's daemon; with d nil (population-sweep) the probes start
// their own and also report its counter deltas.
func layerProbes(o options, in probeInputs, d *daemon, tr *tracer, tl *tally, logf func(string, ...any), m map[string]metric) error {
	if len(in.lines) == 0 || len(in.trees) == 0 {
		return fmt.Errorf("layer probes need lines and trees")
	}
	probeEq9(in, tr, m)
	if err := probeTrees(in, tr, m); err != nil {
		return err
	}
	if err := probeLines(in, tr, m); err != nil {
		return err
	}
	if err := probeSession(in, tr, m); err != nil {
		return err
	}
	if err := probeRCBranch(o.seed, tr, m); err != nil {
		return err
	}
	if err := probeSweep(in, tr, m); err != nil {
		return err
	}
	bodies := in.bodies
	if len(bodies) == 0 {
		// population-sweep has no request bodies: use Eq. 9 delay
		// requests of its own lines.
		for _, l := range in.lines[:min(probeBodies, len(in.lines))] {
			bodies = append(bodies, post("/v1/delay", serve.DelayRequest{Line: l.spec, Drive: l.drive, Method: "eq9"}))
		}
	}
	bodies = bodies[:min(probeBodies, len(bodies))]
	own := d == nil
	if own {
		var err error
		if d, err = startDaemon(o.rlckitd, runtime.NumCPU()); err != nil {
			return err
		}
		defer d.stop()
	}
	before, err := d.stats()
	if err != nil {
		return err
	}
	if err := probeServe(bodies, d, tr, tl, logf, m); err != nil {
		return err
	}
	if err := probeTCPSession(sessionTree(in.trees), d, tr, tl, logf, m); err != nil {
		return err
	}
	if own {
		after, err := d.stats()
		if err != nil {
			return err
		}
		delta(before, after).layerMetrics(m)
	}
	return nil
}

// probeEq9 times core.Delay (Eq. 9) over the lines.
func probeEq9(in probeInputs, tr *tracer, m map[string]metric) {
	sp := tr.begin("core.Delay", 0, 0)
	calls := 0
	t0 := time.Now()
	sink := 0.0
	for time.Since(t0) < 50*time.Millisecond {
		for _, l := range in.lines {
			v, _ := core.Delay(l.line(), l.tlDrive())
			sink += v
			calls++
		}
	}
	el := time.Since(t0)
	sp.end()
	m["core.eq9_ns"] = metric{float64(el.Nanoseconds()) / float64(calls), "ns"}
	_ = sink
}

// spanning returns the indices of the smallest, the median and the
// largest of n inputs sorted by size (fewer when n < 3), so that the
// expensive probes cover the sizes a workload sends.
func spanning(n int) map[int]bool {
	return map[int]bool{0: true, n / 2: true, n - 1: true}
}

// probeTrees runs rlctree's closed engine on up to 64 trees and its mna
// and reduced engines and mna.Simulate on the smallest, the median and
// the largest tree (the trees are sorted by sink count).
func probeTrees(in probeInputs, tr *tracer, m map[string]metric) error {
	var closed, exact, red, sim, steps, q, cert []float64
	heavy := spanning(len(in.trees))
	stride := (len(in.trees) + 63) / 64
	for i, ti := range in.trees {
		if i%stride != 0 && !heavy[i] {
			continue
		}
		t, d, err := ti.build()
		if err != nil {
			return err
		}
		sp := tr.begin("rlctree.Analyze.closed", 0, int64(i))
		cres, err := rlctree.Analyze(t, d, rlctree.Config{Engine: rlctree.EngineClosed})
		closed = append(closed, float64(sp.end())/1e3)
		if err != nil {
			return err
		}
		if !heavy[i] {
			continue
		}
		sp = tr.begin("rlctree.Analyze.mna", 0, int64(i))
		_, err = rlctree.Analyze(t, d, rlctree.Config{Engine: rlctree.EngineMNA})
		exact = append(exact, ms(sp.end()))
		if err != nil {
			return err
		}
		sp = tr.begin("rlctree.Analyze.reduced", 0, int64(i))
		rres, err := rlctree.Analyze(t, d, rlctree.Config{Engine: rlctree.EngineReduced})
		red = append(red, ms(sp.end()))
		if err != nil {
			return err
		}
		if rres.Reduced {
			q = append(q, float64(rres.MORInfo.Q))
			cert = append(cert, rres.MORInfo.EstErrPct)
		}
		// The benchmark's own transient plan: 3000 steps over four times
		// the closed-form slowest sink delay, step 10 dt in.
		tEnd := 4 * cres.MaxDelay
		dt := tEnd / 3000
		ckt, nodeOf, err := t.ToCircuit(d, 10*dt)
		if err != nil {
			return err
		}
		probes := make([]int, 0, len(t.Sinks()))
		for _, s := range t.Sinks() {
			probes = append(probes, nodeOf[s])
		}
		sp = tr.begin("mna.Simulate", 0, int64(i))
		res, err := mna.Simulate(ckt, mna.Options{Dt: dt, TEnd: tEnd + 10*dt, Probes: probes})
		sim = append(sim, ms(sp.end()))
		if err != nil {
			return err
		}
		steps = append(steps, float64(len(res.Time)))
	}
	m["rlctree.closed_us_p50"] = metric{median(closed), "us"}
	m["rlctree.mna_ms_p50"] = metric{median(exact), "ms"}
	m["rlctree.reduced_ms_p50"] = metric{median(red), "ms"}
	m["mna.simulate_ms_p50"] = metric{median(sim), "ms"}
	m["mna.steps_per_analysis"] = metric{mean(steps), "count"}
	m["mor.order_q_mean"] = metric{mean(q), "count"}
	m["mor.cert_err_pct_mean"] = metric{mean(cert), "%"}
	return nil
}

// probeLines runs refeng's line MNA and reduced engines.
func probeLines(in probeInputs, tr *tracer, m map[string]metric) error {
	var exact, red []float64
	for i, l := range in.lines[:min(probeNets, len(in.lines))] {
		sp := tr.begin("refeng.DelayMNA", 0, int64(i))
		_, err := refeng.DelayMNA(l.line(), l.tlDrive(), refeng.MNAConfig{})
		exact = append(exact, ms(sp.end()))
		if err != nil {
			return err
		}
		sp = tr.begin("refeng.DelayReduced", 0, int64(i))
		_, _, err = refeng.DelayReduced(l.line(), l.tlDrive(), refeng.ReducedConfig{})
		red = append(red, ms(sp.end()))
		if err != nil {
			return err
		}
	}
	m["refeng.line_mna_ms_p50"] = metric{median(exact), "ms"}
	m["refeng.line_reduced_ms_p50"] = metric{median(red), "ms"}
	return nil
}

// probeSession opens a what-if session on the first tree and times
// probeEdits seeded edit batches of two edits each, every batch followed
// by a closed and a reduced result read. It then replays the same
// script on fresh sessions and counts reduced reads whose delays are not
// bit-identical to the first pass's (session.replay_mismatches; nonzero
// while rlctree.Incremental applies a batch's pencil deltas in map
// order).
func probeSession(in probeInputs, tr *tracer, m map[string]metric) error {
	const replays = 3
	var first [][]float64
	mismatches := 0
	for r := 0; r <= replays; r++ {
		delays, edits, st, err := sessionScript(sessionTree(in.trees), tr)
		if err != nil {
			return err
		}
		if r == 0 {
			first = delays
			m["session.edit_ms_p50"] = metric{median(edits), "ms"}
			m["session.reduced_fast_ratio"] = metric{ratio(float64(st.ReducedFast), float64(st.ReducedFast+st.Fallbacks+st.Recerts)), "ratio"}
			m["session.memo_hit_ratio"] = metric{ratio(float64(st.MemoHits), float64(st.MemoHits+st.MemoMisses)), "ratio"}
			m["session.fallbacks"] = metric{float64(st.Fallbacks), "count"}
			continue
		}
		for e := range delays {
			for k := range delays[e] {
				if math.Float64bits(delays[e][k]) != math.Float64bits(first[e][k]) {
					mismatches++
					break
				}
			}
		}
	}
	m["session.replay_mismatches"] = metric{float64(mismatches), "count"}
	return nil
}

// sessionTree picks the probe sessions' tree: the smallest with at
// least 16 sinks (trees are sorted by sink count), where the reduced
// engine's incremental path is in use, or else the largest.
func sessionTree(trees []treeIn) treeIn {
	for _, t := range trees {
		if len(t.spec.Sinks) >= 16 {
			return t
		}
	}
	return trees[len(trees)-1]
}

// sessionScript runs the probe's session script once and returns every
// reduced read's sink delays, the edit times in ms and the stats.
func sessionScript(ti treeIn, tr *tracer) ([][]float64, []float64, session.Stats, error) {
	t, d, err := ti.build()
	if err != nil {
		return nil, nil, session.Stats{}, err
	}
	sp := tr.begin("session.Open", 0, 0)
	s, err := session.Open(t, d, rlctree.Config{})
	sp.end()
	if err != nil {
		return nil, nil, session.Stats{}, err
	}
	defer s.Close()
	ctx := context.Background()
	if _, err := s.Result(ctx, rlctree.EngineReduced); err != nil {
		return nil, nil, session.Stats{}, err
	}
	rng := rand.New(rand.NewSource(1))
	var delays [][]float64
	var edits []float64
	for e := 0; e < probeEdits; e++ {
		sp := tr.begin("session.edit", 0, int64(e))
		err := s.Apply(sessionEdits(ti, rng, true))
		if err == nil {
			_, err = s.Result(ctx, rlctree.EngineClosed)
		}
		var res *rlctree.Result
		if err == nil {
			res, err = s.Result(ctx, rlctree.EngineReduced)
		}
		edits = append(edits, ms(sp.end()))
		if err != nil {
			return nil, nil, session.Stats{}, err
		}
		row := make([]float64, len(res.Sinks))
		for k, sk := range res.Sinks {
			row[k] = sk.Delay
		}
		delays = append(delays, row)
	}
	return delays, edits, s.Stats(), nil
}

// probeRCBranch counts seeded single-RC-branch trees whose closed-form
// delay misses ln2·(Rtr+R)·CL beyond rounding (rcExact). The closed
// engine's moment fit degenerates on a one-pole response and some
// values land several percent off; the count shows that defect.
func probeRCBranch(seed int64, tr *tracer, m map[string]metric) error {
	rng := rand.New(rand.NewSource(seed))
	misses := 0
	sp := tr.begin("rlctree.Analyze.rc_branch", 0, 0)
	defer sp.end()
	for i := 0; i < 64; i++ {
		r, cl, rtr := 200+2000*rng.Float64(), (0.2+2*rng.Float64())*1e-12, 100+900*rng.Float64()
		t, err := rlctree.New(0)
		if err != nil {
			return err
		}
		if _, err := t.Add(0, r, 0, 0); err != nil {
			return err
		}
		if err := t.MarkSink(1, cl); err != nil {
			return err
		}
		res, err := rlctree.Analyze(t, rlctree.Drive{Rtr: rtr}, rlctree.Config{})
		if err != nil {
			return err
		}
		if !rcExact(res.Sinks[0].Delay, math.Ln2*(rtr+r)*cl) {
			misses++
		}
	}
	m["rlctree.rc_branch_mismatches"] = metric{float64(misses), "count"}
	return nil
}

// probeSweep times sweep.Run on the workload's population at nproc
// workers and at one, and report.Summarize over the run's sample
// columns.
func probeSweep(in probeInputs, tr *tracer, m map[string]metric) error {
	nets := in.nets
	if nets == nil {
		for i, l := range in.lines {
			nets = append(nets, netgen.Net{Name: fmt.Sprint("net", i), Line: l.line(), Drive: l.tlDrive()})
		}
	}
	runs := func(workers int) ([]float64, *sweep.Result, error) {
		var t []float64
		var res *sweep.Result
		for r := 0; r < 3; r++ {
			sp := tr.begin(fmt.Sprintf("sweep.Run.w%d", workers), 0, int64(r))
			var err error
			res, err = sweep.Run(nets, popConfig(int64(r), workers))
			t = append(t, ms(sp.end()))
			if err != nil {
				return nil, nil, err
			}
		}
		return t, res, nil
	}
	tN, res, err := runs(runtime.NumCPU())
	if err != nil {
		return err
	}
	t1, _, err := runs(1)
	if err != nil {
		return err
	}
	cols := make([][]float64, 4)
	for _, s := range res.Samples {
		cols[0] = append(cols[0], s.DelayRLC)
		cols[1] = append(cols[1], s.DelayRC)
		cols[2] = append(cols[2], s.RCErrPct)
		cols[3] = append(cols[3], math.Abs(s.RCErrPct))
	}
	sp := tr.begin("report.Summarize", 0, 0)
	for _, c := range cols {
		report.Summarize(c)
	}
	sum := ms(sp.end())
	run := median(tN)
	m["sweep.run_ms_p50"] = metric{run, "ms"}
	m["sweep.scaling_wN_over_w1"] = metric{median(t1) / run, "ratio"}
	m["report.summarize_ms"] = metric{sum, "ms"}
	m["report.aggregation_share"] = metric{sum / run, "ratio"}
	return nil
}

// probeServe times the same cache-hit requests through an in-process
// handler and over TCP to the daemon; the difference of the medians is
// the process layer's cost. Every response is checked against the
// in-process one.
func probeServe(bodies []step, d *daemon, tr *tracer, tl *tally, logf func(string, ...any), m map[string]metric) error {
	ref, err := serve.New(serve.Config{})
	if err != nil {
		return err
	}
	defer ref.Close()
	h := ref.Handler()
	want := make([][]byte, len(bodies))
	for i, b := range bodies {
		_, want[i] = inProcess(h, b.method, b.path, b.body)
		if _, _, err := d.do(b.method, b.path, b.body); err != nil {
			return err
		}
	}
	n := probeRounds * len(bodies)
	reqs := make([]*http.Request, n)
	recs := make([]*httptest.ResponseRecorder, n)
	for i := range reqs {
		b := bodies[i%len(bodies)]
		reqs[i] = httptest.NewRequest(b.method, b.path, bytes.NewReader(b.body))
		recs[i] = httptest.NewRecorder()
	}
	var ms0, ms1 runtime.MemStats
	lat := make([]float64, n)
	// One span covers the loop, so that recording spans adds no
	// allocations to the count.
	sp := tr.begin("serve.ServeHTTP", 0, 0)
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	for i := range reqs {
		t0 := time.Now()
		h.ServeHTTP(recs[i], reqs[i])
		lat[i] = float64(time.Since(t0)) / 1e3
	}
	runtime.ReadMemStats(&ms1)
	sp.end()
	for i, rec := range recs {
		tl.attempted.Add(1)
		if !bytes.Equal(rec.Body.Bytes(), want[i%len(bodies)]) {
			tl.fail(logf, "in-process handler probe: %s body changed on a cache hit", bodies[i%len(bodies)].path)
		}
	}
	tcp := make([]float64, n)
	for i := range tcp {
		b := bodies[i%len(bodies)]
		sp := tr.begin("rlckitd.request", 0, int64(i))
		tl.attempted.Add(1)
		status, body, err := d.do(b.method, b.path, b.body)
		tcp[i] = float64(sp.end()) / 1e3
		if err != nil || status != http.StatusOK || !bytes.Equal(body, want[i%len(bodies)]) {
			tl.fail(logf, "TCP probe %s: status %d err %v", b.path, status, err)
		}
	}
	handler := median(lat)
	m["serve.handler_us_p50"] = metric{handler, "us"}
	m["serve.allocs_per_req"] = metric{float64(ms1.Mallocs-ms0.Mallocs) / float64(n), "count"}
	m["rlckitd.tcp_overhead_us"] = metric{median(tcp) - handler, "us"}
	return nil
}

// probeTCPSession runs a what-if session over TCP on the first tree and
// times its edit round trips.
func probeTCPSession(ti treeIn, d *daemon, tr *tracer, tl *tally, logf func(string, ...any), m map[string]metric) error {
	o := sessionOp(ti, "reduced", make([]string, probeEdits), rand.New(rand.NewSource(2)))
	ref, err := serve.New(serve.Config{})
	if err != nil {
		return err
	}
	defer ref.Close()
	if !reference(ref.Handler(), &o) {
		return fmt.Errorf("session probe: reference failed: %s", o.steps[len(o.steps)-1].want)
	}
	var r loopResult
	runOp(d, &o, 0, tr, tl, logf, &r)
	m["rlckitd.edit_rtt_ms_p50"] = metric{median(r.editLat), "ms"}
	return nil
}

// finishTrace writes the traced run's file and logs where it went.
func finishTrace(o options, tr *tracer, m map[string]metric, counters map[string]any, logf func(string, ...any)) error {
	path, err := writeTrace(o.out, traceFile{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds,
		Env: environment(), Metrics: m, Counters: counters,
	}, tr)
	if err != nil {
		return err
	}
	logf("trace written to %s", path)
	return nil
}
