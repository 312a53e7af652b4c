package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"rlckit/internal/core"
	"rlckit/internal/netgen"
	"rlckit/internal/sweep"
	"rlckit/internal/tech"
)

// Population-sweep sizes at scale 1: each study sweeps popNets nets ×
// 3 corners × popDraws Monte Carlo draws (with repeater analysis) and
// popTrees 16-sink clock trees × 3 corners, all closed form. Set-up
// generates popPool populations; study i uses population i % popPool
// with its own Monte Carlo seed. Studies are kept short so that a
// window holds well over a thousand of them and the tail has many
// samples beyond it.
const (
	popNets   = 500
	popDraws  = 2
	popTrees  = 10
	popPool   = 16
	popChecks = 8 // samples per study re-derived through core.Delay
)

// population is one generated study input.
type population struct {
	nets  []netgen.Net
	trees []netgen.TreeNet
}

// popConfig is a study's sweep configuration: Eq. 9 closed form,
// DefaultCorners, Monte Carlo, repeaters on.
func popConfig(mcSeed int64, workers int) sweep.Config {
	buf := tech.Default().Buffer()
	return sweep.Config{
		RiseTime: 50e-12,
		Corners:  sweep.DefaultCorners(),
		MC: sweep.MonteCarlo{
			Samples: popDraws, Seed: mcSeed,
			RSigma: 0.1, LSigma: 0.05, CSigma: 0.08, DriveSigma: 0.12,
		},
		Workers:   workers,
		Buffer:    &buf,
		Estimator: sweep.EstimatorClosed,
	}
}

func genPopulations(seed int64, n, nets, trees int) ([]population, error) {
	pops := make([]population, n)
	for p := range pops {
		var err error
		s := seed*1_000_003 + int64(p)
		if pops[p].nets, err = netgen.RandomBatch(s, tech.Default(), nets); err != nil {
			return nil, err
		}
		if pops[p].trees, err = netgen.RandomTreeBatch(s, tech.Default(), netgen.TreeClockH, 16, trees); err != nil {
			return nil, err
		}
	}
	return pops, nil
}

// study runs one population study and checks it: the sample counts,
// and popChecks random samples' delays re-derived bit for bit through
// core.Delay (Eq. 9). It returns the number of samples analysed.
func study(p *population, mcSeed int64, workers int, opID int64, tr *tracer, tl *tally, logf func(string, ...any)) int {
	root := tr.begin("study", 0, opID)
	defer root.end()
	cfg := popConfig(mcSeed, workers)
	tl.attempted.Add(1)
	sp := tr.begin("sweep.Run", root.id(), opID)
	res, err := sweep.Run(p.nets, cfg)
	sp.end()
	if err != nil {
		tl.fail(logf, "sweep.Run: %v", err)
		return 0
	}
	sp = tr.begin("sweep.RunTrees", root.id(), opID)
	tres, err := sweep.RunTrees(p.trees, cfg)
	sp.end()
	if err != nil {
		tl.fail(logf, "sweep.RunTrees: %v", err)
		return 0
	}
	sp = tr.begin("check", root.id(), opID)
	defer sp.end()
	corners := len(cfg.Corners)
	if len(res.Samples) != len(p.nets)*corners*popDraws || res.Delay.N != len(res.Samples) {
		tl.fail(logf, "sweep.Run: %d samples (summary n=%d), want %d", len(res.Samples), res.Delay.N, len(p.nets)*corners*popDraws)
		return 0
	}
	if len(tres.Samples) != len(p.trees)*corners*popDraws || !(tres.MaxDelay.Min > 0) || math.IsInf(tres.MaxDelay.Max, 0) {
		tl.fail(logf, "sweep.RunTrees: %d samples, max delay range [%g, %g]", len(tres.Samples), tres.MaxDelay.Min, tres.MaxDelay.Max)
		return 0
	}
	rng := rand.New(rand.NewSource(mcSeed))
	for k := 0; k < popChecks; k++ {
		s := &res.Samples[rng.Intn(len(res.Samples))]
		want, err := core.Delay(s.Line, s.Drive)
		if err != nil || math.Float64bits(want) != math.Float64bits(s.DelayRLC) {
			tl.fail(logf, "sample (net %d, corner %d, draw %d): delay %v, core.Delay %v (%v)", s.Net, s.Corner, s.Draw, s.DelayRLC, want, err)
		}
	}
	return len(res.Samples) + len(tres.Samples)
}

// summaryBytes renders a study's net and tree summaries.
func summaryBytes(p *population, workers int) ([]byte, error) {
	cfg := popConfig(7, workers)
	res, err := sweep.Run(p.nets, cfg)
	if err != nil {
		return nil, err
	}
	tres, err := sweep.RunTrees(p.trees, cfg)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	if err := res.RenderSummary(&b); err != nil {
		return nil, err
	}
	if err := tres.RenderSummary(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// popLoopResult is one timed window of studies.
type popLoopResult struct {
	items   []item // per study, samples
	samples int
	studies int
	elapsed time.Duration
}

func popLoop(pops []population, seed int64, first int, dur time.Duration, tr *tracer, tl *tally, logf func(string, ...any)) popLoopResult {
	var r popLoopResult
	start := time.Now()
	for i := first; time.Since(start) < dur; i++ {
		t0 := time.Since(start).Seconds()
		n := study(&pops[i%len(pops)], seed*7919+int64(i), runtime.NumCPU(), int64(i), tr, tl, logf)
		t1 := time.Since(start).Seconds()
		r.samples += n
		r.items = append(r.items, item{t0, t1, float64(n)})
		r.studies++
	}
	r.elapsed = time.Since(start)
	return r
}

func runPopulation(o options, logf func(string, ...any)) (*result, error) {
	tl := &tally{}
	nets, trees := max(8, int(popNets*o.scale)), max(2, int(popTrees*o.scale))
	res := &result{Metrics: map[string]metric{}}

	// Set-up: generate the populations and run one warm-up study.
	var pops []population
	var setups []float64
	rounds := setupRounds
	if o.trace {
		rounds = 1
	}
	for k := 0; k < rounds; k++ {
		t0 := time.Now()
		var err error
		if pops, err = genPopulations(o.seed, popPool, nets, trees); err != nil {
			return nil, err
		}
		study(&pops[0], -o.seed, runtime.NumCPU(), -1, nil, tl, logf)
		setups = append(setups, time.Since(t0).Seconds())
	}
	logf("setup_s rounds=%v", setups)

	// The summary of one seed must not depend on the worker count.
	tl.attempted.Add(1)
	one, err1 := summaryBytes(&pops[0], 1)
	all, errN := summaryBytes(&pops[0], runtime.NumCPU())
	if err1 != nil || errN != nil || !bytes.Equal(one, all) {
		tl.fail(logf, "sweep summary differs between workers=1 and workers=%d (%v, %v)", runtime.NumCPU(), err1, errN)
	}
	staticChecks(tl, logf)

	window := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		lr, _ := quietWindow(1+remeasures, func() (popLoopResult, error) {
			return popLoop(pops, o.seed, 0, window, nil, tl, logf), nil
		}, logf)
		rss, err := peakRSSMB(os.Getpid())
		if err != nil {
			return nil, err
		}
		sps, per := windowRate(lr.items, window.Seconds())
		logf("studies=%d samples=%d elapsed=%.2fs samples_per_s=%.6g per slice=%.4g", lr.studies, lr.samples, lr.elapsed.Seconds(), sps, per)
		res.Metrics["setup_s"] = metric{percentile(setups, 25), "s"}
		res.Metrics["ops_per_s"] = metric{sps, "1/s"}
		res.Metrics["peak_rss_mb"] = metric{rss, "MB"}
		latencyMetrics(res.Metrics, lr.items, window.Seconds(), logf)
	} else {
		untraced := popLoop(pops, o.seed, 0, window/2, nil, tl, logf)
		tr := newTracer()
		traced := popLoop(pops, o.seed, untraced.studies, window/2, tr, tl, logf)
		u := float64(untraced.samples) / untraced.elapsed.Seconds()
		t := float64(traced.samples) / traced.elapsed.Seconds()
		logf("tracing overhead: untraced %.6g samples/s, traced %.6g samples/s", u, t)
		res.Metrics["trace.overhead_pct"] = metric{overheadPct(u, t), "%"}
		in := probeInputs{nets: pops[0].nets}
		for _, tn := range pops[0].trees {
			ti, err := treeOf(tn.Tree, tn.Drive)
			if err != nil {
				return nil, err
			}
			in.trees = append(in.trees, ti)
		}
		for _, n := range pops[0].nets {
			in.lines = append(in.lines, lineOf(n))
		}
		if err := layerProbes(o, in, nil, tr, tl, logf, res.Metrics); err != nil {
			return nil, err
		}
		counters := map[string]any{"studies_untraced": untraced.studies, "studies_traced": traced.studies}
		if err := finishTrace(o, tr, res.Metrics, counters, logf); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
	}
	res.Attempted, res.Failed = tl.attempted.Load(), tl.failed.Load()
	res.Correct = res.Failed == 0
	return res, nil
}
