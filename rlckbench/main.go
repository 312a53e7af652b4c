// Command rlckbench is rlckit's end-to-end benchmark. One invocation
// runs one named workload for a fixed time, checks every output against
// references computed earlier in the same run, and prints one JSON line
// of metrics as the last line of standard output:
//
//	rlckbench -rlckitd <daemon binary> -workload serve-hot -seed 1 -seconds 10 -trace 0
//
// Workloads (see README.md for the rationale and the layers each one
// stresses):
//
//	population-sweep  in-process Monte Carlo population studies
//	serve-hot         rlckitd over loopback TCP, every request a cache hit
//	serve-exact       rlckitd over loopback TCP, every request unique
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With -trace 1 the run measures the workload loop
// untraced and then traced (the difference is the tracing overhead),
// runs the per-layer probes on the workload's inputs, prints the
// per-layer metrics and writes every span and counter to a JSON file
// under -out.
//
// A failed check, a non-2xx response, a transport error or a failed
// workload gate counts as a failure: the result line then reads
// "correct": false and the exit code is 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	rlckitd  string // daemon binary
	out      string // trace file directory
	// scale multiplies input sizes; the package tests use a small one.
	scale float64
	// corruptRef, when >= 0, flips a byte of that op's first reference
	// body before timing. The tests use it to prove a wrong body is
	// caught and counted.
	corruptRef int
	// maxRefs, when > 0, caps how many ops serve-exact references. The
	// tests use it to prove that running out of them is a failure.
	maxRefs int
}

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runner runs one workload with the parsed options and returns its
// result; logf writes diagnostics to standard error.
type runner func(o options, logf func(string, ...any)) (*result, error)

var workloads = map[string]runner{
	"population-sweep": runPopulation,
	"serve-hot":        runServeHot,
	"serve-exact":      runServeExact,
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseOptions(args, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "rlckbench: %v\n", err)
		return 2
	}
	logf := func(format string, a ...any) {
		fmt.Fprintf(stderr, "rlckbench: "+format+"\n", a...)
	}
	logf("workload=%s seed=%d seconds=%g trace=%t nproc=%d go=%s os/arch=%s/%s",
		o.workload, o.seed, o.seconds, o.trace, runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	start := time.Now()
	res, err := workloads[o.workload](o, logf)
	if err != nil {
		fmt.Fprintf(stderr, "rlckbench: %s: %v\n", o.workload, err)
		return 1
	}
	logf("done in %.1fs: attempted=%d failed=%d failed_frac=%.3g", time.Since(start).Seconds(),
		res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "rlckbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	o := options{scale: 1, corruptRef: -1}
	fs := flag.NewFlagSet("rlckbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: population-sweep, serve-hot or serve-exact")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	fs.StringVar(&o.rlckitd, "rlckitd", "", "path to the rlckitd binary (required)")
	fs.StringVar(&o.out, "out", ".bench_build/trace", "directory for the traced run's span file")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() != 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (have population-sweep, serve-hot, serve-exact)", o.workload)
	}
	if !(o.seconds > 0) {
		return o, fmt.Errorf("-seconds must be positive, got %g", o.seconds)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1, got %d", *traceFlag)
	}
	o.trace = *traceFlag == 1
	if o.rlckitd == "" {
		return o, errors.New("-rlckitd is required")
	}
	if st, err := os.Stat(o.rlckitd); err != nil || st.IsDir() {
		return o, fmt.Errorf("rlckitd binary %q not usable: %v", o.rlckitd, err)
	}
	return o, nil
}
