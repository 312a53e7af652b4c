package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"rlckit/internal/netgen"
	"rlckit/internal/rlctree"
	"rlckit/internal/serve"
	"rlckit/internal/session"
	"rlckit/internal/tech"
	"rlckit/internal/tline"
)

// Inputs come from netgen's seeded generators plus seeded perturbations;
// the program under test only ever sees the generated request bodies or
// the generated nets.

// step is one HTTP request of an operation and the response body the
// in-process reference server gave for it. A session's edit and delete
// paths carry the placeholder sessionIDSlot, filled in from the open
// response.
type step struct {
	method, path string
	body         []byte
	want         []byte
}

// op is one unit of client work: a single request, or a what-if session
// (open, edit batches, delete) run in order on one connection.
type op struct {
	kind  string
	steps []step
	// line and tree keep the generated net for the output checks.
	line *lineIn
	tree *treeIn
}

const sessionIDSlot = "{id}"

// lineIn is a driven line as it crosses the wire (totals and length).
type lineIn struct {
	spec  serve.LineSpec
	drive serve.DriveSpec
}

// treeIn is a driven tree as it crosses the wire.
type treeIn struct {
	spec  serve.TreeSpec
	drive serve.TreeDriveSpec
}

func lineOf(n netgen.Net) lineIn {
	rt, lt, ct := n.Line.Totals()
	return lineIn{
		spec:  serve.LineSpec{Rt: rt, Lt: lt, Ct: ct, Length: n.Line.Length},
		drive: serve.DriveSpec{Rtr: n.Drive.Rtr, CL: n.Drive.CL, V: n.Drive.V},
	}
}

// line and drive convert back exactly as the server does.
func (l lineIn) line() tline.Line {
	return tline.FromTotals(l.spec.Rt, l.spec.Lt, l.spec.Ct, l.spec.Length)
}

func (l lineIn) tlDrive() tline.Drive {
	return tline.Drive{Rtr: l.drive.Rtr, CL: l.drive.CL, V: l.drive.V}
}

// treeOf converts a generated tree to its wire form.
func treeOf(t *rlctree.Tree, d rlctree.Drive) (treeIn, error) {
	_, _, rootC, err := t.Branch(0)
	if err != nil {
		return treeIn{}, err
	}
	ti := treeIn{spec: serve.TreeSpec{RootC: rootC}, drive: serve.TreeDriveSpec{Rtr: d.Rtr, V: d.V}}
	for node := 1; node < t.Len(); node++ {
		parent, err := t.Parent(node)
		if err != nil {
			return treeIn{}, err
		}
		r, l, c, err := t.Branch(node)
		if err != nil {
			return treeIn{}, err
		}
		load, err := t.SinkLoad(node)
		if err != nil {
			return treeIn{}, err
		}
		ti.spec.Branches = append(ti.spec.Branches, serve.TreeBranchSpec{Parent: parent, R: r, L: l, C: c - load})
	}
	for _, node := range t.Sinks() {
		load, _ := t.SinkLoad(node)
		ti.spec.Sinks = append(ti.spec.Sinks, serve.TreeSinkSpec{Node: node, CL: load})
	}
	return ti, nil
}

// build rebuilds the tree exactly as the server parses it.
func (ti treeIn) build() (*rlctree.Tree, rlctree.Drive, error) {
	d := rlctree.Drive{Rtr: ti.drive.Rtr, V: ti.drive.V}
	t, err := rlctree.New(ti.spec.RootC)
	if err != nil {
		return nil, d, err
	}
	for i, br := range ti.spec.Branches {
		if _, err := t.Add(br.Parent, br.R, br.L, br.C); err != nil {
			return nil, d, fmt.Errorf("branch %d: %w", i, err)
		}
	}
	for _, s := range ti.spec.Sinks {
		if err := t.MarkSink(s.Node, s.CL); err != nil {
			return nil, d, err
		}
	}
	return t, d, nil
}

// lognormal draws exp(sigma·N(0,1)): a seeded perturbation factor.
func lognormal(rng *rand.Rand, sigma float64) float64 {
	return math.Exp(sigma * rng.NormFloat64())
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the request types always marshal
	}
	return b
}

func post(path string, v any) step {
	return step{method: "POST", path: path, body: mustJSON(v)}
}

// treeBatch draws n trees of one family, converted to wire form.
func treeBatch(seed int64, kind netgen.TreeKind, sinks, n int) ([]treeIn, error) {
	batch, err := netgen.RandomTreeBatch(seed, tech.Default(), kind, sinks, n)
	if err != nil {
		return nil, err
	}
	out := make([]treeIn, len(batch))
	for i, tn := range batch {
		if out[i], err = treeOf(tn.Tree, tn.Drive); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// perturbTree scales a base tree's R, L, C and driver by seeded
// lognormal factors, so every perturbed instance is a distinct net.
func perturbTree(base treeIn, rng *rand.Rand) (treeIn, error) {
	t, d, err := base.build()
	if err != nil {
		return treeIn{}, err
	}
	st, err := t.Scale(lognormal(rng, 0.08), lognormal(rng, 0.05), lognormal(rng, 0.06))
	if err != nil {
		return treeIn{}, err
	}
	d.Rtr *= lognormal(rng, 0.1)
	return treeOf(st, d)
}

// perturbLine scales a line's totals and driver by seeded factors.
func perturbLine(base lineIn, rng *rand.Rand) lineIn {
	l := base
	l.spec.Rt *= lognormal(rng, 0.08)
	l.spec.Lt *= lognormal(rng, 0.05)
	l.spec.Ct *= lognormal(rng, 0.06)
	l.drive.Rtr *= lognormal(rng, 0.1)
	return l
}

// sessionEdits draws one seeded what-if edit batch against a tree.
// With both set it holds a branch re-size and a sink load change;
// otherwise one of the two, chosen by the seed.
func sessionEdits(ti treeIn, rng *rand.Rand, both bool) []session.Edit {
	br := 1 + rng.Intn(len(ti.spec.Branches))
	b := ti.spec.Branches[br-1]
	sk := ti.spec.Sinks[rng.Intn(len(ti.spec.Sinks))]
	edits := []session.Edit{
		{Op: session.OpBranch, Node: br, R: b.R * lognormal(rng, 0.1), L: b.L * lognormal(rng, 0.05)},
		{Op: session.OpLoad, Node: sk.Node, CL: sk.CL * lognormal(rng, 0.1)},
	}
	if both {
		return edits
	}
	return edits[rng.Intn(2):][:1]
}

// sessionOp is a what-if session: open the tree with the open engine,
// apply one single-edit batch per entry of engines (each batch asking
// for that engine's result; "" keeps the session's), delete. One edit
// per batch keeps the reduced engine's results reproducible: with
// several edited elements in one batch, rlctree.Incremental applies
// their pencil deltas in map order, so the last digits vary from run to
// run (the traced run counts this in session.replay_mismatches).
func sessionOp(ti treeIn, open string, engines []string, rng *rand.Rand) op {
	o := op{kind: "session", tree: &ti}
	o.steps = append(o.steps, post("/v1/session", serve.TreeRequest{Tree: ti.spec, Drive: ti.drive, Engine: open}))
	for _, engine := range engines {
		s := post("/v1/session/"+sessionIDSlot+"/edit", serve.SessionEditRequest{Edits: sessionEdits(ti, rng, false), Engine: engine})
		o.steps = append(o.steps, s)
	}
	o.steps = append(o.steps, step{method: "DELETE", path: "/v1/session/" + sessionIDSlot})
	return o
}

// nodeBuffer is the default technology's minimum repeater on the wire.
func nodeBuffer() *serve.BufferSpec {
	b := tech.Default().Buffer()
	return &serve.BufferSpec{R0: b.R0, C0: b.C0, Amin: b.Amin, Vdd: b.Vdd}
}

// hotOps is serve-hot's fixed set of byte-distinct single requests:
// Eq. 9 delays, screens and repeater plans of generated lines, closed
// form trees, and one single-RC-branch tree whose closed delay has an
// exact answer. perKind bodies of each of the four endpoints give every
// endpoint one equal slot: no measured traffic exists to weight them
// by, and the chaos soak's mix likewise holds one spec each of the
// cacheable Eq. 9 delay, repeater plan and closed tree.
func hotOps(seed int64, perKind int) ([]op, error) {
	nets, err := netgen.RandomBatch(seed, tech.Default(), perKind)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	var ops []op
	for i, n := range nets {
		l := lineOf(n)
		ops = append(ops,
			op{kind: "delay-eq9", line: &l, steps: []step{post("/v1/delay", serve.DelayRequest{Line: l.spec, Drive: l.drive, Method: "eq9"})}},
			op{kind: "screen", line: &l, steps: []step{post("/v1/screen", serve.ScreenRequest{Line: l.spec, Drive: l.drive, RiseS: 20e-12 + 80e-12*rng.Float64()})}},
			op{kind: "repeaters", line: &l, steps: []step{post("/v1/repeaters", serve.RepeatersRequest{Line: l.spec, Buffer: nodeBuffer(), Model: []string{"rlc", "rc"}[i%2]})}},
		)
	}
	kinds := []netgen.TreeKind{netgen.TreeBalanced, netgen.TreeUnbalanced, netgen.TreeClockH}
	for i := 0; i < perKind-1; i++ {
		trees, err := treeBatch(seed+int64(i), kinds[i%3], 4<<(i%3), 1)
		if err != nil {
			return nil, err
		}
		t := trees[0]
		ops = append(ops, op{kind: "tree-closed", tree: &t, steps: []step{post("/v1/tree", serve.TreeRequest{Tree: t.spec, Drive: t.drive, Engine: "closed"})}})
	}
	rc := rcBranchTree()
	ops = append(ops, op{kind: "tree-rc-branch", tree: &rc, steps: []step{post("/v1/tree", serve.TreeRequest{Tree: rc.spec, Drive: rc.drive, Engine: "closed"})}})
	return ops, nil
}

// rcBranchTree is a single RC branch driving one sink, the case the
// daemon's documentation names: its closed-form delay is exactly
// ln2·(Rtr+R)·CL = 1.0397e-9 s.
func rcBranchTree() treeIn {
	return treeIn{
		spec: serve.TreeSpec{
			Branches: []serve.TreeBranchSpec{{Parent: 0, R: 1000}},
			Sinks:    []serve.TreeSinkSpec{{Node: 1, CL: 1e-12}},
		},
		drive: serve.TreeDriveSpec{Rtr: 500},
	}
}

// exactMix is serve-exact's repeating operation pattern: operation i
// has kind exactMix[i%len(exactMix)], so every seed runs the same mix.
// No measured traffic exists to weight it by, so it takes the mix of
// the repository's chaos soak (internal/chaos): of the soak's request
// specs, exactly one each reaches tree mna, tree reduced, line exact
// and line reduced, and every soak client runs one what-if session per
// round. Each gets one slot, 20% of the ops.
var exactMix = []string{"tree-mna", "delay-exact", "tree-reduced", "delay-reduced", "session"}

// exactSessionOpen and exactSessionEngines shape serve-exact's
// sessions after the chaos soak's session script: open with the closed
// engine, then three edit batches asking for mna, reduced and the
// session's own engine.
const exactSessionOpen = "closed"

var exactSessionEngines = []string{"mna", "reduced", ""}

// exactBases are the generated nets serve-exact perturbs: lines and
// 16–64-sink trees of every family. Their structure comes from a fixed
// generator seed, so every run sends the same sequence of net shapes
// and the cost of a run does not hinge on which shapes a seed drew; the
// run's seed draws every element value. The tree pools interleave the
// families, so that consecutive ops cycle through every size and any
// stretch of the window sees the same mix of cheap and heavy trees.
type exactBases struct {
	lines              []lineIn
	mnaTrees, redTrees []treeIn
}

// exactNetSeed seeds the generator of serve-exact's net shapes.
const exactNetSeed = 1

func newExactBases(n int) (*exactBases, error) {
	nets, err := netgen.RandomBatch(exactNetSeed, tech.Default(), n)
	if err != nil {
		return nil, err
	}
	b := &exactBases{}
	for _, nt := range nets {
		b.lines = append(b.lines, lineOf(nt))
	}
	var mna, red [][]treeIn
	for i, fam := range []struct {
		kind  netgen.TreeKind
		sinks int
	}{{netgen.TreeBalanced, 16}, {netgen.TreeUnbalanced, 16}, {netgen.TreeClockH, 16}, {netgen.TreeBalanced, 32}, {netgen.TreeUnbalanced, 64}, {netgen.TreeClockH, 64}} {
		trees, err := treeBatch(exactNetSeed+int64(100+i), fam.kind, fam.sinks, n)
		if err != nil {
			return nil, err
		}
		if fam.sinks <= 16 {
			mna = append(mna, trees)
		}
		red = append(red, trees)
	}
	b.mnaTrees, b.redTrees = interleave(mna), interleave(red)
	return b, nil
}

// interleave returns the first tree of every family, then the second
// of every family, and so on; the families are equally long.
func interleave(families [][]treeIn) []treeIn {
	var out []treeIn
	for k := range families[0] {
		for _, f := range families {
			out = append(out, f[k])
		}
	}
	return out
}

// exactOp generates serve-exact's operation i: a seeded perturbation of
// the base net the index cycles to, a pure function of (seed, i) and
// distinct from every other index's.
func (b *exactBases) exactOp(seed int64, i int) (op, error) {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
	kind := exactMix[i%len(exactMix)]
	round := i / len(exactMix)
	pickTree := func(ts []treeIn) (treeIn, error) { return perturbTree(ts[round%len(ts)], rng) }
	switch kind {
	case "tree-mna", "tree-reduced":
		pool, engine := b.mnaTrees, "mna"
		if kind == "tree-reduced" {
			pool, engine = b.redTrees, "reduced"
		}
		t, err := pickTree(pool)
		if err != nil {
			return op{}, err
		}
		return op{kind: kind, tree: &t, steps: []step{post("/v1/tree", serve.TreeRequest{Tree: t.spec, Drive: t.drive, Engine: engine})}}, nil
	case "delay-exact", "delay-reduced":
		l := perturbLine(b.lines[round%len(b.lines)], rng)
		method := "exact"
		if kind == "delay-reduced" {
			method = "reduced"
		}
		return op{kind: kind, line: &l, steps: []step{post("/v1/delay", serve.DelayRequest{Line: l.spec, Drive: l.drive, Method: method})}}, nil
	default:
		t, err := pickTree(b.mnaTrees)
		if err != nil {
			return op{}, err
		}
		return sessionOp(t, exactSessionOpen, exactSessionEngines, rng), nil
	}
}
