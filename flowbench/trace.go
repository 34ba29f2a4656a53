package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"postopc/internal/flow"
	"postopc/internal/geom"
	"postopc/internal/litho"
	"postopc/internal/sta"
)

// layerStats accumulates the calls into one litho.Model. It is safe for
// concurrent use: flow's own ORC workers share one wrapper.
type layerStats struct {
	calls  atomic.Int64
	busyNS atomic.Int64
	px     atomic.Int64
}

func (s *layerStats) add(o *layerStats) {
	s.calls.Add(o.calls.Load())
	s.busyNS.Add(o.busyNS.Load())
	s.px.Add(o.px.Load())
}

// tracedModel forwards every litho.Model method to the wrapped model and
// records each imaging call. AppendKey and Recipe forward unchanged, so
// cache signatures and results are those of the wrapped model.
type tracedModel struct {
	inner litho.Model
	stats *layerStats
	// fault, when non-nil, is consulted before each imaging call; an error
	// it returns is returned in place of the image (tests only).
	fault func() error
	// burn, when > 0, spins for that fraction of each imaging call's
	// duration after it returns (tests only).
	burn float64
}

var _ litho.Model = (*tracedModel)(nil)

func (m *tracedModel) Aerial(mask *geom.Raster, c litho.Corner) (*litho.Image, error) {
	if err := m.injected(); err != nil {
		return nil, err
	}
	t := time.Now()
	im, err := m.inner.Aerial(mask, c)
	m.record(t, mask, 1)
	return im, err
}

func (m *tracedModel) AerialSeries(mask *geom.Raster, corners []litho.Corner) ([]*litho.Image, error) {
	if err := m.injected(); err != nil {
		return nil, err
	}
	t := time.Now()
	ims, err := m.inner.AerialSeries(mask, corners)
	m.record(t, mask, distinctDefocus(corners))
	return ims, err
}

func (m *tracedModel) Recipe() litho.Recipe { return m.inner.Recipe() }

func (m *tracedModel) AppendKey(dst []byte) []byte { return m.inner.AppendKey(dst) }

func (m *tracedModel) injected() error {
	if m.fault == nil {
		return nil
	}
	return m.fault()
}

// record closes the span of one imaging call that computed images of the
// mask's size.
func (m *tracedModel) record(start time.Time, mask *geom.Raster, images int) {
	if m.burn > 0 {
		spin(time.Duration(m.burn * float64(time.Since(start))))
	}
	d := time.Since(start)
	if m.stats == nil {
		return
	}
	m.stats.calls.Add(1)
	m.stats.busyNS.Add(int64(d))
	m.stats.px.Add(int64(mask.Nx) * int64(mask.Ny) * int64(images))
}

// spin burns CPU for d without yielding to the scheduler's sleep path.
func spin(d time.Duration) {
	end := time.Now().Add(d)
	x := 1.0
	for time.Now().Before(end) {
		for i := 0; i < 1000; i++ {
			x = x*1.0000001 + 1e-9
		}
	}
	spinSink = x
}

var spinSink float64

// distinctDefocus is the number of images an AerialSeries call computes:
// dose never changes the aerial image, so corners sharing a defocus share
// one image.
func distinctDefocus(corners []litho.Corner) int {
	seen := map[float64]bool{}
	for _, c := range corners {
		seen[c.DefocusNM] = true
	}
	return len(seen)
}

// modelTrace is one flow's pair of wrappers: OPC simulations and
// verification imaging are recorded apart even when both wrap the same
// Gaussian model.
type modelTrace struct {
	opc, verify layerStats
}

// wrap returns a shallow copy of f whose models record into t.
func (t *modelTrace) wrap(f *flow.Flow, hook *hooks) *flow.Flow {
	c := *f
	c.OPCModelSim = hook.model(f.OPCModelSim, &t.opc)
	c.VerifySim = hook.model(f.VerifySim, &t.verify)
	return &c
}

func (t *modelTrace) calls() int64 { return t.opc.calls.Load() + t.verify.calls.Load() }

func (t *modelTrace) busyNS() int64 { return t.opc.busyNS.Load() + t.verify.busyNS.Load() }

// window is the span of one ExtractInstance call.
type window struct {
	dur        time.Duration
	lithoCalls int64
	opcCalls   int64
	lithoNS    int64
}

// layerTrace is everything the traced iteration records at the public
// boundaries of each layer.
type layerTrace struct {
	// gauss and abbe aggregate imaging calls by model type.
	gauss, abbe layerStats
	opcSims     int64
	windows     []window
	extractWall time.Duration // the calls Flow.Run makes
	windowWall  time.Duration // the ExtractInstance calls alone
	orcWall     time.Duration
	analyze     []time.Duration
	cornersWall time.Duration
	mcWall      time.Duration
	mcSamples   int
}

// byModel adds a wrapper's stats to the aggregate of its model type.
func (lt *layerTrace) byModel(m litho.Model, s *layerStats) {
	switch m.(type) {
	case *litho.Abbe:
		lt.abbe.add(s)
	case *litho.Gaussian:
		lt.gauss.add(s)
	}
}

// runTraced is one traced iteration. It makes the same public calls as
// Flow.Run, split so each layer is timed from outside: placement, graph
// build and drawn STA, then ExtractInstance per tagged gate driven from
// the benchmark's own goroutines (each on its own shallow Flow copy with
// its own model wrappers, so every imaging call is attributed to one
// window), then the annotated STA and the follow-on calls.
func (in *instance) runTraced(hook *hooks) (*outcome, *layerTrace) {
	lt := &layerTrace{}
	o := &outcome{}
	t0 := time.Now()
	err := in.tracedExtract(o, lt, hook)
	o.workWall = lt.extractWall
	if err != nil {
		o.fail(err, in.windows)
		o.wall = time.Since(t0)
		return o, lt
	}
	o.windows = len(o.res.Extractions)
	o.ops += o.windows

	var mt modelTrace
	f := mt.wrap(in.f, hook)
	err = in.followOn(o, f)
	o.wall = time.Since(t0)
	lt.orcWall = o.workWall - lt.extractWall
	lt.byModel(in.f.OPCModelSim, &mt.opc)
	lt.byModel(in.f.VerifySim, &mt.verify)
	lt.opcSims += mt.opc.calls.Load()
	lt.cornersWall = o.cornerWall
	lt.mcWall = o.mcWall
	if o.mc != nil {
		lt.mcSamples = len(o.mc.WNS)
	}
	if err != nil && o.err == nil {
		o.err = err
	}
	return o, lt
}

func (in *instance) tracedExtract(o *outcome, lt *layerTrace, hook *hooks) error {
	f := in.f
	t0 := time.Now()
	defer func() { lt.extractWall = time.Since(t0) }()
	opt := in.runOptions()
	pl, err := f.Place(in.n, opt.Place)
	if err != nil {
		return err
	}
	g, err := f.BuildGraph(in.n)
	if err != nil {
		return err
	}
	drawn, err := lt.timeAnalyze(g, in.cfg, nil)
	if err != nil {
		return err
	}
	var names []string
	if opt.TagTopK > 0 {
		names = drawn.CriticalGates(opt.TagTopK)
	} else {
		for _, gt := range in.n.Gates {
			names = append(names, gt.Name)
		}
		sort.Strings(names)
	}
	chip := pl.Chip
	chip.BuildIndex()
	xopt := flow.ExtractOptions{Corners: opt.Corners, Mode: opt.Mode}
	exts := make([]*flow.GateExtraction, len(names))
	errs := make([]error, len(names))
	lt.windows = make([]window, len(names))
	traces := make([]modelTrace, in.workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	tw := time.Now()
	for w := 0; w < in.workers; w++ {
		wg.Add(1)
		go func(mt *modelTrace) {
			defer wg.Done()
			wf := mt.wrap(f, hook)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(names) {
					return
				}
				inst := chip.FindInstance(names[i])
				if inst == nil {
					errs[i] = fmt.Errorf("instance %s not found on chip", names[i])
					continue
				}
				calls, opcCalls, busy := mt.calls(), mt.opc.calls.Load(), mt.busyNS()
				ts := time.Now()
				exts[i], errs[i] = wf.ExtractInstance(chip, inst, xopt)
				lt.windows[i] = window{
					dur:        time.Since(ts),
					lithoCalls: mt.calls() - calls,
					opcCalls:   mt.opc.calls.Load() - opcCalls,
					lithoNS:    mt.busyNS() - busy,
				}
			}
		}(&traces[w])
	}
	wg.Wait()
	lt.windowWall = time.Since(tw)
	for i := range traces {
		lt.byModel(f.OPCModelSim, &traces[i].opc)
		lt.byModel(f.VerifySim, &traces[i].verify)
		lt.opcSims += traces[i].opc.calls.Load()
	}
	extrs := make(map[string]*flow.GateExtraction, len(names))
	for i, name := range names {
		if errs[i] != nil {
			return fmt.Errorf("window of %s: %w", name, errs[i])
		}
		extrs[name] = exts[i]
	}
	annotated, err := lt.timeAnalyze(g, in.cfg, flow.Annotations(extrs, 0))
	if err != nil {
		return err
	}
	o.res = &flow.RunResult{
		Netlist:     in.n,
		Place:       pl,
		Tagged:      names,
		Extractions: extrs,
		Drawn:       drawn,
		Annotated:   annotated,
		Graph:       g,
	}
	return nil
}

func (lt *layerTrace) timeAnalyze(g *sta.Graph, cfg sta.Config, ann sta.Annotations) (*sta.Result, error) {
	t := time.Now()
	r, err := g.Analyze(cfg, ann)
	lt.analyze = append(lt.analyze, time.Since(t))
	return r, err
}

// hooks are test-only faults injected through the model wrappers. The zero
// value (and a nil *hooks) injects nothing.
type hooks struct {
	// abbeBurn adds this fraction of each Abbe call's duration as extra
	// CPU work after the call.
	abbeBurn float64
	// failCall > 0 makes the failCall-th imaging call (counted across all
	// wrappers) return an error.
	failCall int64
	calls    atomic.Int64
}

func (h *hooks) active() bool { return h != nil && (h.abbeBurn > 0 || h.failCall > 0) }

// model wraps m, recording into s (nil records nothing).
func (h *hooks) model(m litho.Model, s *layerStats) litho.Model {
	tm := &tracedModel{inner: m, stats: s}
	if h == nil {
		return tm
	}
	if _, ok := m.(*litho.Abbe); ok {
		tm.burn = h.abbeBurn
	}
	if h.failCall > 0 {
		tm.fault = func() error {
			if h.calls.Add(1) == h.failCall {
				return fmt.Errorf("injected imaging failure")
			}
			return nil
		}
	}
	return tm
}

// plainFlow is the flow an untraced iteration runs: f itself, or a copy
// with unrecorded wrappers when a test injects a fault.
func (h *hooks) plainFlow(f *flow.Flow) *flow.Flow {
	if !h.active() {
		return f
	}
	c := *f
	c.OPCModelSim = h.model(f.OPCModelSim, nil)
	c.VerifySim = h.model(f.VerifySim, nil)
	return &c
}
