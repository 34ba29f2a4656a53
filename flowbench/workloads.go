package main

import (
	"fmt"
	"sort"
	"time"

	"postopc/internal/flow"
	"postopc/internal/geom"
	"postopc/internal/litho"
	"postopc/internal/netlist"
	"postopc/internal/pdk"
	"postopc/internal/place"
	"postopc/internal/sta"
)

// defaultWorkers is the extraction, ORC, corner and Monte Carlo concurrency
// of every workload: one closed-loop caller driving a two-worker flow.
const defaultWorkers = 2

// spec is one workload: how to generate its inputs from a seed and which
// public flow calls one iteration makes.
type spec struct {
	name string
	// design generates the netlist from the seed.
	design func(seed int64) *netlist.Netlist
	// fast verifies with the Gaussian model instead of Abbe.
	fast bool
	// cache attaches the pattern cache.
	cache bool
	// place configures placement.
	place place.Options
	// topK tags the gates on the K worst drawn paths (0 = every gate).
	topK int
	// variation extracts at flow.VariationCorners instead of nominal only.
	variation bool
	// orcTileNM > 0 runs full-chip ORC with this tile size.
	orcTileNM geom.Coord
	// corners runs MultiCornerSTA over the process-window grid.
	corners bool
	// mcSamples > 0 runs Monte Carlo with this many samples.
	mcSamples int
}

// specs are the workloads. Each stresses a different layer; BENCHMARK.json
// says why each was chosen.
var specs = []*spec{
	{
		// The paper's flow as postopc-sta runs it by default: every window
		// is unique, so OPC's fast model and Abbe imaging do the work.
		name:      "tagged_abbe",
		design:    func(seed int64) *netlist.Netlist { return netlist.Datapath(32, 10, seed) },
		topK:      1,
		variation: true,
	},
	{
		// Repeated contexts: identical bit slices placed one cell per row make
		// most windows recur, so the pattern cache and the ORC tile scans do
		// the work; no Abbe.
		name:      "strip_orc",
		design:    func(seed int64) *netlist.Netlist { return netlist.DatapathRegular(64, 3, seed) },
		fast:      true,
		cache:     true,
		place:     place.Options{RowWidthNM: 2380},
		orcTileNM: 5200,
	},
	{
		// Process-window sign-off: 21-corner STA and Monte Carlo over 3072
		// gates, so STA, the device model and GC do the work. The cache is
		// off so that every seed corrects the same six windows; with it on,
		// how many of them recur depends on the seed.
		name:      "pw_signoff",
		design:    func(seed int64) *netlist.Netlist { return netlist.DatapathRegular(512, 6, seed) },
		fast:      true,
		topK:      1,
		variation: true,
		corners:   true,
		mcSamples: 800,
	},
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// instance is a set-up workload: its generated inputs and a fresh flow.
type instance struct {
	spec *spec
	seed int64
	pdk  *pdk.PDK
	n    *netlist.Netlist
	f    *flow.Flow
	cfg  sta.Config
	// windows is the number of windows extraction is asked for, so a failed
	// Flow.Run still counts every window it was asked to extract.
	windows int
	// workers is the concurrency passed to every flow call.
	workers int
}

// setup generates the workload's inputs and assembles a fresh flow the way
// postopc-sta does: netlist, flow.New, BuildGraph and the clock probe (2%
// margin over the drawn critical path).
func (s *spec) setup(seed int64) (*instance, error) {
	p := pdk.N90()
	n := s.design(seed)
	f, err := flow.New(p, flow.Config{Fast: s.fast})
	if err != nil {
		return nil, err
	}
	if s.cache {
		f.EnableCache(0)
	}
	g, err := f.BuildGraph(n)
	if err != nil {
		return nil, err
	}
	cfg := sta.DefaultConfig(10000)
	pre, err := g.Analyze(cfg, nil)
	if err != nil {
		return nil, err
	}
	cfg.ClockPS = 1.02 * (10000 - pre.WNS)
	windows := len(n.Gates)
	if s.topK > 0 {
		// A uniform clock shift keeps the path order, so the probe tags
		// the same gates as Flow.Run will.
		windows = len(pre.CriticalGates(s.topK))
	}
	return &instance{spec: s, seed: seed, pdk: p, n: n, f: f, cfg: cfg, windows: windows, workers: defaultWorkers}, nil
}

func (in *instance) corners() []litho.Corner {
	if in.spec.variation {
		return flow.VariationCorners(in.pdk.Window)
	}
	return []litho.Corner{litho.Nominal}
}

func (in *instance) runOptions() flow.RunOptions {
	return flow.RunOptions{
		STA:     in.cfg,
		Place:   in.spec.place,
		Mode:    flow.OPCModel,
		Corners: in.corners(),
		TagTopK: in.spec.topK,
		Workers: in.workers,
	}
}

func (in *instance) orcOptions() flow.ORCOptions {
	return flow.ORCOptions{TileNM: in.spec.orcTileNM, Mode: flow.OPCModel, Workers: in.workers}
}

func (in *instance) cornerOptions() flow.MultiCornerSTAOptions {
	return flow.MultiCornerSTAOptions{DefocusSteps: 3, DoseSteps: 2, GuardbandKSigma: 3, Workers: in.workers}
}

// outcome is what one iteration produced, traced or not.
type outcome struct {
	res     *flow.RunResult
	orc     *flow.ORCReport
	corners *sta.MultiCornerResult
	mc      *flow.MCResult

	// ops counts attempted operations: windows, tiles, corners, samples.
	ops int
	// err is the first failure; every operation of the failed call counts
	// as failed.
	err    error
	failed int

	wall       time.Duration // whole timed region
	workWall   time.Duration // extraction (Flow.Run) plus ORC calls
	cornerWall time.Duration // multi-corner STA call
	mcWall     time.Duration // Monte Carlo call
	windows    int
	tiles      int
}

// runPlain is one untraced iteration: the public calls a CLI user makes,
// timed from outside and nothing else.
func (in *instance) runPlain(hook *hooks) *outcome {
	o := &outcome{}
	f := hook.plainFlow(in.f)
	t0 := time.Now()
	res, err := f.Run(in.n, in.runOptions())
	o.workWall = time.Since(t0)
	if err != nil {
		o.fail(err, in.windows)
		o.wall = time.Since(t0)
		return o
	}
	o.res = res
	o.windows = len(res.Extractions)
	o.ops += o.windows
	if err := in.followOn(o, f); err != nil {
		o.err = err
	}
	o.wall = time.Since(t0)
	return o
}

// followOn runs the calls after extraction: ORC, multi-corner STA and Monte
// Carlo, on flow f (the traced run passes a flow with wrapped models).
func (in *instance) followOn(o *outcome, f *flow.Flow) error {
	s := in.spec
	if s.orcTileNM > 0 {
		t := time.Now()
		rep, err := f.VerifyChip(o.res.Place.Chip, in.orcOptions())
		o.workWall += time.Since(t)
		if err != nil {
			o.fail(err, 1)
			return err
		}
		o.orc = rep
		o.tiles = rep.Tiles
		o.ops += rep.Tiles
	}
	if !s.corners && s.mcSamples == 0 {
		return nil
	}
	vm, err := flow.BuildVariationModel(o.res.Extractions, in.pdk.Window, in.pdk.Device.SigmaLRandomNM)
	if err != nil {
		o.fail(err, 1)
		return err
	}
	if s.corners {
		t := time.Now()
		mcr, err := f.MultiCornerSTA(o.res.Graph, in.cfg, vm, in.cornerOptions())
		o.cornerWall = time.Since(t)
		if err != nil {
			o.fail(err, in.cornerCount())
			return err
		}
		o.corners = mcr
		o.ops += len(mcr.Corners)
	}
	if s.mcSamples > 0 {
		t := time.Now()
		mc, err := vm.MonteCarloWorkers(o.res.Graph, in.cfg, s.mcSamples, in.seed, in.workers)
		o.mcWall = time.Since(t)
		if err != nil {
			o.fail(err, s.mcSamples)
			return err
		}
		o.mc = &mc
		o.ops += len(mc.WNS)
	}
	return nil
}

// fail records a failed call that was asked to do n operations.
func (o *outcome) fail(err error, n int) {
	if o.err == nil {
		o.err = err
	}
	o.ops += n
	o.failed += n
}

// check verifies an iteration's results beyond the digest: every tagged
// gate was extracted at every corner, and every count is what was asked.
func (in *instance) check(o *outcome) error {
	if o.err != nil {
		return o.err
	}
	res := o.res
	if len(res.Extractions) == 0 || len(res.Extractions) != len(res.Tagged) || len(res.Extractions) != in.windows {
		return fmt.Errorf("%d extractions for %d tagged gates, %d tagged at set-up", len(res.Extractions), len(res.Tagged), in.windows)
	}
	nc := len(in.corners())
	names := make([]string, 0, len(res.Extractions))
	for name := range res.Extractions {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		e := res.Extractions[name]
		if len(e.Sites) == 0 {
			return fmt.Errorf("gate %s: no sites", name)
		}
		for _, st := range e.Sites {
			if len(st.PerCorner) != nc {
				return fmt.Errorf("gate %s site %s: %d corners, want %d", name, st.LocalName, len(st.PerCorner), nc)
			}
			for _, c := range st.PerCorner {
				if !(c.DelayEL > 0 && c.LeakEL > 0) {
					return fmt.Errorf("gate %s site %s: equivalent lengths %v/%v", name, st.LocalName, c.DelayEL, c.LeakEL)
				}
			}
		}
	}
	if in.spec.orcTileNM > 0 && (o.orc == nil || o.orc.Tiles == 0) {
		return fmt.Errorf("ORC scanned no tiles")
	}
	if in.spec.corners && (o.corners == nil || len(o.corners.Corners) != in.cornerCount()) {
		return fmt.Errorf("multi-corner STA did not cover the grid")
	}
	if n := in.spec.mcSamples; n > 0 {
		if o.mc == nil || len(o.mc.WNS) != n {
			return fmt.Errorf("Monte Carlo returned the wrong sample count")
		}
		if !sort.Float64sAreSorted(o.mc.WNS) {
			return fmt.Errorf("Monte Carlo WNS samples are not sorted")
		}
	}
	return nil
}

// cornerCount is the expected multi-corner grid size: (defocus steps + 1)
// x (2 x dose steps + 1) plus the guardband corner.
func (in *instance) cornerCount() int {
	o := in.cornerOptions()
	return (o.DefocusSteps+1)*(2*o.DoseSteps+1) + 1
}
