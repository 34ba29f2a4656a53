package flow

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"postopc/internal/cdx"
	"postopc/internal/geom"
	"postopc/internal/layout"
	"postopc/internal/litho"
	"postopc/internal/obs"
	"postopc/internal/opc"
	"postopc/internal/par"
)

// CornerCD is one gate site's extraction under one process corner.
type CornerCD struct {
	// Corner is the process condition.
	Corner litho.Corner
	// MeanCD is the average printed channel length (nm).
	MeanCD float64
	// Nonuniformity is max−min CD across the gate width (nm).
	Nonuniformity float64
	// DelayEL and LeakEL are the equivalent lengths (nm).
	DelayEL, LeakEL float64
	// Printed is false when any slice failed (pinched gate).
	Printed bool
}

// SiteCD is the extraction of one transistor across all corners.
type SiteCD struct {
	// LocalName is the cell-local device name ("MN0_0").
	LocalName string
	// Kind is NMOS or PMOS.
	Kind layout.DeviceKind
	// DrawnL is the drawn channel length (nm).
	DrawnL float64
	// PerCorner holds one entry per requested corner, in order.
	PerCorner []CornerCD
}

// GateExtraction is the post-OPC extraction of one placed gate instance.
type GateExtraction struct {
	// Gate is the instance (and netlist gate) name.
	Gate string
	// Cell is the library cell.
	Cell string
	// Sites are the instance's transistors.
	Sites []SiteCD
	// EPE is the residual-EPE report of the window's OPC run at nominal
	// (zero-valued for OPCNone).
	EPE opc.EPEStats
	// EPEValues are the raw interior EPE samples behind EPE (nm), for
	// histogramming.
	EPEValues []float64
	// Mode records the OPC applied.
	Mode OPCMode
}

// ExtractOptions configure window extraction.
type ExtractOptions struct {
	// Corners are the process conditions to extract (default: Nominal).
	Corners []litho.Corner
	// Mode selects the OPC applied to each window.
	Mode OPCMode
	// Workers bounds instance-level concurrency in ExtractGates
	// (0 = GOMAXPROCS, 1 = serial).
	Workers int
}

// ExtractInstance runs the staged window pipeline for one placed instance:
// clip → canonicalize → OPC → image → contour → profile (see stages.go).
// All simulation happens in canonical window coordinates, so the result for
// an instance depends only on its layout context — and, when f.Cache is
// set, repeated contexts are recalled instead of recomputed.
func (f *Flow) ExtractInstance(chip *layout.Chip, inst *layout.Instance, opt ExtractOptions) (*GateExtraction, error) {
	env, err := f.envFor(opt.Mode)
	if err != nil {
		return nil, err
	}
	if len(opt.Corners) == 0 {
		opt.Corners = []litho.Corner{litho.Nominal}
	}
	return f.extractInstance(env, chip, inst, opt, 0, 0, 0)
}

// extractInstance is ExtractInstance with the stage environment already
// built (ExtractGates builds it once for all workers). parent is the
// telemetry span the per-window stage spans nest under (0 for a root);
// idx and worker are the window's position and pool slot, recorded in the
// run ledger — scheduling metadata, never inputs the result depends on.
func (f *Flow) extractInstance(env *stageEnv, chip *layout.Chip, inst *layout.Instance, opt ExtractOptions, idx, worker int, parent obs.SpanID) (*GateExtraction, error) {
	var rec *obs.WindowRecord
	if env.jrn != nil {
		rec = &obs.WindowRecord{Index: idx, Kind: "window", Class: "compute", Worker: worker}
		defer env.jrn.Record(rec)
	}
	sites := inst.GateSites()
	if len(sites) == 0 {
		return nil, fmt.Errorf("flow: instance %s has no gate sites", inst.Name)
	}
	recipe := env.Verify.Recipe()
	ambit := recipe.GuardNM + env.PitchNM
	t := env.begin(obs.StageClip, parent)
	window := cdx.WindowOf(sites, ambit)
	clip := stageClip(chip, window)
	t.end(rec)
	if len(clip.Polys) == 0 {
		return nil, fmt.Errorf("flow: no poly in window of %s", inst.Name)
	}
	// Canonicalize the sites to match the clip: cell-local names,
	// window-relative channels. Instance identity must not reach the
	// artifact — it would defeat both caching and determinism.
	t = env.begin(obs.StageCanonicalize, parent)
	csites := make([]layout.GateSite, len(sites))
	for i, s := range sites {
		csites[i] = layout.GateSite{
			Name:    localSiteName(s.Name),
			Pin:     s.Pin,
			Kind:    s.Kind,
			Channel: s.Channel.Translate(geom.Pt(-clip.Origin.X, -clip.Origin.Y)),
		}
	}
	t.end(rec)
	art, err := f.cachedWindow(env, clip, csites, opt.Corners, rec, parent)
	if err != nil {
		return nil, fmt.Errorf("flow: window of %s: %w", inst.Name, err)
	}
	// The artifact is shared between cache hits; the extraction borrows its
	// slices rather than copying, so consumers must not mutate them.
	return &GateExtraction{
		Gate:      inst.Name,
		Cell:      inst.Cell.Name,
		Sites:     art.Sites,
		EPE:       art.EPE,
		EPEValues: art.EPEValues,
		Mode:      opt.Mode,
	}, nil
}

// interiorEPEs keeps only the EPE samples whose fragment control point lies
// inside the interior rectangle: fragments created by clipping shapes at
// the simulation-window boundary measure the clear-field roll-off, not OPC
// quality. A sample/fragment count mismatch is an explicit error — EPE
// statistics must never be quietly computed over a truncated sample set.
func interiorEPEs(frags []*opc.FragmentedPolygon, epes []float64, interior geom.Rect) ([]float64, error) {
	total := 0
	for _, fp := range frags {
		total += len(fp.Frags)
	}
	if total != len(epes) {
		return nil, fmt.Errorf("%d EPE samples for %d fragments", len(epes), total)
	}
	var out []float64
	i := 0
	for _, fp := range frags {
		for _, fr := range fp.Frags {
			if interior.Contains(fr.Control) {
				out = append(out, epes[i])
			}
			i++
		}
	}
	return out, nil
}

// ExtractGates runs ExtractInstance for the named gates (or all netlist
// gates when names is nil). Results are keyed by instance name.
func (f *Flow) ExtractGates(chip *layout.Chip, names []string, opt ExtractOptions) (map[string]*GateExtraction, error) {
	if names == nil {
		for i := range chip.Instances {
			in := &chip.Instances[i]
			if len(in.Cell.Gates) > 0 && !strings.HasPrefix(in.Name, "fill") {
				names = append(names, in.Name)
			}
		}
	}
	sort.Strings(names)
	// Resolve instances up front (and build the chip index once) so the
	// parallel workers only read shared state.
	insts := make([]*layout.Instance, len(names))
	for i, name := range names {
		inst := chip.FindInstance(name)
		if inst == nil {
			return nil, fmt.Errorf("flow: instance %s not found on chip", name)
		}
		insts[i] = inst
	}
	chip.BuildIndex()
	// Build the stage environment (and, for rule mode, the OPC deck) once
	// so the parallel workers only read shared state.
	env, err := f.envFor(opt.Mode)
	if err != nil {
		return nil, err
	}
	if len(opt.Corners) == 0 {
		opt.Corners = []litho.Corner{litho.Nominal}
	}

	// Run-shape manifest fields: how this extraction was scheduled, so a
	// ledger diff can tell config drift from genuine regressions.
	if j := f.Obs.Ledger(); j != nil {
		j.SetField("flow.extract.mode", opt.Mode.String())
		j.SetField("flow.extract.workers", strconv.Itoa(opt.Workers))
		j.SetField("flow.extract.corners", strconv.Itoa(len(opt.Corners)))
		j.SetField("flow.extract.gates", strconv.Itoa(len(names)))
		if f.Cache != nil {
			j.SetField("flow.cache.entries", strconv.Itoa(f.Cache.Cap()))
		} else {
			j.SetField("flow.cache.entries", "off")
		}
	}

	sp := f.Obs.Start("flow.extract")
	exts := make([]*GateExtraction, len(names))
	err = par.ForEachWorker(len(names), func(w, i int) error {
		ext, err := f.extractInstance(env, chip, insts[i], opt, i, w, sp.ID())
		if err != nil {
			return err
		}
		exts[i] = ext
		return nil
	}, par.Workers(opt.Workers), par.Obs(f.Obs))
	sp.End()
	if err != nil {
		return nil, err
	}
	out := make(map[string]*GateExtraction, len(names))
	for i, name := range names {
		out[name] = exts[i]
	}
	return out, nil
}

func localSiteName(qualified string) string {
	if i := strings.LastIndex(qualified, "/"); i >= 0 {
		return qualified[i+1:]
	}
	return qualified
}
