// Command flowbench is the repository's benchmark of the post-OPC timing
// flow. It generates one workload from a seed, drives it through the
// public flow APIs for a fixed time, checks every output against a digest,
// and prints the metrics as JSON on its last line of output.
//
// Usage (from the repository root):
//
//	bash flowbench/run.sh --workload tagged_abbe --seed 1 --seconds 40 --trace 0
//
// Each run starts with one untraced warm-up iteration that is checked but
// not timed. --trace 0 measures the end-to-end metrics from untraced
// iterations, their times divided by the host slowdown the probe in
// hostspeed.go measures between them; --trace 1 alternates untraced and
// traced iterations and reports the per-layer metrics of the traced ones.
// Each run also prints a "result" line with the host fingerprint, output
// digest, per-iteration detail and probe slices; -compare
// base.txt,head.txt checks two files of such lines against the bounds in
// BENCHMARK.json. -golden 1-12 prints the digest table
// golden.json holds, for the given seeds.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("flowbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: tagged_abbe | strip_orc | pw_signoff")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 40, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from traced iterations")
	golden := fs.String("golden", "", "print the golden digest table for seeds lo-hi instead of measuring")
	cmp := fs.String("compare", "", "compare two files of result lines, base,head, against the bounds in -benchmark")
	benchmarkJSON := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the bounds for -compare")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp != "" {
		ok, err := runCompare(stdout, *cmp, *benchmarkJSON)
		if err != nil {
			fmt.Fprintln(stderr, "flowbench:", err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	}
	if *golden != "" {
		if err := printGolden(stdout, *golden); err != nil {
			fmt.Fprintln(stderr, "flowbench:", err)
			return 1
		}
		return 0
	}
	s := specByName(*workload)
	if s == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "flowbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", specNames())
		return 2
	}
	r, err := measure(config{spec: s, seed: *seed, budget: time.Duration(*seconds) * time.Second, trace: *trace == 1, workers: defaultWorkers})
	if err != nil {
		fmt.Fprintln(stderr, "flowbench:", err)
		return 1
	}
	for _, e := range r.Errors {
		fmt.Fprintln(stderr, "flowbench:", e)
	}
	detail, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(stderr, "flowbench:", err)
		return 1
	}
	summary, err := json.Marshal(r.summary())
	if err != nil {
		fmt.Fprintln(stderr, "flowbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "result %s\n%s\n", detail, summary)
	return 0
}

func specNames() string {
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	return strings.Join(names, " | ")
}

// config is one measurement.
type config struct {
	spec   *spec
	seed   int64
	budget time.Duration
	trace  bool
	// workers is the concurrency of every flow call.
	workers int
	// maxIters > 0 caps the timed iterations (tests).
	maxIters int
	hook     *hooks
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one measurement with everything needed to judge and compare
// it; summary reduces it to the benchmark's output contract.
type result struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Trace      bool              `json:"trace"`
	Host       fingerprint       `json:"host"`
	Digest     string            `json:"digest"`
	Golden     string            `json:"golden"`
	Iterations int               `json:"iterations"`
	Traced     int               `json:"traced_iterations"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Metrics    map[string]metric `json:"metrics"`
	// Plain holds, for a traced run, the end-to-end metrics of its
	// untraced iterations.
	Plain map[string]metric `json:"plain,omitempty"`
	// RunS and CPUS are the untraced iterations' wall and CPU seconds, the
	// samples behind run_s and cpu_s.
	RunS []float64 `json:"run_s_samples"`
	CPUS []float64 `json:"cpu_s_samples"`
	// Slowdown is the host's slowdown the probe measured over the run, and
	// ProbeMS each probe slice's median round in milliseconds.
	Slowdown float64   `json:"slowdown"`
	ProbeMS  []float64 `json:"probe_ms"`
	Errors   []string  `json:"errors,omitempty"`
}

func (r *result) summary() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics}
}

// iteration is what one untraced or traced iteration measured.
type iteration struct {
	setup, wall, cpu time.Duration
	// rssMB is the iteration's peak resident set.
	rssMB           float64
	lookups, misses uint64
	hitRate         float64
	layers          map[string]float64
	// ops and failed count the iteration's operations: windows, tiles,
	// corners and samples. A failed check fails every operation.
	ops, failed int
	// digest is the outputs' digest, "" when they failed the check.
	digest string
	err    error
}

// warmupIters is how many untraced iterations a run starts with: checked
// and counted, but left out of the metrics, so the heap and the caches the
// first iteration fills are warm for the timed ones.
const warmupIters = 1

// measure runs the warm-up iterations, then timed iterations of the
// workload until the budget is spent, at least one (in trace mode one
// untraced and one traced), checks each one's outputs and reduces the
// timed ones to metrics.
func measure(c config) (*result, error) {
	r := &result{Workload: c.spec.name, Seed: c.seed, Trace: c.trace, Host: hostFingerprint(), Correct: true}
	want, known := goldenDigest(c.spec.name, c.seed, r.Host.GOARCH)
	r.Golden = "not recorded"
	if known {
		r.Golden = "checked"
	}
	start := time.Now()
	var warm, plain, traced []iteration
	var longestPlain, longestTraced time.Duration
	var profiles [][]byte
	hp := newProbe(c.workers)
	var rounds []float64
	for {
		warming := len(warm) < warmupIters
		doTrace := !warming && c.trace && len(traced) < len(plain)
		next := longestPlain
		if doTrace {
			next = longestTraced
			if next == 0 {
				next = longestPlain * 5 / 4
			}
		}
		enough := !warming && len(plain) > 0 && (!c.trace || len(traced) > 0)
		if enough && (time.Since(start)+next*11/10 > c.budget || (c.maxIters > 0 && len(plain)+len(traced) >= c.maxIters)) {
			break
		}
		it, prof, err := runIteration(c, doTrace)
		if err != nil {
			return nil, err
		}
		failed := it.failed
		switch {
		case it.err != nil:
			r.Errors = append(r.Errors, it.err.Error())
		case r.Digest == "":
			r.Digest = it.digest
			if known && it.digest != want {
				r.Errors = append(r.Errors, fmt.Sprintf("digest %s differs from golden %s", it.digest, want))
				failed = it.ops
			}
		case it.digest != r.Digest:
			r.Errors = append(r.Errors, fmt.Sprintf("iteration digest %s differs from %s", it.digest, r.Digest))
			failed = it.ops
		}
		r.Attempted += it.ops
		r.Failed += failed
		t := time.Now()
		rs := hp.slice(max(probeMinSlice, it.wall/probeShare))
		cost := setupReps*it.setup + it.wall + time.Since(t)
		rounds = append(rounds, rs...)
		r.ProbeMS = append(r.ProbeMS, median(rs)/1e6)
		switch {
		case warming:
			warm = append(warm, it)
			longestPlain = max(longestPlain, cost)
		case doTrace:
			traced = append(traced, it)
			profiles = append(profiles, prof)
			longestTraced = max(longestTraced, cost)
		default:
			plain = append(plain, it)
			longestPlain = max(longestPlain, cost)
		}
	}
	r.Iterations, r.Traced = len(plain), len(traced)
	r.Slowdown = slowdown(rounds)
	for _, it := range plain {
		r.RunS = append(r.RunS, it.wall.Seconds())
		r.CPUS = append(r.CPUS, it.cpu.Seconds())
	}
	if err := sameCacheCounts(append(append(warm, plain...), traced...)); err != nil {
		r.Errors = append(r.Errors, err.Error())
		r.Failed = r.Attempted
	}
	if r.Failed > 0 {
		r.Correct = false
	}
	var err error
	if c.trace {
		r.Metrics, err = layerMetrics(plain, traced, profiles)
		if err != nil {
			return nil, err
		}
		r.Plain = endToEndMetrics(plain, r.Slowdown)
	} else {
		r.Metrics = endToEndMetrics(plain, r.Slowdown)
	}
	return r, nil
}

// sameCacheCounts checks that every iteration, traced or not, made the same
// cache lookups with the same misses. The hit/wait split depends on timing
// and is not compared.
func sameCacheCounts(its []iteration) error {
	for _, it := range its[1:] {
		if it.lookups != its[0].lookups || it.misses != its[0].misses || it.hitRate != its[0].hitRate {
			return fmt.Errorf("cache counts differ between iterations: %d/%d vs %d/%d lookups/misses",
				it.lookups, it.misses, its[0].lookups, its[0].misses)
		}
	}
	return nil
}

// setupReps is how many times each iteration sets the workload up; set-up
// takes milliseconds, so its time is the median of several.
const setupReps = 15

// runIteration sets the workload up afresh (a new flow, so the cache starts
// empty), runs it once and checks its outputs.
func runIteration(c config, doTrace bool) (iteration, []byte, error) {
	var m iteration
	var in *instance
	setups := make([]float64, setupReps)
	for i := range setups {
		runtime.GC()
		t0 := time.Now()
		var err error
		in, err = c.spec.setup(c.seed)
		if err != nil {
			return m, nil, fmt.Errorf("set-up: %w", err)
		}
		setups[i] = float64(time.Since(t0))
	}
	in.workers = c.workers
	m.setup = time.Duration(median(setups))
	// Return the set-ups' garbage to the OS, so every iteration's peak
	// resident set starts from the same floor.
	runtime.GC()
	debug.FreeOSMemory()
	resetPeakRSS()
	var o *outcome
	var prof []byte
	if doTrace {
		var lt *layerTrace
		var buf bytes.Buffer
		rt0 := readRuntime()
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return m, nil, err
		}
		cpu0 := cpuTime()
		o, lt = in.runTraced(c.hook)
		m.cpu = cpuTime() - cpu0
		pprof.StopCPUProfile()
		prof = buf.Bytes()
		m.layers = lt.metrics(in, o)
		readRuntime().since(rt0, m.layers)
	} else {
		cpu0 := cpuTime()
		o = in.runPlain(c.hook)
		m.cpu = cpuTime() - cpu0
	}
	rss, err := peakRSSMB()
	if err != nil {
		return m, nil, err
	}
	m.rssMB = rss
	m.wall = o.wall
	st := in.f.CacheStats()
	m.lookups, m.misses, m.hitRate = st.Lookups(), st.Misses, st.HitRate()
	if m.layers != nil {
		m.layers["cache.lookups"] = float64(st.Lookups())
		m.layers["cache.hit_rate"] = st.HitRate()
		m.layers["cache.waits"] = float64(st.Waits)
		m.layers["cache.evictions"] = float64(st.Evictions)
	}
	m.ops, m.failed = o.ops, o.failed
	if m.err = in.check(o); m.err != nil {
		m.failed = o.ops
	} else {
		m.digest = digest(o)
	}
	return m, prof, nil
}

// endToEndMetrics reduces untraced iterations to the end-to-end metrics,
// each the median over the iterations; times are divided by the host's
// slowdown over the run.
func endToEndMetrics(its []iteration, slow float64) map[string]metric {
	med := func(f func(iteration) float64) float64 {
		vs := make([]float64, len(its))
		for i, it := range its {
			vs[i] = f(it)
		}
		return median(vs)
	}
	return map[string]metric{
		"setup_s":     {med(func(it iteration) float64 { return it.setup.Seconds() }) / slow, "s"},
		"run_s":       {med(func(it iteration) float64 { return it.wall.Seconds() }) / slow, "s"},
		"cpu_s":       {med(func(it iteration) float64 { return it.cpu.Seconds() }) / slow, "s"},
		"peak_rss_mb": {med(func(it iteration) float64 { return it.rssMB }), "MB"},
	}
}

// layerMetrics takes each per-layer metric's median over the traced
// iterations and adds the sampled CPU shares of all their profiles and the
// tracing overhead against the untraced iterations.
func layerMetrics(plain, traced []iteration, profiles [][]byte) (map[string]metric, error) {
	out := map[string]metric{}
	for _, name := range layerNames {
		vs := make([]float64, len(traced))
		for i, it := range traced {
			vs[i] = it.layers[name.name]
		}
		out[name.name] = metric{median(vs), name.unit}
	}
	counts := map[string]float64{}
	var samples int64
	for _, p := range profiles {
		shares, n, err := cpuShares(p)
		if err != nil {
			return nil, err
		}
		for l, s := range shares {
			counts[l] += s * float64(n)
		}
		samples += n
	}
	for _, l := range cpuLayers {
		share := 0.0
		if samples > 0 {
			share = counts[l] / float64(samples)
		}
		out["cpu."+l] = metric{share, "share"}
	}
	out["cpu.samples"] = metric{float64(samples), "count"}
	wall := func(its []iteration) float64 {
		vs := make([]float64, len(its))
		for i, it := range its {
			vs[i] = it.wall.Seconds()
		}
		return median(vs)
	}
	out["trace.overhead_pct"] = metric{100 * (wall(traced)/wall(plain) - 1), "%"}
	return out, nil
}

// layerName is a per-layer metric the traced iteration records.
type layerName struct{ name, unit string }

var layerNames = []layerName{
	{"litho.gauss.calls", "count"}, {"litho.gauss.busy_s", "s"}, {"litho.gauss.ns_per_px", "ns"},
	{"litho.abbe.calls", "count"}, {"litho.abbe.busy_s", "s"}, {"litho.abbe.ns_per_px", "ns"},
	{"opc.sims", "count"}, {"opc.sims_per_window", "count"},
	{"cache.lookups", "count"}, {"cache.hit_rate", "ratio"}, {"cache.waits", "count"},
	{"cache.evictions", "count"}, {"cache.hit_window_p50_ms", "ms"},
	{"flow.windows", "count"}, {"flow.tiles", "count"}, {"flow.extract_s", "s"}, {"flow.orc_s", "s"},
	{"flow.windows_per_s", "1/s"},
	{"flow.window_p50_ms", "ms"}, {"flow.window_p90_ms", "ms"}, {"flow.self_s", "s"},
	{"flow.litho_frac", "ratio"}, {"par.occupancy", "ratio"},
	{"sta.analyze_p50_ms", "ms"}, {"sta.multicorner_s", "s"}, {"sta.mc_sample_ms", "ms"},
	{"runtime.alloc_mb", "MB"}, {"runtime.gc_cycles", "count"}, {"runtime.gc_cpu_frac", "ratio"},
}

// metrics reduces one traced iteration's spans to per-layer values.
func (lt *layerTrace) metrics(in *instance, o *outcome) map[string]float64 {
	m := map[string]float64{}
	model := func(prefix string, s *layerStats) {
		m[prefix+".calls"] = float64(s.calls.Load())
		m[prefix+".busy_s"] = time.Duration(s.busyNS.Load()).Seconds()
		if px := s.px.Load(); px > 0 {
			m[prefix+".ns_per_px"] = float64(s.busyNS.Load()) / float64(px)
		} else {
			m[prefix+".ns_per_px"] = 0
		}
	}
	model("litho.gauss", &lt.gauss)
	model("litho.abbe", &lt.abbe)
	m["opc.sims"] = float64(lt.opcSims)
	var busy, lithoNS time.Duration
	var all, hits []float64
	computed := 0
	for _, w := range lt.windows {
		busy += w.dur
		lithoNS += time.Duration(w.lithoNS)
		ms := float64(w.dur) / 1e6
		all = append(all, ms)
		if w.lithoCalls == 0 {
			hits = append(hits, ms)
		}
		if w.opcCalls > 0 {
			computed++
		}
	}
	// Windows that ran OPC; cache hits simulate nothing.
	m["opc.sims_per_window"] = 0
	if computed > 0 {
		var sims int64
		for _, w := range lt.windows {
			sims += w.opcCalls
		}
		m["opc.sims_per_window"] = float64(sims) / float64(computed)
	}
	m["cache.hit_window_p50_ms"] = median(hits)
	m["flow.windows"] = float64(o.windows)
	m["flow.tiles"] = float64(o.tiles)
	m["flow.extract_s"] = lt.extractWall.Seconds()
	m["flow.windows_per_s"] = 0
	if o.workWall > 0 {
		m["flow.windows_per_s"] = float64(o.windows+o.tiles) / o.workWall.Seconds()
	}
	m["flow.orc_s"] = lt.orcWall.Seconds()
	m["flow.window_p50_ms"] = quantile(all, 0.5)
	m["flow.window_p90_ms"] = quantile(all, 0.9)
	m["flow.self_s"] = (busy - lithoNS).Seconds()
	m["flow.litho_frac"] = 0
	if busy > 0 {
		m["flow.litho_frac"] = float64(lithoNS) / float64(busy)
	}
	m["par.occupancy"] = 0
	if lt.windowWall > 0 {
		m["par.occupancy"] = float64(busy) / (float64(in.workers) * float64(lt.windowWall))
	}
	an := make([]float64, len(lt.analyze))
	for i, d := range lt.analyze {
		an[i] = float64(d) / 1e6
	}
	m["sta.analyze_p50_ms"] = median(an)
	m["sta.multicorner_s"] = lt.cornersWall.Seconds()
	m["sta.mc_sample_ms"] = 0
	if lt.mcSamples > 0 {
		m["sta.mc_sample_ms"] = float64(lt.mcWall) / 1e6 / float64(lt.mcSamples)
	}
	return m
}

// runtimeSnap is the runtime's allocation and GC counters at one instant.
type runtimeSnap struct {
	alloc, gcs uint64
	gcCPU, cpu float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() runtimeSnap {
	s := make([]metrics.Sample, len(runtimeSamples))
	copy(s, runtimeSamples)
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSnap{alloc: u(0), gcs: u(1), gcCPU: f(2), cpu: f(3)}
}

// since stores the counters' change from before into m.
func (r runtimeSnap) since(before runtimeSnap, m map[string]float64) {
	m["runtime.alloc_mb"] = float64(r.alloc-before.alloc) / (1 << 20)
	m["runtime.gc_cycles"] = float64(r.gcs - before.gcs)
	m["runtime.gc_cpu_frac"] = 0
	if d := r.cpu - before.cpu; d > 0 {
		m["runtime.gc_cpu_frac"] = (r.gcCPU - before.gcCPU) / d
	}
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// quantile interpolates linearly between order statistics (0 for none).
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// printGolden runs one untraced iteration per workload and seed and prints
// the golden digest table.
func printGolden(w io.Writer, seeds string) error {
	lo, hi, ok := strings.Cut(seeds, "-")
	if !ok {
		hi = lo
	}
	a, err1 := strconv.ParseInt(lo, 10, 64)
	b, err2 := strconv.ParseInt(hi, 10, 64)
	if err1 != nil || err2 != nil || a > b {
		return fmt.Errorf("bad seed range %q", seeds)
	}
	g := goldenFile{GOARCH: runtime.GOARCH, Digests: map[string]map[string]string{}}
	for _, s := range specs {
		g.Digests[s.name] = map[string]string{}
		for seed := a; seed <= b; seed++ {
			in, err := s.setup(seed)
			if err != nil {
				return err
			}
			o := in.runPlain(nil)
			if err := in.check(o); err != nil {
				return fmt.Errorf("%s seed %d: %w", s.name, seed, err)
			}
			g.Digests[s.name][strconv.FormatInt(seed, 10)] = digest(o)
		}
	}
	out, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// goldenFile is golden.json: each workload's output digest per seed, as
// computed on GOARCH. The determinism contract holds across amd64 build
// levels, not across architectures, so other architectures skip it.
type goldenFile struct {
	GOARCH  string                       `json:"goarch"`
	Digests map[string]map[string]string `json:"digests"`
}

//go:embed golden.json
var goldenJSON []byte

func goldenDigest(workload string, seed int64, goarch string) (string, bool) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil || g.GOARCH != goarch {
		return "", false
	}
	d, ok := g.Digests[workload][strconv.FormatInt(seed, 10)]
	return d, ok
}
