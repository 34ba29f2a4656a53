package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"postopc/internal/netlist"
)

// benchmarkFile is the part of BENCHMARK.json the tests check against.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// placementBytes serializes a workload's netlist and placement.
func placementBytes(t *testing.T, s *spec, seed int64) []byte {
	t.Helper()
	in, err := s.setup(seed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := netlist.WriteVerilog(&buf, in.n); err != nil {
		t.Fatal(err)
	}
	pl, err := in.f.Place(in.n, in.spec.place)
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range pl.Chip.Instances {
		fmt.Fprintf(&buf, "%s %s %d %d %v\n", inst.Name, inst.Cell.Name, inst.Origin.X, inst.Origin.Y, inst.Orient)
	}
	return buf.Bytes()
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, s := range specs {
		a := placementBytes(t, s, 7)
		if b := placementBytes(t, s, 7); !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated two different netlists or placements", s.name)
		}
		if c := placementBytes(t, s, 8); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", s.name)
		}
	}
}

// TestDigestWorkers runs every workload once at 1 and at 2 workers; the
// output digest must not depend on the worker count.
func TestDigestWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, s := range specs {
		var digests []string
		for _, w := range []int{1, 2} {
			r, err := measure(config{spec: s, seed: 3, workers: w, maxIters: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct {
				t.Fatalf("%s at %d workers: %v", s.name, w, r.Errors)
			}
			digests = append(digests, r.Digest)
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: digest %s at 1 worker, %s at 2", s.name, digests[0], digests[1])
		}
	}
}

// TestMetricNames checks every metric the benchmark prints against the
// naming rule and against the lists BENCHMARK.json declares.
func TestMetricNames(t *testing.T) {
	b := readBenchmarkFile(t)
	it := iteration{setup: time.Millisecond, wall: time.Second, cpu: time.Second, rssMB: 1, layers: map[string]float64{}}
	e2e := endToEndMetrics([]iteration{it}, 1)
	layers, err := layerMetrics([]iteration{it}, []iteration{it}, nil)
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got map[string]metric, declared map[string]string) {
		for name, m := range got {
			if !regexp.MustCompile(`^[A-Za-z0-9_.-]+$`).MatchString(name) {
				t.Errorf("%s metric %q breaks the naming rule", kind, name)
			}
			unit, ok := declared[name]
			if !ok {
				t.Errorf("%s metric %q is not declared in BENCHMARK.json", kind, name)
			} else if unit != m.Unit {
				t.Errorf("%s metric %q: unit %q, BENCHMARK.json says %q", kind, name, m.Unit, unit)
			}
		}
		for name := range declared {
			if _, ok := got[name]; !ok {
				t.Errorf("BENCHMARK.json declares %s metric %q, which is not printed", kind, name)
			}
		}
	}
	declared := map[string]string{}
	for _, m := range b.EndToEnd {
		declared[m.Name] = m.Unit
	}
	check("end-to-end", e2e, declared)
	declared = map[string]string{}
	for _, m := range b.PerLayer {
		declared[m.Name] = m.Unit
	}
	check("per-layer", layers, declared)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, " | "), specNames(); got != want {
		t.Errorf("BENCHMARK.json workloads %q, benchmark has %q", got, want)
	}
}

// smallSpec is a workload small enough for a unit test: one tagged path of
// a short datapath, fast model, one defocus and dose corner set.
var smallSpec = &spec{
	name:      "small",
	design:    func(seed int64) *netlist.Netlist { return netlist.Datapath(4, 4, seed) },
	fast:      true,
	topK:      1,
	variation: true,
	mcSamples: 50,
}

func TestSmallRunIsCorrect(t *testing.T) {
	for _, trace := range []bool{false, true} {
		r, err := measure(config{spec: smallSpec, seed: 1, workers: 2, trace: trace, maxIters: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Fatalf("trace=%v: correct=%v %d/%d failed: %v", trace, r.Correct, r.Failed, r.Attempted, r.Errors)
		}
		if trace && r.Metrics["opc.sims"].Value == 0 {
			t.Errorf("traced run recorded no OPC simulations: %v", r.Metrics)
		}
	}
}

func TestInjectedFailureRaisesFailedFrac(t *testing.T) {
	for _, trace := range []bool{false, true} {
		r, err := measure(config{spec: smallSpec, seed: 1, workers: 2, trace: trace, maxIters: 2,
			hook: &hooks{failCall: 3}})
		if err != nil {
			t.Fatal(err)
		}
		if r.Attempted == 0 || r.Failed == 0 || r.Correct {
			t.Errorf("trace=%v: one failing Aerial call left %d/%d operations failed (correct=%v)", trace, r.Failed, r.Attempted, r.Correct)
		}
	}
}

func TestCompareRefusesOtherHosts(t *testing.T) {
	a := &result{Workload: "w", Host: hostFingerprint(), Metrics: map[string]metric{"run_s": {1, "s"}}}
	b := *a
	b.Host.GoVersion = "go0.0"
	if _, err := compare([]*result{a}, []*result{&b}, map[string]bound{"run_s": {0.1, "lower"}}); err == nil {
		t.Error("compared results with different host fingerprints")
	}
	if _, err := compare([]*result{a}, []*result{a}, map[string]bound{"run_s": {0.1, "lower"}}); err != nil {
		t.Error(err)
	}
}

func TestCPUSharesDecodeOwnProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	shares, n, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Skip("no samples in 300ms")
	}
	sum := 0.0
	for _, l := range cpuLayers {
		sum += shares[l]
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("shares sum to %v", sum)
	}
	// spin lives in package main, so its samples count as other.
	if shares["other"] < 0.5 {
		t.Errorf("spin's samples not attributed to other: %v", shares)
	}
}

// layerGate is how far the sensitivity check lets a per-layer time
// worsen: per-layer metrics have no bound of their own.
const layerGate = 0.10

// TestAbbeSlowdownSensitivity injects 20% extra CPU into every Abbe call
// and runs base and slowed iterations interleaved on each workload. The
// slowdown must push tagged_abbe's litho.abbe.busy_s past the layer gate
// and leave run_s and litho.abbe.busy_s of the workloads that never call
// Abbe inside their bounds. tagged_abbe's run_s moves by about 20% of the
// Abbe share of the iteration, well inside run_s's bound, so that move is
// logged, not asserted.
func TestAbbeSlowdownSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload several times")
	}
	all, err := readBounds("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	// The check is on the end-to-end time and the Abbe layer's busy time;
	// set-up, which the slowdown cannot reach, is left out.
	bounds := map[string]bound{
		"run_s":             all["run_s"],
		"litho.abbe.busy_s": {layerGate, "lower"},
	}
	slowdown := &hooks{abbeBurn: 0.2}
	for _, s := range specs {
		var base, slow []*result
		for round := 0; round < 3; round++ {
			order := []*hooks{nil, slowdown}
			if round%2 == 1 {
				order = []*hooks{slowdown, nil}
			}
			for _, h := range order {
				r, err := measure(config{spec: s, seed: 1, workers: defaultWorkers, trace: true, maxIters: 2, hook: h})
				if err != nil {
					t.Fatal(err)
				}
				if !r.Correct {
					t.Fatalf("%s: %v", s.name, r.Errors)
				}
				if h == nil {
					base = append(base, r)
				} else {
					slow = append(slow, r)
				}
			}
		}
		regs, err := compare(base, slow, bounds)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := medianOf(base, "run_s")
		h, _ := medianOf(slow, "run_s")
		t.Logf("%s: run_s %.3f -> %.3f (%+.1f%%); regressions %v", s.name, b, h, 100*(h-b)/b, regs)
		if s.name != "tagged_abbe" {
			if len(regs) > 0 {
				t.Errorf("%s never calls Abbe, yet the slowdown flagged %v", s.name, regs)
			}
			continue
		}
		flagged := false
		for _, g := range regs {
			flagged = flagged || g.metric == "litho.abbe.busy_s"
		}
		if !flagged {
			t.Errorf("%s: the Abbe slowdown did not push litho.abbe.busy_s past %.0f%%", s.name, 100*layerGate)
		}
	}
}

// TestDominantLayers runs each workload traced and checks the layer each
// one was chosen to stress, and that the traced iteration reproduced the
// untraced digest and cache counts (measure fails the run otherwise).
func TestDominantLayers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload traced")
	}
	for _, s := range specs {
		r, err := measure(config{spec: s, seed: 2, workers: defaultWorkers, trace: true, maxIters: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Correct || r.Traced != 1 {
			t.Fatalf("%s: correct=%v traced=%d: %v", s.name, r.Correct, r.Traced, r.Errors)
		}
		m := func(name string) float64 { return r.Metrics[name].Value }
		switch s.name {
		case "tagged_abbe":
			if m("flow.litho_frac") < 0.5 || m("litho.abbe.calls") == 0 {
				t.Errorf("%s: litho is %.2f of window busy time, %v Abbe calls", s.name, m("flow.litho_frac"), m("litho.abbe.calls"))
			}
		case "strip_orc":
			if m("litho.abbe.calls") != 0 || m("cache.hit_rate") < 0.85 {
				t.Errorf("%s: %v Abbe calls, cache hit rate %.3f", s.name, m("litho.abbe.calls"), m("cache.hit_rate"))
			}
		case "pw_signoff":
			timing := m("cpu.sta") + m("cpu.timinglib") + m("cpu.device")
			litho := m("cpu.litho") + m("cpu.dsp") + m("cpu.vek")
			if timing <= litho {
				t.Errorf("%s: timing layers take %.2f of CPU, litho %.2f", s.name, timing, litho)
			}
		default:
			t.Errorf("no dominant-layer check for workload %s", s.name)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"postopc/internal/dsp/vek.butterflyColGeneric", "postopc/internal/dsp.(*Plan).FFT2D"}, "vek"},
		{[]string{"math.Exp", "postopc/internal/device.(*Model).Ids", "postopc/internal/sta.(*Graph).Analyze"}, "device"},
		{[]string{"runtime.mallocgc", "postopc/internal/sta.(*Graph).Analyze"}, "sta"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.mallocgc", "postopc/internal/litho.(*Gaussian).aerial"}, "gc"},
		{[]string{"postopc/internal/netlist.(*Netlist).Connectivity"}, "other"},
		{[]string{"runtime.futex", "runtime.findRunnable"}, "runtime"},
		{[]string{"main.spin"}, "other"},
	} {
		if got := layerOf(c.frames); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}
