package obs

import (
	"bytes"
	"strings"
	"testing"
)

// ledgerMetrics writes a journal out and reads its flat metric view back
// — the exact pipeline postopc-report diff runs.
func ledgerMetrics(t *testing.T, j *Journal) map[string]float64 {
	t.Helper()
	snap := Snapshot{
		Counters: []CounterValue{{Name: "cache.hits_total", Value: 2}, {Name: "cache.misses_total", Value: 10}},
	}
	raw := ledgerBytes(t, j, snap, []SpanEvent{{Name: "flow.run", ID: 1, Dur: 5e6}})
	l, err := ReadLedger(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return l.Metrics()
}

// TestDiffFlagsInjectedRegression is the acceptance gate: a 25% uniform
// per-stage latency inflation between two otherwise identical runs must
// regress past a 20% threshold, and the identical pair must diff clean.
func TestDiffFlagsInjectedRegression(t *testing.T) {
	base := ledgerMetrics(t, testJournal(1))
	slow := ledgerMetrics(t, testJournal(5)) // 5× — far past any 20% gate
	same := ledgerMetrics(t, testJournal(1))

	opt := DiffOptions{ThresholdPct: 20}
	if d := Diff(base, same, opt); d.Regressions != 0 {
		t.Fatalf("identical ledgers regressed: %+v", d.Rows[:d.Regressions])
	}
	d := Diff(base, slow, opt)
	if d.Regressions == 0 {
		t.Fatal("5× stage latencies not flagged at a 20% threshold")
	}
	// Every stage percentile series must be among the regressions, and
	// regressions sort first.
	regressed := map[string]bool{}
	for _, r := range d.Rows[:d.Regressions] {
		if !r.Regressed {
			t.Fatal("rows not sorted regressions-first")
		}
		regressed[r.Metric] = true
	}
	for _, m := range []string{"stage.opc.p50_ns", "stage.opc.p99_ns", "stage.image.p50_ns", "stage.clip.p95_ns"} {
		if !regressed[m] {
			t.Fatalf("expected %s among regressions; got %v", m, regressed)
		}
	}
	// A modest 25% inflation must also trip a 20% gate (the literal
	// acceptance criterion).
	q := NewJournal(3)
	q.SetManifest(Manifest{Tool: "test"})
	for i := 0; i < 10; i++ {
		rec := &WindowRecord{Index: i, Kind: "window", Class: "miss"}
		rec.Observe(StageOPC, (50000+1000*int64(i))*5/4)
		q.Record(rec)
	}
	b := NewJournal(3)
	b.SetManifest(Manifest{Tool: "test"})
	for i := 0; i < 10; i++ {
		rec := &WindowRecord{Index: i, Kind: "window", Class: "miss"}
		rec.Observe(StageOPC, 50000+1000*int64(i))
		b.Record(rec)
	}
	d = Diff(ledgerMetrics(t, b), ledgerMetrics(t, q), opt)
	found := false
	for _, r := range d.Rows {
		if r.Metric == "stage.opc.p50_ns" {
			found = true
			if !r.Regressed {
				t.Fatalf("25%% opc p50 inflation not flagged at 20%%: %+v", r)
			}
		}
	}
	if !found {
		t.Fatal("stage.opc.p50_ns not compared")
	}
}

// TestDiffDirectionAndOverrides: rates regress downward, per-metric
// thresholds override the default, and the MinNS floor drops noise.
func TestDiffDirectionAndOverrides(t *testing.T) {
	base := map[string]float64{"cache.hit_rate": 0.9, "stage.opc.p50_ns": 100, "stage.tiny.p50_ns": 40}
	cur := map[string]float64{"cache.hit_rate": 0.5, "stage.opc.p50_ns": 125, "stage.tiny.p50_ns": 4000}
	d := Diff(base, cur, DiffOptions{ThresholdPct: 20, MinNS: 1000,
		PerMetric: map[string]float64{"stage.opc.p50_ns": 30}})
	byName := map[string]DiffRow{}
	for _, r := range d.Rows {
		byName[r.Metric] = r
	}
	if r, ok := byName["cache.hit_rate"]; !ok || !r.Regressed {
		t.Fatalf("hit-rate collapse not flagged: %+v", byName)
	}
	if r := byName["stage.opc.p50_ns"]; r.Regressed {
		t.Fatalf("25%% growth flagged despite 30%% per-metric threshold: %+v", r)
	}
	if _, ok := byName["stage.tiny.p50_ns"]; ok {
		t.Fatal("sub-MinNS baseline compared")
	}
}

// TestDiffRename maps a ledger series onto a bench-baseline series.
func TestDiffRename(t *testing.T) {
	base := map[string]float64{"bench.BenchmarkX.engine.ns_per_op": 1000}
	cur := map[string]float64{"stage.image.p50_ns": 5000}
	d := Diff(base, cur, DiffOptions{ThresholdPct: 50,
		Rename: map[string]string{"stage.image.p50_ns": "bench.BenchmarkX.engine.ns_per_op"}})
	if len(d.Rows) != 1 || !d.Rows[0].Regressed {
		t.Fatalf("renamed comparison missing or unflagged: %+v", d.Rows)
	}
	if !strings.Contains(d.Rows[0].Metric, "→") {
		t.Fatalf("renamed row should show the mapping: %+v", d.Rows[0])
	}
}

// TestReadBenchMetrics flattens both the flat and the nested
// (baseline/engine) BENCH_*.json result shapes.
func TestReadBenchMetrics(t *testing.T) {
	doc := `{
	  "name": "kernel", "results": [
	    {"benchmark": "BenchmarkA", "ns_per_op": 123.5, "allocs_per_op": 3},
	    {"benchmark": "BenchmarkB", "baseline": {"ns_per_op": 10}, "engine": {"ns_per_op": 2, "note": "x"}}
	  ]}`
	m, err := ReadBenchMetrics(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"bench.BenchmarkA.ns_per_op":          123.5,
		"bench.BenchmarkA.allocs_per_op":      3,
		"bench.BenchmarkB.baseline.ns_per_op": 10,
		"bench.BenchmarkB.engine.ns_per_op":   2,
	}
	for k, v := range want {
		if m[k] != v {
			t.Fatalf("metric %s: got %g want %g (all: %v)", k, m[k], v, m)
		}
	}
	if _, err := ReadBenchMetrics(strings.NewReader(`{"nope": 1}`)); err == nil {
		t.Fatal("non-bench JSON accepted")
	}
}

// TestDiffTable renders verdict rows.
func TestDiffTable(t *testing.T) {
	d := Diff(map[string]float64{"a_ns": 100}, map[string]float64{"a_ns": 300}, DiffOptions{ThresholdPct: 20})
	var buf bytes.Buffer
	d.Table().Fprint(&buf)
	if !strings.Contains(buf.String(), "REGRESSED") {
		t.Fatalf("diff table missing verdict:\n%s", buf.String())
	}
}

// TestReadLedgerRejectsGarbage: non-ledger input errors instead of
// returning an empty ledger.
func TestReadLedgerRejectsGarbage(t *testing.T) {
	if _, err := ReadLedger(strings.NewReader("not json\n")); err == nil {
		t.Fatal("invalid JSON accepted")
	}
	if _, err := ReadLedger(strings.NewReader(`{"foo": 1}`)); err == nil {
		t.Fatal("unrelated JSON accepted as a ledger")
	}
}

// TestReadLedgerOlderWindowLines: ledgers written while window lines still
// carried a "batch" key parse unchanged — the key is ignored and every
// other field of the line is kept.
func TestReadLedgerOlderWindowLines(t *testing.T) {
	const old = `{"t":"manifest","tool":"postopc-sta","go":"go1.22","goos":"linux","goarch":"amd64","gomaxprocs":2,"numcpu":2,"vek_level":"v1","cpu_features":"","module":"postopc","fields":{"flow.extract.batch":"3"}}
{"t":"window","kind":"window","i":4,"sig":"ab12","class":"miss","batch":1,"worker":1,"clip_ns":10,"canonicalize_ns":20,"opc_ns":30,"image_ns":40,"contour_ns":50,"profile_ns":60,"total_ns":210}
`
	l, err := ReadLedger(strings.NewReader(old))
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Windows) != 1 {
		t.Fatalf("got %d windows, want 1", len(l.Windows))
	}
	want := LedgerWindow{Kind: "window", Index: 4, Sig: "ab12", Class: "miss", Worker: 1,
		NS: [NumStages]int64{10, 20, 30, 40, 50, 60}, Total: 210}
	if l.Windows[0] != want {
		t.Fatalf("window line = %+v, want %+v", l.Windows[0], want)
	}
	if l.Fields["flow.extract.batch"] != "3" {
		t.Fatalf("manifest fields lost: %v", l.Fields)
	}
}
