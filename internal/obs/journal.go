package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
)

// The run ledger: a structured, deterministic per-run artifact. A Journal
// accumulates the run manifest (who ran, on what hardware, with which
// cache/worker configuration), one WindowRecord per extraction window or
// ORC tile (signature, cache classification, per-stage latencies, worker
// attribution), and — at write time — the top-K
// slowest exemplars per stage. WriteLedger renders everything, together
// with a metrics snapshot and the span trace, as JSON lines: one
// self-describing object per line, each tagged with a "t" type field, in
// a fixed section and sort order so two ledgers of the same run data are
// byte-identical.
//
// The Journal obeys the Sink contract: the nil *Journal (and the nil
// *WindowRecord) is a no-op on every method, library code only ever
// writes into it, and nothing an algorithm reads ever comes back out —
// ledger-on runs are byte-identical to ledger-off (TestRunObsDeterminism).

// StageID indexes the per-stage latency slots of a WindowRecord. The
// stages are the flow's canonical pipeline order; the ledger schema
// names them so postopc-report can diff per-stage percentiles across
// runs by name.
type StageID int

const (
	StageClip StageID = iota
	StageCanonicalize
	StageOPC
	StageImage
	StageContour
	StageProfile
	// NumStages sizes per-stage arrays.
	NumStages
)

// stageNames are the ledger-schema stage labels, indexed by StageID.
var stageNames = [NumStages]string{"clip", "canonicalize", "opc", "image", "contour", "profile"}

// String returns the ledger label of a stage ("" out of range).
func (st StageID) String() string {
	if st < 0 || st >= NumStages {
		return ""
	}
	return stageNames[st]
}

// Manifest identifies one run: the tool and its arguments, the host
// environment, and the vector-kernel build/CPU capabilities. The cli
// package fills it from the build info; flow adds run-shape fields
// (workers, corner grid, cache config, env fingerprint) through
// Journal.SetField.
type Manifest struct {
	Tool        string   `json:"tool"`
	Args        []string `json:"args,omitempty"`
	GoVersion   string   `json:"go"`
	GOOS        string   `json:"goos"`
	GOARCH      string   `json:"goarch"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	NumCPU      int      `json:"numcpu"`
	VekLevel    string   `json:"vek_level"`
	CPUFeatures string   `json:"cpu_features"`
	Module      string   `json:"module"`
}

// WindowRecord is the ledger entry of one unit of work: an extraction
// window or an ORC tile. Stage latencies are nanoseconds; a stage the
// window never executed (cache hit, wait) stays 0. Class is the cache
// classification: "compute" (no cache), "miss" (leader, computed and
// published), "hit" (served from cache), "wait" (blocked on another
// window's single-flight computation). Worker is the pool slot that ran
// the window.
type WindowRecord struct {
	Index  int
	Kind   string // "window" | "tile"
	Sig    string // hex cache signature ("" when signatures are off)
	Class  string
	Worker int
	NS     [NumStages]int64
}

// Observe accumulates ns into one stage slot. Nil-safe: instrumented
// code records unconditionally and the ledger-off path is a single
// branch.
//
//postopc:allocfree
func (r *WindowRecord) Observe(st StageID, ns int64) {
	if r == nil || st < 0 || st >= NumStages {
		return
	}
	r.NS[st] += ns
}

// Total is the sum of the stage slots.
func (r *WindowRecord) Total() int64 {
	if r == nil {
		return 0
	}
	var t int64
	for _, ns := range r.NS {
		t += ns
	}
	return t
}

// Journal accumulates the per-run ledger. Safe for concurrent use; the
// nil *Journal is a no-op on every method.
type Journal struct {
	mu       sync.Mutex
	manifest Manifest
	fields   map[string]string
	records  []WindowRecord
	topK     int
}

// NewJournal returns an empty journal keeping topK exemplars per stage
// in the written ledger (topK <= 0 selects the default of 5).
func NewJournal(topK int) *Journal {
	if topK <= 0 {
		topK = 5
	}
	return &Journal{fields: map[string]string{}, topK: topK}
}

// SetManifest replaces the run manifest.
func (j *Journal) SetManifest(m Manifest) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.manifest = m
	j.mu.Unlock()
}

// SetField records one free-form manifest field ("flow.workers" → "4").
// Re-setting a key overwrites it; the written ledger sorts keys.
func (j *Journal) SetField(key, value string) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.fields[key] = value
	j.mu.Unlock()
}

// Record appends a copy of one window record. Nil-safe on both the
// journal and the record, so callers build the record only when the
// ledger is on and hand it over unconditionally.
func (j *Journal) Record(r *WindowRecord) {
	if j == nil || r == nil {
		return
	}
	j.mu.Lock()
	j.records = append(j.records, *r)
	j.mu.Unlock()
}

// Ledger line shapes. Every line carries "t"; encoding/json emits struct
// fields in declaration order, so each shape serializes identically
// across runs of the same data.

type ledgerManifestLine struct {
	T string `json:"t"`
	Manifest
	Fields map[string]string `json:"fields,omitempty"`
}

type ledgerCounterLine struct {
	T     string `json:"t"`
	Name  string `json:"name"`
	Value uint64 `json:"v"`
}

type ledgerGaugeLine struct {
	T     string  `json:"t"`
	Name  string  `json:"name"`
	Value float64 `json:"v"`
}

type ledgerHistLine struct {
	T     string  `json:"t"`
	Name  string  `json:"name"`
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	Q50   float64 `json:"q50"`
	Q95   float64 `json:"q95"`
	Q99   float64 `json:"q99"`
}

type ledgerStageLine struct {
	T     string `json:"t"`
	Stage string `json:"stage"`
	Count int    `json:"count"`
	Total int64  `json:"total_ns"`
	P50   int64  `json:"p50_ns"`
	P95   int64  `json:"p95_ns"`
	P99   int64  `json:"p99_ns"`
	Max   int64  `json:"max_ns"`
}

type ledgerSpanLine struct {
	T     string `json:"t"`
	Name  string `json:"name"`
	Count int    `json:"count"`
	Total int64  `json:"total_ns"`
	P50   int64  `json:"p50_ns"`
	P99   int64  `json:"p99_ns"`
}

type ledgerWindowLine struct {
	T      string `json:"t"`
	Kind   string `json:"kind"`
	Index  int    `json:"i"`
	Sig    string `json:"sig,omitempty"`
	Class  string `json:"class"`
	Worker int    `json:"worker"`
	Clip   int64  `json:"clip_ns"`
	Canon  int64  `json:"canonicalize_ns"`
	OPC    int64  `json:"opc_ns"`
	Image  int64  `json:"image_ns"`
	Cont   int64  `json:"contour_ns"`
	Prof   int64  `json:"profile_ns"`
	Total  int64  `json:"total_ns"`
}

type ledgerExemplarLine struct {
	T     string `json:"t"`
	Stage string `json:"stage"`
	Rank  int    `json:"rank"`
	Kind  string `json:"kind"`
	Index int    `json:"i"`
	Sig   string `json:"sig,omitempty"`
	NS    int64  `json:"ns"`
}

// WriteLedger renders the journal, a metrics snapshot and the span trace
// as JSON lines. Section order: manifest, counters, gauges, histograms
// (bucket-interpolated q50/q95/q99), per-stage summaries with exact
// p50/p95/p99 over the raw per-window samples, per-span-name summaries,
// the window records (windows before tiles, by index), and the top-K
// slowest exemplars per stage. Every section is sorted, so the ledger is
// byte-deterministic for a given set of run data.
func (j *Journal) WriteLedger(w io.Writer, snap Snapshot, spans []SpanEvent) error {
	j.mu.Lock()
	manifest := j.manifest
	fields := make(map[string]string, len(j.fields))
	for k, v := range j.fields {
		fields[k] = v
	}
	records := append([]WindowRecord(nil), j.records...)
	topK := j.topK
	j.mu.Unlock()

	enc := json.NewEncoder(w)
	emit := func(v interface{}) error { return enc.Encode(v) }

	if err := emit(ledgerManifestLine{T: "manifest", Manifest: manifest, Fields: fields}); err != nil {
		return err
	}
	for _, c := range snap.Counters {
		if err := emit(ledgerCounterLine{T: "counter", Name: c.Name, Value: c.Value}); err != nil {
			return err
		}
	}
	for _, g := range snap.Gauges {
		if err := emit(ledgerGaugeLine{T: "gauge", Name: g.Name, Value: g.Value}); err != nil {
			return err
		}
	}
	for _, h := range snap.Histograms {
		if err := emit(ledgerHistLine{
			T: "hist", Name: h.Name, Count: h.Count, Sum: h.Sum,
			Q50: h.Quantile(0.50), Q95: h.Quantile(0.95), Q99: h.Quantile(0.99),
		}); err != nil {
			return err
		}
	}

	sort.SliceStable(records, func(a, b int) bool {
		if records[a].Kind != records[b].Kind {
			return records[a].Kind > records[b].Kind // "window" before "tile"
		}
		return records[a].Index < records[b].Index
	})

	// Exact per-stage percentiles over the raw samples: only records that
	// actually executed a stage contribute, so cache hits do not dilute
	// the compute distribution.
	for st := StageID(0); st < NumStages; st++ {
		var samples []int64
		var total, max int64
		for i := range records {
			if ns := records[i].NS[st]; ns > 0 {
				samples = append(samples, ns)
				total += ns
				if ns > max {
					max = ns
				}
			}
		}
		if len(samples) == 0 {
			continue
		}
		sort.Slice(samples, func(a, b int) bool { return samples[a] < samples[b] })
		if err := emit(ledgerStageLine{
			T: "stage", Stage: stageNames[st], Count: len(samples), Total: total,
			P50: percentileNS(samples, 0.50), P95: percentileNS(samples, 0.95),
			P99: percentileNS(samples, 0.99), Max: max,
		}); err != nil {
			return err
		}
	}

	if err := writeSpanSummaries(emit, spans); err != nil {
		return err
	}

	for i := range records {
		r := &records[i]
		if err := emit(ledgerWindowLine{
			T: "window", Kind: r.Kind, Index: r.Index, Sig: r.Sig, Class: r.Class,
			Worker: r.Worker,
			Clip:   r.NS[StageClip], Canon: r.NS[StageCanonicalize], OPC: r.NS[StageOPC],
			Image: r.NS[StageImage], Cont: r.NS[StageContour], Prof: r.NS[StageProfile],
			Total: r.Total(),
		}); err != nil {
			return err
		}
	}

	// Top-K slowest exemplars per stage, keyed by signature: the handles
	// AdaOPC-style recipe reuse and cache tuning need — *which* patterns
	// cost the most, not just how much the aggregate cost.
	for st := StageID(0); st < NumStages; st++ {
		idx := make([]int, 0, len(records))
		for i := range records {
			if records[i].NS[st] > 0 {
				idx = append(idx, i)
			}
		}
		if len(idx) == 0 {
			continue
		}
		sort.SliceStable(idx, func(a, b int) bool { return records[idx[a]].NS[st] > records[idx[b]].NS[st] })
		if len(idx) > topK {
			idx = idx[:topK]
		}
		for rank, i := range idx {
			r := &records[i]
			if err := emit(ledgerExemplarLine{
				T: "exemplar", Stage: stageNames[st], Rank: rank + 1,
				Kind: r.Kind, Index: r.Index, Sig: r.Sig, NS: r.NS[st],
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeSpanSummaries emits one "span" line per span name, sorted by name.
func writeSpanSummaries(emit func(interface{}) error, spans []SpanEvent) error {
	byName := map[string][]int64{}
	for _, ev := range spans {
		byName[ev.Name] = append(byName[ev.Name], ev.Dur)
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		durs := byName[n]
		sort.Slice(durs, func(a, b int) bool { return durs[a] < durs[b] })
		var total int64
		for _, d := range durs {
			total += d
		}
		if err := emit(ledgerSpanLine{
			T: "span", Name: n, Count: len(durs), Total: total,
			P50: percentileNS(durs, 0.50), P99: percentileNS(durs, 0.99),
		}); err != nil {
			return err
		}
	}
	return nil
}
