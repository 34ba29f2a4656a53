package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// bound is how far a metric may worsen, as a share of the base median.
type bound struct {
	share  float64
	better string // "lower" or "higher"
}

// regression is a metric whose head median is worse than the base median
// by more than its bound.
type regression struct {
	workload, metric string
	base, head       float64
	change           float64 // signed share of the base median
}

func (g regression) String() string {
	return fmt.Sprintf("%s %s: %.4g -> %.4g (%+.1f%%)", g.workload, g.metric, g.base, g.head, 100*g.change)
}

// value finds a metric in a result: its reported metrics first, then the
// end-to-end metrics of a traced run's untraced iterations.
func (r *result) value(name string) (float64, bool) {
	if m, ok := r.Metrics[name]; ok {
		return m.Value, true
	}
	m, ok := r.Plain[name]
	return m.Value, ok
}

// compare checks head against base, workload by workload, for every bounded
// metric both sides report. It refuses results whose host fingerprints
// differ: numbers from different hosts or builds are never compared.
func compare(base, head []*result, bounds map[string]bound) ([]regression, error) {
	all := append(append([]*result(nil), base...), head...)
	if len(base) == 0 || len(head) == 0 {
		return nil, fmt.Errorf("compare needs results on both sides")
	}
	for _, r := range all[1:] {
		if r.Host != all[0].Host {
			return nil, fmt.Errorf("host fingerprints differ: %+v vs %+v", all[0].Host, r.Host)
		}
	}
	byWorkload := func(rs []*result) map[string][]*result {
		m := map[string][]*result{}
		for _, r := range rs {
			m[r.Workload] = append(m[r.Workload], r)
		}
		return m
	}
	bw, hw := byWorkload(base), byWorkload(head)
	var workloads, metrics []string
	for w := range bw {
		workloads = append(workloads, w)
	}
	for name := range bounds {
		metrics = append(metrics, name)
	}
	sort.Strings(workloads)
	sort.Strings(metrics)
	var out []regression
	for _, w := range workloads {
		for _, name := range metrics {
			b, okb := medianOf(bw[w], name)
			h, okh := medianOf(hw[w], name)
			if !okb || !okh || b == 0 {
				continue
			}
			change := (h - b) / b
			worse := change
			if bounds[name].better == "higher" {
				worse = -change
			}
			if worse > bounds[name].share {
				out = append(out, regression{w, name, b, h, change})
			}
		}
	}
	return out, nil
}

func medianOf(rs []*result, name string) (float64, bool) {
	var vs []float64
	for _, r := range rs {
		if v, ok := r.value(name); ok {
			vs = append(vs, v)
		}
	}
	return median(vs), len(vs) > 0
}

// readResults reads the "result" detail lines the benchmark prints.
func readResults(path string) ([]*result, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	var out []*result
	sc := bufio.NewScanner(fh)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), "result ")
		if !ok {
			continue
		}
		var r result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, &r)
	}
	return out, sc.Err()
}

// readBounds reads the end-to-end bounds from BENCHMARK.json.
func readBounds(path string) (map[string]bound, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b struct {
		EndToEnd []struct {
			Name   string  `json:"name"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]bound{}
	for _, m := range b.EndToEnd {
		out[m.Name] = bound{m.Bound, m.Better}
	}
	return out, nil
}

// runCompare implements -compare base,head: it prints every regression of
// head against base and returns false if there is one.
func runCompare(w io.Writer, files, benchmarkJSON string) (bool, error) {
	basePath, headPath, ok := strings.Cut(files, ",")
	if !ok {
		return false, fmt.Errorf("-compare wants base,head")
	}
	bounds, err := readBounds(benchmarkJSON)
	if err != nil {
		return false, err
	}
	base, err := readResults(basePath)
	if err != nil {
		return false, err
	}
	head, err := readResults(headPath)
	if err != nil {
		return false, err
	}
	regs, err := compare(base, head, bounds)
	if err != nil {
		return false, err
	}
	for _, g := range regs {
		fmt.Fprintln(w, "regression:", g)
	}
	return len(regs) == 0, nil
}
