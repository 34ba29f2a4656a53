package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Prometheus text-format export of a registry snapshot. Dotted internal
// names map to "postopc_"-prefixed underscore series ("cache.hits_total"
// -> "postopc_cache_hits_total"); histograms render as native Prometheus
// histograms (cumulative "le" buckets plus _sum and _count). Snapshot
// order is sorted by name, so the export is deterministic for a given set
// of metric values.

// promName sanitizes an internal metric name into a Prometheus series
// name.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("postopc_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus renders the snapshot in Prometheus text exposition
// format. The export opens with a constant postopc_build_info gauge
// (the usual build-identity idiom: value 1, identity in the labels) so
// every scrape names the toolchain, GOAMD64 build level and the detected
// CPU features — which select the vek kernel path — that produced the
// numbers.
func WritePrometheus(w io.Writer, s Snapshot) error {
	bi := GetBuildInfo()
	if _, err := fmt.Fprintf(w,
		"# TYPE postopc_build_info gauge\npostopc_build_info{go=%q,goos=%q,goarch=%q,goamd64=%q,cpu=%q,module=%q} 1\n",
		bi.GoVersion, bi.GOOS, bi.GOARCH, bi.VekLevel, bi.CPUFeatures, bi.Module); err != nil {
		return err
	}
	for _, c := range s.Counters {
		n := promName(c.Name)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", n, n, c.Value); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		n := promName(g.Name)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", n, n, formatFloat(g.Value)); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		n := promName(h.Name)
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", n); err != nil {
			return err
		}
		var cum uint64
		for i, bound := range h.Bounds {
			cum += h.Counts[i]
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", n, formatFloat(bound), cum); err != nil {
				return err
			}
		}
		cum += h.Counts[len(h.Bounds)]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
			n, cum, n, formatFloat(h.Sum), n, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// formatFloat renders a float the shortest round-trippable way, matching
// Prometheus conventions (no trailing zeros).
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
