package server

import (
	"fmt"
	"net/http"
	"reflect"
	"sort"
	"strconv"
	"strings"
)

// This file renders GET /metrics: the server's counters and histograms
// in Prometheus text exposition format (version 0.0.4), hand-rolled so
// the module stays dependency-free. Scalars come from one Stats value —
// the same read /v1/stats serves — and histograms from the same
// latencyHist buckets /v1/stats summarizes: log2 buckets, so bucket i's
// inclusive upper bound is 2^i−1 (exact for the integer observations the
// histogram stores).

// handleMetrics serves the Prometheus scrape endpoint.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(s.renderMetrics()))
}

// renderMetrics builds the full exposition body: every prom-tagged
// scalar of one Stats read, then the histogram families.
func (s *Server) renderMetrics() string {
	st := s.Stats()
	var b strings.Builder
	b.Grow(8 << 10)
	writeScalars(&b, reflect.ValueOf(st))

	// Per-algorithm query latency: one histogram family, algorithm label.
	m := s.metrics
	m.mu.RLock()
	algos := make([]string, 0, len(m.hists))
	for label := range m.hists {
		algos = append(algos, label)
	}
	sort.Strings(algos)
	series := make([]histSeries, len(algos))
	for i, label := range algos {
		series[i] = histSeries{`algorithm="` + labelEscaper.Replace(label) + `",`, m.hists[label].load()}
	}
	m.mu.RUnlock()
	writeHistFamily(&b, "lona_query_duration_seconds", "Query execution latency by algorithm.", 1e-6, series...)

	// The rolling window: the same log2 buckets, but decaying — old
	// traffic ages out in 10s slots over a 120s window, so this answers
	// "right now" where the cumulative families answer "since boot".
	// Rendered with the histogram text shape so existing bucket tooling
	// works, though semantically it is a gauge.
	writeHistFamily(&b, "lona_latency_window_seconds",
		"Query latency over the rolling 120s window (decays, unlike the cumulative per-algorithm histogram).",
		1e-6, histSeries{"", st.window})

	if cl := st.cl; cl != nil {
		// Per-shard query latency: the histograms /v1/stats summarizes as
		// p50/p99, exported whole so a scraper can aggregate its own way.
		series = make([]histSeries, len(cl.hists))
		for i, h := range cl.hists {
			series[i] = histSeries{fmt.Sprintf("shard=\"%d\",", i), h.load()}
		}
		writeHistFamily(&b, "lona_shard_query_duration_seconds", "Per-shard query latency within fan-outs.",
			1e-6, series...)
		writeHistFamily(&b, "lona_lambda_raises_per_query", "Lambda tightenings per sharded query.",
			1, histSeries{"", m.lambdaPerQuery.load()})
		writeHistFamily(&b, "lona_shard_result_items", "Result items shipped per launched shard query (message size).",
			1, histSeries{"", m.shardItems.load()})

		// Per-shard rolling-window gauges, beside the cumulative
		// per-shard histograms: which shard degraded in the last minute.
		queries := make([]string, len(cl.windows))
		p99s := make([]string, len(cl.windows))
		for i, wh := range cl.windows {
			ws := wh.snapshot()
			queries[i] = strconv.FormatInt(ws.count, 10)
			p99s[i] = formatValue(ws.quantile(0.99) * 1e-6)
		}
		writeShardGauges(&b, "lona_shard_window_queries", "Shard queries observed in the rolling 120s window.", queries)
		writeShardGauges(&b, "lona_shard_window_p99_seconds", "Bucket-bound p99 shard latency over the rolling window.", p99s)
	}
	return b.String()
}

// writeScalars renders every prom-tagged field reachable from the struct
// v, in declaration order. Untagged struct fields and non-nil pointers
// to structs are walked into; a nil pointer is an absent stats section
// and renders nothing. Maps and slices are left to the histogram
// families.
func writeScalars(b *strings.Builder, v reflect.Value) {
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f, fv := t.Field(i), v.Field(i)
		if !f.IsExported() {
			continue
		}
		if tag, ok := f.Tag.Lookup("prom"); ok {
			name, rest, _ := strings.Cut(tag, ",")
			typ, help, _ := strings.Cut(rest, ",")
			key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			writeHeader(b, name, help, typ)
			fmt.Fprintf(b, "%s %s\n", name, sampleValue(fv, key))
			continue
		}
		if fv.Kind() == reflect.Pointer && !fv.IsNil() {
			fv = fv.Elem()
		}
		if fv.Kind() == reflect.Struct {
			writeScalars(b, fv)
		}
	}
}

// sampleValue formats one scalar field. Integers render exactly; a float
// whose JSON key ends in _ms or _us is converted to seconds, the unit
// its family name ends in.
func sampleValue(v reflect.Value, jsonKey string) string {
	switch {
	case v.CanInt():
		return strconv.FormatInt(v.Int(), 10)
	case v.CanUint():
		return strconv.FormatUint(v.Uint(), 10)
	case strings.HasSuffix(jsonKey, "_ms"):
		return formatValue(v.Float() / 1e3)
	case strings.HasSuffix(jsonKey, "_us"):
		return formatValue(v.Float() / 1e6)
	}
	return formatValue(v.Float())
}

// writeHeader emits a family's HELP/TYPE pair.
func writeHeader(b *strings.Builder, name, help, typ string) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// histSeries is one series of a histogram family: its labels ("" or
// `key="value",`, ending with ',') and its counts.
type histSeries struct {
	labels string
	c      histCounts
}

// writeHistFamily renders a histogram family. Bucket i holds integer
// observations v with bits.Len64(v) == i, so its inclusive upper bound
// is 2^i−1; scale maps the stored integers to the exported unit (1e-6
// for µs → seconds, 1 for unitless value histograms). The counts were
// read once each, so the cumulative buckets are monotone and +Inf equals
// _count even when the read raced observations.
func writeHistFamily(b *strings.Builder, name, help string, scale float64, series ...histSeries) {
	writeHeader(b, name, help, "histogram")
	for _, sr := range series {
		hi := 0
		for i := range sr.c.buckets {
			if sr.c.buckets[i] != 0 {
				hi = i
			}
		}
		var cum int64
		for i := 0; i <= hi; i++ {
			cum += sr.c.buckets[i]
			le := float64(uint64(1)<<uint(i)-1) * scale
			fmt.Fprintf(b, "%s_bucket{%sle=%q} %d\n", name, sr.labels, formatValue(le), cum)
		}
		fmt.Fprintf(b, "%s_bucket{%sle=\"+Inf\"} %d\n", name, sr.labels, cum)
		suffix := ""
		if trimmed := strings.TrimSuffix(sr.labels, ","); trimmed != "" {
			suffix = "{" + trimmed + "}"
		}
		fmt.Fprintf(b, "%s_sum%s %s\n", name, suffix, formatValue(float64(sr.c.sum)*scale))
		fmt.Fprintf(b, "%s_count%s %d\n", name, suffix, cum)
	}
}

// writeShardGauges renders a gauge family with one shard-labeled sample
// per value.
func writeShardGauges(b *strings.Builder, name, help string, vals []string) {
	writeHeader(b, name, help, "gauge")
	for i, v := range vals {
		fmt.Fprintf(b, "%s{shard=\"%d\"} %s\n", name, i, v)
	}
}

// formatValue renders a float the way Prometheus expects: Go's shortest
// round-trip representation parses back exactly with strconv.ParseFloat.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelEscaper escapes a label value per the exposition format.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
