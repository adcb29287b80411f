package server

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/otlp"
	"repro/internal/promtext"
	snapfmt "repro/internal/snapshot"
	"repro/internal/wideevent"
)

// fullServer boots a server with every optional stats section live —
// two shards, an SLO, a journal, a snapshot source and a written
// snapshot, an OTLP exporter aimed at a stub collector, and a slow-query
// threshold — then drives queries (one as_of), score batches and edge
// batches through it over HTTP. The exporter is flushed before return,
// so the server is quiescent: two scrapes in a row read the same
// counters.
func fullServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	collector := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(collector.Close)

	dir := t.TempDir()
	g := testGraph(200, 600, 91)
	seed := mustServer(t, g, testScores(200, 92), 2, Options{SkipIndexes: true})
	if _, err := seed.ApplyUpdates([]ScoreUpdate{{Node: 9, Score: 0.5}}); err != nil {
		t.Fatal(err)
	}
	bootPath := filepath.Join(dir, "boot.lona")
	if _, err := seed.WriteSnapshot(bootPath); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	reader, err := snapfmt.Open(bootPath)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reader.Close() })

	exp := otlp.NewExporter(collector.URL, otlp.ExporterOptions{})
	s := mustServer(t, reader.Graph(), reader.Scores(), reader.H(), Options{
		SkipIndexes:  true,
		Shards:       2,
		SLO:          SLO{Latency: 50 * time.Millisecond, Target: 0.9},
		SlowQuery:    time.Nanosecond,
		Logger:       slog.New(slog.NewJSONHandler(io.Discard, nil)),
		Journal:      mustJournal(t, dir),
		SnapshotPath: filepath.Join(dir, "out.lona"),
		SnapshotSource: &SnapshotSource{
			Path: reader.Path(), ModTime: reader.ModTime(), Bytes: reader.Size(),
			Generation: reader.Generation(), LoadDuration: time.Since(start),
		},
		TraceExporter: exp,
	})
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)

	for _, body := range []string{
		`{"k":3,"aggregate":"sum"}`,
		`{"k":3,"aggregate":"sum"}`, // cache hit
		`{"k":5,"aggregate":"avg","algorithm":"base"}`,
	} {
		postJSON(t, srv.URL+"/v1/topk", body)
	}
	postJSON(t, srv.URL+"/v1/scores", `{"updates":[{"node":4,"score":0.9},{"node":17,"score":0.2}]}`)
	postJSON(t, srv.URL+"/v1/edges", `{"edits":[{"op":"add-edge","u":1,"v":150},{"op":"add-node"}]}`)
	postJSON(t, srv.URL+"/v1/topk", `{"k":4,"aggregate":"sum","as_of":2}`)
	postJSON(t, srv.URL+"/v1/snapshot", `{}`)
	postJSON(t, srv.URL+"/v1/topk", `{"k":6,"aggregate":"sum"}`)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := exp.Close(ctx); err != nil {
		t.Fatal(err)
	}
	return s, srv
}

// stat is one /metrics family with the /v1/stats path of its value:
// dot-separated JSON keys, "" for histograms and labeled families.
type stat struct{ name, typ, path string }

// parentFamilies is every family renderMetrics emitted on fullServer's
// configuration before /metrics was rendered from the stats
// declarations. Renaming or dropping one breaks dashboards, alerts and
// examples/observability.
var parentFamilies = []stat{
	{"lona_asof_hits_total", "counter", "journal.as_of_hits"},
	{"lona_asof_queries_total", "counter", "journal.as_of_queries"},
	{"lona_budget_redistributed_total", "counter", "cluster.budget_redistributed"},
	{"lona_cache_bytes", "gauge", "cache.cache_bytes"},
	{"lona_cache_capacity_bytes", "gauge", "cache.cache_capacity_bytes"},
	{"lona_cache_collapsed_total", "counter", "cache.collapsed"},
	{"lona_cache_entries", "gauge", "cache.entries"},
	{"lona_cache_hits_total", "counter", "cache.hits"},
	{"lona_cache_misses_total", "counter", "cache.misses"},
	{"lona_catchup_commits_total", "counter", "journal.catchup_commits"},
	{"lona_catchups_total", "counter", "journal.catchups"},
	{"lona_cluster_messages_total", "counter", "cluster.messages"},
	{"lona_edges_added_total", "counter", "edits.edges_added"},
	{"lona_edges_removed_total", "counter", "edits.edges_removed"},
	{"lona_edit_batches_total", "counter", "edits.batches"},
	{"lona_edit_rebuilds_total", "counter", "edits.rebuilds"},
	{"lona_edit_repaired_nodes_total", "counter", "edits.repaired"},
	{"lona_engine_distributed_total", "counter", "engine.distributed"},
	{"lona_engine_evaluated_total", "counter", "engine.evaluated"},
	{"lona_engine_pruned_total", "counter", "engine.pruned"},
	{"lona_engine_visited_total", "counter", "engine.visited"},
	{"lona_generation", "gauge", "generation"},
	{"lona_grant_requests_total", "counter", "cluster.grant_requests"},
	{"lona_graph_edges", "gauge", "edges"},
	{"lona_graph_nodes", "gauge", "nodes"},
	{"lona_h", "gauge", "h"},
	{"lona_journal_appends_total", "counter", "journal.appends"},
	{"lona_journal_depth", "gauge", "journal.depth"},
	{"lona_journal_last_generation", "gauge", "journal.last_generation"},
	{"lona_journal_replayed_commits_total", "counter", "journal.replayed"},
	{"lona_lambda_primed_total", "counter", "cluster.lambda_primed"},
	{"lona_lambda_raises_per_query", "histogram", ""},
	{"lona_lambda_raises_total", "counter", "cluster.lambda_raises"},
	{"lona_latency_window_p99_seconds", "gauge", "latency_window.p99_us"},
	{"lona_latency_window_queries", "gauge", "latency_window.count"},
	{"lona_latency_window_seconds", "histogram", ""},
	{"lona_nodes_added_total", "counter", "edits.nodes_added"},
	{"lona_otlp_dropped_total", "counter", "otlp.dropped"},
	{"lona_otlp_exported_total", "counter", "otlp.exported"},
	{"lona_otlp_failed_total", "counter", "otlp.failed"},
	{"lona_otlp_queue_len", "gauge", "otlp.queue_len"},
	{"lona_otlp_sampled_out_total", "counter", "otlp.sampled_out"},
	{"lona_partial_batches_total", "counter", "cluster.partial_batches"},
	{"lona_query_cancels_total", "counter", "query_cancels"},
	{"lona_query_duration_seconds", "histogram", ""},
	{"lona_query_timeouts_total", "counter", "query_timeouts"},
	{"lona_reshards_total", "counter", "cluster.reshards"},
	{"lona_retained_generations", "gauge", "journal.retained"},
	{"lona_score_mutations_total", "counter", "mutations"},
	{"lona_shard_queries_total", "counter", "cluster.shard_queries"},
	{"lona_shard_query_duration_seconds", "histogram", ""},
	{"lona_shard_result_items", "histogram", ""},
	{"lona_shard_window_p99_seconds", "gauge", ""},
	{"lona_shard_window_queries", "gauge", ""},
	{"lona_shards", "gauge", "cluster.shards"},
	{"lona_shards_cut_total", "counter", "cluster.shards_cut"},
	{"lona_slo_burn_rate", "gauge", "slo.burn_rate"},
	{"lona_slo_objective_seconds", "gauge", "slo.latency_ms"},
	{"lona_slo_target", "gauge", "slo.target"},
	{"lona_slo_window_over", "gauge", "slo.window_over"},
	{"lona_slow_queries_total", "counter", "slow_queries"},
	{"lona_snapshot_load_seconds", "gauge", "snapshot.load_ms"},
	{"lona_snapshot_source_bytes", "gauge", "snapshot.source_bytes"},
	{"lona_snapshot_source_generation", "gauge", "snapshot.source_generation"},
	{"lona_snapshot_source_mtime_seconds", "gauge", "snapshot.source_mtime"},
	{"lona_snapshots_written_total", "counter", "snapshot.written"},
	{"lona_start_time_seconds", "gauge", "since"},
	{"lona_topology_generation", "gauge", "cluster.topology_generation"},
	{"lona_update_batches_total", "counter", "update_batches"},
	{"lona_uptime_seconds", "gauge", "uptime_s"},
}

// addedFamilies are the /v1/stats scalars /metrics used to lack.
var addedFamilies = []stat{
	{"lona_cluster_boundary_nodes", "gauge", "cluster.boundary_nodes"},
	{"lona_cluster_edge_cut", "gauge", "cluster.edge_cut"},
	{"lona_oldest_retained_generation", "gauge", "journal.oldest_retained"},
}

// exposition parses a /metrics body into its TYPE per family and the
// value of every unlabeled sample.
func exposition(t *testing.T, body []byte) (types map[string]string, samples map[string]float64) {
	t.Helper()
	if err := promtext.Validate(body); err != nil {
		t.Fatalf("malformed exposition: %v", err)
	}
	types, samples = map[string]string{}, map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 4 && f[0] == "#" && f[1] == "TYPE":
			if _, dup := types[f[2]]; dup {
				t.Errorf("family %s declared twice", f[2])
			}
			types[f[2]] = f[3]
		case len(f) == 2 && !strings.HasPrefix(f[0], "#") && !strings.Contains(f[0], "{"):
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				t.Fatalf("sample %q: %v", line, err)
			}
			samples[f[0]] = v
		}
	}
	return types, samples
}

// TestMetricsFamiliesGolden pins the /metrics family list: everything
// the parent emitted keeps its name and TYPE, and the only additions
// are the three gauges that close the gaps to /v1/stats.
func TestMetricsFamiliesGolden(t *testing.T) {
	s, _ := fullServer(t)
	types, _ := exposition(t, []byte(s.renderMetrics()))
	want := map[string]string{}
	for _, f := range parentFamilies {
		want[f.name] = f.typ
		if got, ok := types[f.name]; !ok {
			t.Errorf("family %s is gone", f.name)
		} else if got != f.typ {
			t.Errorf("family %s is a %s, was a %s", f.name, got, f.typ)
		}
	}
	for _, f := range addedFamilies {
		want[f.name] = f.typ
		if got := types[f.name]; got != f.typ {
			t.Errorf("added family %s: TYPE %q, want %q", f.name, got, f.typ)
		}
	}
	for name, typ := range types {
		if _, ok := want[name]; !ok {
			t.Errorf("unexpected new family %s", name)
		}
		if typ == "counter" && !strings.HasSuffix(name, "_total") {
			t.Errorf("counter %s does not end in _total", name)
		}
	}
}

// TestStatsMetricsParity scrapes /v1/stats and then /metrics from a
// quiescent, fully configured server and requires every unlabeled
// /metrics sample to equal its /v1/stats value: the same number, with
// *_ms and *_us values in seconds and RFC3339 times in Unix seconds.
// Uptime is the only value that moves between the two requests.
func TestStatsMetricsParity(t *testing.T) {
	_, srv := fullServer(t)
	var stats map[string]any
	if err := json.Unmarshal(scrape(t, srv.URL, "/v1/stats"), &stats); err != nil {
		t.Fatal(err)
	}
	types, samples := exposition(t, scrape(t, srv.URL, "/metrics"))

	paths := map[string]string{}
	for _, f := range append(append([]stat(nil), parentFamilies...), addedFamilies...) {
		paths[f.name] = f.path
	}
	for name, got := range samples {
		if typ := types[name]; typ != "counter" && typ != "gauge" {
			continue // a histogram's _sum or _count
		}
		path := paths[name]
		if path == "" {
			t.Errorf("scalar %s has no /v1/stats counterpart", name)
			continue
		}
		var v any = stats
		for _, key := range strings.Split(path, ".") {
			obj, _ := v.(map[string]any)
			if v = obj[key]; v == nil {
				break
			}
		}
		var want float64
		switch x := v.(type) {
		case float64:
			want = x
		case string:
			ts, err := time.Parse(time.RFC3339, x)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			want = float64(ts.Unix())
		default:
			t.Errorf("%s: /v1/stats has no number at %s (%v)", name, path, v)
			continue
		}
		switch {
		case strings.HasSuffix(path, "_ms"):
			want /= 1e3
		case strings.HasSuffix(path, "_us"):
			want /= 1e6
		}
		if name == "lona_uptime_seconds" {
			if got < want || got > want+5 {
				t.Errorf("uptime: /metrics %g after /v1/stats %g", got, want)
			}
		} else if got != want {
			t.Errorf("%s = %g, /v1/stats %s = %g", name, got, path, want)
		}
	}
	for _, f := range addedFamilies {
		if _, ok := samples[f.name]; !ok {
			t.Errorf("%s missing from /metrics", f.name)
		}
	}
}

// TestSlowBatchesNotCountedAsQueries: with every execution over the
// slow threshold, score and edge batches still escalate their wide
// events to slow=true but leave the slow-query counter to the queries.
func TestSlowBatchesNotCountedAsQueries(t *testing.T) {
	g := testGraph(150, 300, 33)
	var buf lockedBuffer
	s := mustServer(t, g, testScores(150, 34), 2, Options{
		SkipIndexes: true,
		SlowQuery:   time.Nanosecond,
		Logger:      slog.New(slog.NewJSONHandler(&buf, nil)),
	})
	if _, err := s.Run(ctx, QueryRequest{K: 3, Aggregate: "sum"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyUpdates([]ScoreUpdate{{Node: 2, Score: 0.4}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyEdits(editBatch(s.Graph())); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().SlowQueries; got != 1 {
		t.Errorf("slow_queries = %d after one slow query and two slow batches, want 1", got)
	}
	batches := 0
	for _, line := range buf.Lines() {
		if _, err := wideevent.Validate([]byte(line)); err != nil {
			t.Fatalf("invalid wide event: %v\n%s", err, line)
		}
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatal(err)
		}
		if ev["event"] == string(wideevent.EventEditBatch) {
			batches++
			if ev["slow"] != true || ev["level"] != "WARN" {
				t.Errorf("slow batch not escalated: %s", line)
			}
		}
	}
	if batches != 2 {
		t.Errorf("got %d edit_batch events, want 2", batches)
	}
}
