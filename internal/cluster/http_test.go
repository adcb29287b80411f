package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// startWorkers builds the shards of (g, scores, h, parts) and serves each
// behind its own httptest server — P worker processes in miniature.
func startWorkers(t *testing.T, g *graph.Graph, scores []float64, h, parts int) ([]string, []*Worker) {
	t.Helper()
	shards, _, err := BuildShards(g, scores, h, parts)
	if err != nil {
		t.Fatal(err)
	}
	urls := make([]string, parts)
	workers := make([]*Worker, parts)
	for i, s := range shards {
		w := NewWorker(s)
		srv := httptest.NewServer(w.Handler())
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
		workers[i] = w
	}
	return urls, workers
}

// TestHTTPMatchesEngine runs the byte-identical property through the full
// HTTP stack: JSON round-trips must not perturb float64 values.
func TestHTTPMatchesEngine(t *testing.T) {
	g := gen.BarabasiAlbert(500, 3, 21)
	scores := testScores(500, 47)
	engine, err := core.NewEngine(g, scores, 2)
	if err != nil {
		t.Fatal(err)
	}
	urls, _ := startWorkers(t, g, scores, 2, 4)
	transport, err := NewHTTP(context.Background(), urls, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer transport.Close()
	if transport.Nodes() != 500 || transport.Shards() != 4 {
		t.Fatalf("transport sees %d nodes / %d shards", transport.Nodes(), transport.Shards())
	}
	coord := NewCoordinator(transport, Options{})

	for _, agg := range allAggregates {
		for _, algo := range []core.Algorithm{core.AlgoAuto, core.AlgoBase, core.AlgoBackwardNaive} {
			if !supportsAgg(algo, agg) {
				continue
			}
			q := core.Query{Algorithm: algo, K: 15, Aggregate: agg}
			want, err := engine.Run(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := coord.Run(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResults(t, "http "+agg.String()+"/"+algo.String(), got.Results, want.Results)
			if algo == core.AlgoAuto && got.Plan == nil {
				t.Fatalf("auto query over HTTP lost its plan")
			}
		}
	}

	// Candidates and budget survive the wire.
	q := core.Query{K: 5, Aggregate: core.Sum, Algorithm: core.AlgoBase, Candidates: []int{1, 9, 250, 499}}
	want, err := engine.Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := coord.Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "http candidates", got.Results, want.Results)
	tiny, err := coord.Run(context.Background(), core.Query{K: 5, Aggregate: core.Sum, Algorithm: core.AlgoBase, Budget: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !tiny.Truncated {
		t.Fatal("budgeted HTTP query did not report truncation")
	}
}

// TestHTTPApplyScores checks the update fan-out: after a batch the
// HTTP-backed coordinator matches a fresh engine over the new vector.
func TestHTTPApplyScores(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, 33)
	scores := testScores(300, 51)
	urls, _ := startWorkers(t, g, scores, 2, 4)
	transport, err := NewHTTP(context.Background(), urls, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer transport.Close()
	coord := NewCoordinator(transport, Options{})

	updated := append([]float64(nil), scores...)
	batch := []ScoreUpdate{{Node: 7, Score: 1}, {Node: 250, Score: 0}, {Node: 100, Score: 0.5}}
	for _, u := range batch {
		updated[u.Node] = u.Score
	}
	if err := transport.ApplyScores(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	engine, err := core.NewEngine(g, updated, 2)
	if err != nil {
		t.Fatal(err)
	}
	q := core.Query{K: 10, Aggregate: core.Sum, Algorithm: core.AlgoBase}
	want, err := engine.Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := coord.Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "http post-update", got.Results, want.Results)

	if err := transport.ApplyScores(context.Background(), []ScoreUpdate{{Node: -1, Score: 0}}); err == nil {
		t.Fatal("invalid update accepted by fan-out")
	}
}

// TestHTTPDialValidation checks the fail-fast topology probes.
func TestHTTPDialValidation(t *testing.T) {
	g := gen.BarabasiAlbert(200, 2, 3)
	scores := testScores(200, 3)
	urls, _ := startWorkers(t, g, scores, 2, 3)

	// Out-of-order worker list: shard indexes do not match positions.
	if _, err := NewHTTP(context.Background(), []string{urls[1], urls[0], urls[2]}, nil); err == nil {
		t.Fatal("out-of-order worker list accepted")
	}
	// Partial worker list: topology says 3 shards, dialing 2.
	if _, err := NewHTTP(context.Background(), urls[:2], nil); err == nil {
		t.Fatal("partial worker list accepted")
	}
	// Unreachable worker.
	if _, err := NewHTTP(context.Background(), []string{"http://127.0.0.1:1"}, nil); err == nil {
		t.Fatal("unreachable worker accepted")
	}
	// A worker from a different dataset.
	other := gen.BarabasiAlbert(150, 2, 4)
	otherURLs, _ := startWorkers(t, other, testScores(150, 4), 2, 3)
	if _, err := NewHTTP(context.Background(), []string{urls[0], otherURLs[1], urls[2]}, nil); err == nil {
		t.Fatal("mixed-dataset worker list accepted")
	}
	// The well-formed list dials fine.
	tr, err := NewHTTP(context.Background(), urls, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr.Close()
}

// TestWorkerHandlerErrors checks the worker's HTTP error surface.
func TestWorkerHandlerErrors(t *testing.T) {
	g := gen.BarabasiAlbert(100, 2, 5)
	urls, _ := startWorkers(t, g, testScores(100, 5), 2, 1)
	transport, err := NewHTTP(context.Background(), urls, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer transport.Close()

	// Invalid queries surface the worker's message, not a decode error,
	// and fail before the worker streams any batch.
	for _, c := range []struct {
		q    core.Query
		want string
	}{
		{core.Query{K: 0, Aggregate: core.Sum}, "k must be positive"},
		{core.Query{K: 5, Aggregate: core.Max, Algorithm: core.AlgoForward}, "does not support MAX"},
	} {
		batches := 0
		_, err := transport.QueryStream(context.Background(), 0, c.q, &StreamControl{}, func(StreamBatch) { batches++ })
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%+v: err = %v, want the worker's %q", c.q, err, c.want)
		}
		if batches != 0 {
			t.Fatalf("%+v: worker streamed %d batches before failing", c.q, batches)
		}
	}
	if _, err := transport.UpperBound(context.Background(), 0, core.Aggregate(77)); err == nil {
		t.Fatal("unknown aggregate bound accepted by worker")
	}
}

// TestWholeShardRouteGone: shard queries are served only as streams; the
// whole-answer route no longer exists.
func TestWholeShardRouteGone(t *testing.T) {
	g := gen.BarabasiAlbert(100, 2, 5)
	shards, _, err := BuildShards(g, testScores(100, 5), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	rw := httptest.NewRecorder()
	body := strings.NewReader(`{"k":5,"aggregate":"sum"}`)
	NewWorker(shards[0]).Handler().ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/v1/shard/query", body))
	if rw.Code != http.StatusNotFound {
		t.Fatalf("POST /v1/shard/query answered %d, want 404", rw.Code)
	}
}
