package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
)

// TestStreamingMatchesEngine: the streaming merge (partial batches,
// within-shard cuts) stays byte-identical to Engine.Run for every
// aggregate, algorithm, and shard count on a hub-heavy graph, and every
// run actually folds partial batches.
func TestStreamingMatchesEngine(t *testing.T) {
	const h, k = 2, 10
	g := gen.BarabasiAlbert(700, 3, 41)
	scores := testScores(g.NumNodes(), 41)
	engine, err := core.NewEngine(g, scores, h)
	if err != nil {
		t.Fatal(err)
	}
	engine.PrepareDifferentialIndex(0)
	for _, parts := range []int{1, 2, 4, 8} {
		local, err := NewLocal(g, scores, h, parts)
		if err != nil {
			t.Fatal(err)
		}
		streaming := NewCoordinator(local, Options{})
		for _, agg := range allAggregates {
			for _, algo := range append([]core.Algorithm{core.AlgoAuto}, core.Algorithms...) {
				if !supportsAgg(algo, agg) {
					continue
				}
				q := core.Query{Algorithm: algo, K: k, Aggregate: agg}
				want, err := engine.Run(context.Background(), q)
				if err != nil {
					continue // e.g. backward needs undirected; BA is undirected, so unreachable
				}
				label := fmt.Sprintf("%v/%v/parts=%d", agg, algo, parts)
				got, bd, err := streaming.RunDetailed(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				assertSameResults(t, label, got.Results, want.Results)
				if bd.PartialBatches == 0 {
					t.Fatalf("%s: streaming run folded no partial batches", label)
				}
			}
		}
	}
}

// TestBudgetRedistribution is the lost-budget-slices regression
// (pre-streaming, shards cut before launch stranded their even split of
// q.Budget): with half the shards holding zero mass and cut as soon as λ
// rises, a budgeted sharded run must still evaluate at least as many
// candidates as the single-engine run with the same budget — the cut
// shards' slices flow to the shards that still have work.
func TestBudgetRedistribution(t *testing.T) {
	// Two disconnected communities; all mass in community 0 (even ids).
	g := gen.PlantedPartition(800, 2, 0.05, 0, 9)
	scores := make([]float64, 800)
	for v := 0; v < 800; v += 2 {
		scores[v] = 0.25 + 0.75*float64(v%13)/13
	}
	engine, err := core.NewEngine(g, scores, 2)
	if err != nil {
		t.Fatal(err)
	}
	local, err := NewLocal(g, scores, 2, 4)
	if err != nil {
		t.Fatal(err)
	}

	const budget = 300
	q := core.Query{K: 10, Aggregate: core.Sum, Algorithm: core.AlgoBase, Budget: budget}
	want, err := engine.Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if want.Stats.Evaluated != budget {
		t.Fatalf("single engine evaluated %d, want the full budget %d", want.Stats.Evaluated, budget)
	}

	coord := NewCoordinator(local, Options{Parallel: 1})
	ans, bd, err := coord.RunDetailed(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if bd.ShardsCut == 0 {
		t.Fatalf("skewed topology cut no shards: %+v", bd)
	}
	if bd.BudgetRedistributed == 0 {
		t.Fatal("cut shards' budget slices were not redistributed")
	}
	if ans.Stats.Evaluated < want.Stats.Evaluated {
		t.Fatalf("sharded budgeted run evaluated %d, single engine %d — budget slices were stranded",
			ans.Stats.Evaluated, want.Stats.Evaluated)
	}
}

// gatedView injects a synthetic shard 1: a tiny merge bound, and a
// stream that reports work, emits one batch, then parks until cancelled
// — the deterministic shape of a shard that gets cut mid-query.
type gatedView struct {
	QueryView
	batchFolded chan struct{} // closed once shard 1's batch was emitted
}

func (v *gatedView) UpperBound(ctx context.Context, shard int, agg core.Aggregate) (float64, error) {
	if shard == 1 {
		return 0.001, nil // above zero (not cuttable pre-λ), below any real λ
	}
	return v.QueryView.UpperBound(ctx, shard, agg)
}

func (v *gatedView) QueryStream(ctx context.Context, shard int, q core.Query,
	ctrl *StreamControl, emit func(StreamBatch)) (core.Answer, error) {
	if shard != 1 {
		// Hold the real shard back until the synthetic shard's batch is
		// in, so the orchestration — batch folded, then λ rises, then the
		// mid-query cut lands — is deterministic under any scheduler.
		select {
		case <-v.batchFolded:
		case <-ctx.Done():
			return core.Answer{}, ctx.Err()
		}
		return v.QueryView.QueryStream(ctx, shard, q, ctrl, emit)
	}
	emit(StreamBatch{Stats: core.QueryStats{Evaluated: 7, Visited: 70}})
	close(v.batchFolded)
	<-ctx.Done()
	return core.Answer{}, ctx.Err()
}

// TestCutShardPartialStatsReported is the dropped-partial-stats
// regression: a shard cancelled mid-query used to vanish from the merged
// Answer.Stats entirely. Its last streamed batch must now be accounted.
func TestCutShardPartialStatsReported(t *testing.T) {
	g := gen.BarabasiAlbert(400, 3, 19)
	scores := testScores(400, 19)
	local, err := NewLocal(g, scores, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Priming off: with sketch-primed λ the synthetic shard (bound 0.001)
	// is cut before launch, and this regression is about a shard cut
	// *mid-query* — it must launch and stream its batch first.
	coord := NewCoordinator(local, Options{Parallel: 2, DisablePriming: true})
	view := &gatedView{QueryView: local.Snapshot(), batchFolded: make(chan struct{})}

	q := core.Query{K: 5, Aggregate: core.Sum, Algorithm: core.AlgoBase}
	ans, bd, err := coord.RunOn(context.Background(), view, q)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-view.batchFolded:
	default:
		t.Fatal("shard 1 never streamed its batch")
	}
	if bd.ShardsCut != 1 {
		t.Fatalf("ShardsCut = %d, want 1 (%+v)", bd.ShardsCut, bd)
	}
	r1 := bd.PerShard[1]
	if !r1.Cut || !r1.Launched {
		t.Fatalf("shard 1 report %+v, want a launched mid-query cut", r1)
	}
	if r1.Evaluated != 7 {
		t.Fatalf("shard 1 reported %d evaluated, want its partial 7", r1.Evaluated)
	}
	// The merged stats carry both the surviving shard's full work and the
	// cut shard's partial work.
	if ans.Stats.Evaluated != bd.PerShard[0].Evaluated+7 {
		t.Fatalf("merged Evaluated = %d, want %d (shard 0) + 7 (cut shard 1's partials)",
			ans.Stats.Evaluated, bd.PerShard[0].Evaluated)
	}
	if ans.Stats.Visited < 70 {
		t.Fatalf("merged Visited = %d lost the cut shard's 70", ans.Stats.Visited)
	}
}

// fakeStreamWorker serves /v1/shard/health plus a scripted
// /v1/shard/query/stream, for protocol-violation tests.
func fakeStreamWorker(t *testing.T, nodes int, stream http.HandlerFunc) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/shard/health", func(rw http.ResponseWriter, r *http.Request) {
		writeJSON(rw, http.StatusOK, wireHealth{OK: true, Shard: 0, Shards: 1, Nodes: nodes, Owned: nodes, H: 2})
	})
	mux.HandleFunc("/v1/shard/query/stream", stream)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv.URL
}

// streamFrames decodes the query then emits raw frames, flushed. Like
// the real handler it opts into full duplex — without it the HTTP/1.1
// server would drain the client's never-ending ack stream before the
// first response write.
func streamFrames(rw http.ResponseWriter, r *http.Request, frames ...string) {
	rc := http.NewResponseController(rw)
	_ = rc.EnableFullDuplex()
	dec := json.NewDecoder(r.Body)
	var wq wireQuery
	_ = dec.Decode(&wq)
	rw.Header().Set("Content-Type", "application/x-ndjson")
	rw.WriteHeader(http.StatusOK)
	for _, f := range frames {
		_, _ = rw.Write([]byte(f + "\n"))
	}
	_ = rc.Flush()
}

// drainBody blocks until the client closes its ack stream, like the real
// worker handler's request lifetime.
func drainBody(r *http.Request) {
	buf := make([]byte, 1024)
	for {
		if _, err := r.Body.Read(buf); err != nil {
			return
		}
	}
}

// TestStreamOutOfOrderSeqRejected: a gap in the frame sequence numbers
// means certified results may have been lost; the transport must refuse
// to keep merging.
func TestStreamOutOfOrderSeqRejected(t *testing.T) {
	url := fakeStreamWorker(t, 100, func(rw http.ResponseWriter, r *http.Request) {
		streamFrames(rw, r,
			`{"seq":1,"stats":{"evaluated":1,"pruned":0,"distributed":0,"visited":1}}`,
			`{"seq":3,"stats":{"evaluated":2,"pruned":0,"distributed":0,"visited":2}}`,
			`{"seq":4,"final":true,"items":[],"stats":{"evaluated":2,"pruned":0,"distributed":0,"visited":2}}`)
		drainBody(r)
	})
	tr, err := NewHTTP(context.Background(), []string{url}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err = tr.QueryStream(ctx, 0, core.Query{K: 5, Aggregate: core.Sum}, &StreamControl{}, func(StreamBatch) {})
	if err == nil || !strings.Contains(err.Error(), "out of order") {
		t.Fatalf("err = %v, want an out-of-order rejection", err)
	}
}

// killAfterFirstFrame writes a valid 200 + one NDJSON frame by hand over
// the hijacked connection, then slams it shut — a worker process dying
// mid-stream, with no terminal chunk and no final frame.
func killAfterFirstFrame(rw http.ResponseWriter, r *http.Request) {
	frame := `{"seq":1,"stats":{"evaluated":3,"pruned":0,"distributed":0,"visited":3}}` + "\n"
	conn, buf, err := rw.(http.Hijacker).Hijack()
	if err != nil {
		panic(err)
	}
	defer conn.Close()
	fmt.Fprintf(buf, "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\n\r\n")
	fmt.Fprintf(buf, "%x\r\n%s\r\n", len(frame), frame)
	buf.Flush()
}

// TestStreamWorkerDiesMidStream: a worker whose connection dies before
// the final frame must surface a transport error promptly — at both the
// transport and the coordinator level — never hang the merge.
func TestStreamWorkerDiesMidStream(t *testing.T) {
	url := fakeStreamWorker(t, 100, killAfterFirstFrame)
	tr, err := NewHTTP(context.Background(), []string{url}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var folded int
	_, err = tr.QueryStream(ctx, 0, core.Query{K: 5, Aggregate: core.Sum}, &StreamControl{},
		func(StreamBatch) { folded++ })
	if err == nil || ctx.Err() != nil {
		t.Fatalf("err = %v (ctx %v), want a prompt stream-death error", err, ctx.Err())
	}
	if folded != 1 {
		t.Fatalf("folded %d batches before the death, want 1", folded)
	}

	// Coordinator level: one real worker, one that dies mid-stream. The
	// merge aborts with the transport error and terminates.
	g := gen.BarabasiAlbert(300, 3, 47)
	scores := testScores(300, 47)
	shards, _, err := BuildShards(g, scores, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	healthy := httptest.NewServer(NewWorker(shards[0]).Handler())
	t.Cleanup(healthy.Close)
	dying := httptest.NewServer(&midStreamKiller{inner: NewWorker(shards[1]).Handler()})
	t.Cleanup(dying.Close)
	tr2, err := NewHTTP(context.Background(), []string{healthy.URL, dying.URL}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tr2.Close()
	coord := NewCoordinator(tr2, Options{})
	cctx, ccancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer ccancel()
	if _, err := coord.Run(cctx, core.Query{K: 10, Aggregate: core.Sum, Algorithm: core.AlgoBase}); err == nil {
		t.Fatal("coordinator merged past a worker that died mid-stream")
	}
	if cctx.Err() != nil {
		t.Fatal("coordinator hung on the dying worker")
	}
}

// midStreamKiller proxies a real worker but aborts the stream response
// after its first frame.
type midStreamKiller struct{ inner http.Handler }

func (k *midStreamKiller) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/v1/shard/query/stream" {
		k.inner.ServeHTTP(rw, r)
		return
	}
	killAfterFirstFrame(rw, r)
}

// TestStreamClientCancelMidStream: cancelling the caller context between
// frames tears the stream down promptly with context.Canceled, leaving
// no goroutine blocked on the open request body (the race detector and
// test timeout police the leak).
func TestStreamClientCancelMidStream(t *testing.T) {
	// Heavy enough (h=3 BFS per evaluation) that the shard query spans
	// many batches, so the cancel lands well before the final frame.
	g := gen.Collaboration(gen.DatasetScale(0.1), 53)
	scores := testScores(g.NumNodes(), 53)
	urls, _ := startWorkers(t, g, scores, 3, 2)
	tr, err := NewHTTP(context.Background(), urls, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	_, err = tr.QueryStream(ctx, 0, core.Query{K: 10, Aggregate: core.Sum, Algorithm: core.AlgoBase},
		&StreamControl{}, func(StreamBatch) { once.Do(cancel) })
	if err == nil {
		t.Fatal("cancelled stream reported success")
	}
	if err != context.Canceled {
		// The read may fail with the transport's wrapped error before the
		// context check lands; either way the context must be the cause.
		if ctx.Err() == nil {
			t.Fatalf("stream failed for a non-cancellation reason: %v", err)
		}
	}
}
