package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/trace"
)

// TestProbeHealthAndGenerations covers the enriched health surface: the
// probe reports per-worker generation, node/edge counts, and snapshot
// provenance; mutation batches advance the generation; an unreachable
// worker is a per-report finding rather than a probe failure.
func TestProbeHealthAndGenerations(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, 77)
	scores := testScores(300, 78)
	const parts = 2
	shards, _, err := BuildShards(g, scores, 2, parts)
	if err != nil {
		t.Fatal(err)
	}
	urls := make([]string, parts)
	servers := make([]*httptest.Server, parts)
	for i, sh := range shards {
		w := NewWorker(sh)
		if i == 0 {
			w.SetProvenance("/data/snap.lona", 7)
		}
		servers[i] = httptest.NewServer(w.Handler())
		defer servers[i].Close()
		urls[i] = servers[i].URL
	}

	transport, err := NewHTTP(context.Background(), urls, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer transport.Close()

	reports := transport.ProbeHealth(context.Background())
	if len(reports) != parts {
		t.Fatalf("probe returned %d reports, want %d", len(reports), parts)
	}
	r0 := reports[0]
	if r0.Err != nil || !r0.OK {
		t.Fatalf("healthy worker 0 reported err=%v ok=%v", r0.Err, r0.OK)
	}
	if r0.Generation != 7 || r0.Snapshot != "/data/snap.lona" {
		t.Fatalf("provenance lost: gen=%d snapshot=%q", r0.Generation, r0.Snapshot)
	}
	if r0.Nodes != 300 || r0.Edges == 0 {
		t.Fatalf("worker 0 reports nodes=%d edges=%d", r0.Nodes, r0.Edges)
	}
	if reports[1].Generation != 0 || reports[1].Snapshot != "" {
		t.Fatalf("worker 1 should boot at generation 0 with no provenance: %+v", reports[1])
	}

	// A score batch bumps every worker's generation by one.
	if err := transport.ApplyScores(context.Background(), []ScoreUpdate{{Node: 5, Score: 0.75}}); err != nil {
		t.Fatal(err)
	}
	reports = transport.ProbeHealth(context.Background())
	if reports[0].Generation != 8 || reports[1].Generation != 1 {
		t.Fatalf("score batch did not advance generations: %d, %d",
			reports[0].Generation, reports[1].Generation)
	}

	// Killing a worker turns its report into an error, not a panic or a
	// probe-wide failure.
	servers[1].Close()
	reports = transport.ProbeHealth(context.Background())
	if reports[0].Err != nil {
		t.Fatalf("surviving worker reported %v", reports[0].Err)
	}
	if reports[1].Err == nil {
		t.Fatal("dead worker probe reported no error")
	}
}

// TestTraceparentHeaders pins the W3C propagation contract: outbound
// shard hops carry a well-formed traceparent beside the native header,
// and the worker-side intake prefers the native header but falls back
// to the traceparent trace-id.
func TestTraceparentHeaders(t *testing.T) {
	id := trace.NewID()
	h := http.Header{}
	setTraceHeaders(h, id)
	if h.Get(traceHeader) != id {
		t.Fatalf("native header lost: %q", h.Get(traceHeader))
	}
	tp := h.Get(traceparentHeader)
	if ok, _ := regexp.MatchString(`^00-[0-9a-f]{32}-[0-9a-f]{16}-01$`, tp); !ok {
		t.Fatalf("malformed traceparent %q", tp)
	}
	if !strings.Contains(tp, id) {
		t.Fatalf("traceparent %q does not carry trace id %q", tp, id)
	}

	// Legacy 16-hex ids widen with zero padding.
	h = http.Header{}
	setTraceHeaders(h, "00000000deadbeef")
	if got := h.Get(traceparentHeader); !strings.HasPrefix(got, "00-000000000000000000000000deadbeef-") {
		t.Fatalf("legacy id not widened: %q", got)
	}

	// Ids that cannot widen keep only the native header.
	h = http.Header{}
	setTraceHeaders(h, "not-hex!")
	if h.Get(traceparentHeader) != "" || h.Get(traceHeader) != "not-hex!" {
		t.Fatalf("non-hex id mishandled: traceparent=%q native=%q",
			h.Get(traceparentHeader), h.Get(traceHeader))
	}

	r := httptest.NewRequest(http.MethodPost, "/v1/shard/query/stream", nil)
	r.Header.Set(traceparentHeader, "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if got := requestTraceID(r); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("traceparent fallback returned %q", got)
	}
	r.Header.Set(traceHeader, "native-id")
	if got := requestTraceID(r); got != "native-id" {
		t.Fatalf("native header not preferred: %q", got)
	}
	r2 := httptest.NewRequest(http.MethodPost, "/v1/shard/query/stream", nil)
	r2.Header.Set(traceparentHeader, "garbage")
	if got := requestTraceID(r2); got != "" {
		t.Fatalf("garbage traceparent yielded id %q", got)
	}
}
