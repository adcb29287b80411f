package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/trace"
)

// The HTTP transport speaks a small JSON protocol to lonad worker
// processes (cmd/lonad -shard-worker), one shard per worker:
//
//	POST /v1/shard/query/stream
//	                      — execute a shard-local query (global node ids),
//	                        streaming partial top-k batches back as
//	                        NDJSON frames; the request body stays open
//	                        and carries λ acks downstream (see the
//	                        protocol notes below)
//	GET  /v1/shard/bound  — the shard's merge bound for ?aggregate=
//	POST /v1/shard/scores — apply a relevance update batch to the shard
//	POST /v1/shard/edits  — apply a structural edit batch; the worker
//	                        re-derives its full graph, extends the shared
//	                        partitioning, and rebuilds its shard when its
//	                        h-hop closure is affected
//	GET  /v1/shard/health — shard identity and shape, probed at dial time
//
// Queries carry the caller's context: cancelling the request (a TA cut, a
// client disconnect, a deadline) cancels the worker-side engine query
// cooperatively, exactly as in-process execution would.
//
// # Streaming protocol
//
// /v1/shard/query/stream is a full-duplex exchange over one request:
//
//	client → worker (request body, NDJSON):
//	  {"k":...,"aggregate":...}        the query, first
//	  {"ack":1,"floor":0.71,
//	   "granted":64,"answered":64}     one ack per received frame; floor
//	                                   is the coordinator's current λ, and
//	                                   granted/answered are the cumulative
//	                                   budget-grant counters (see below)
//	client ← worker (response body, NDJSON):
//	  {"seq":1,"items":[...],"stats":{...}}   partial batch: results newly
//	                                          certified, cumulative stats
//	  {"seq":2,"need":64}                     budget grant request: the
//	                                          cumulative budget this worker
//	                                          has asked for (no items; the
//	                                          coordinator answers on the ack)
//	  {"seq":N,"final":true,"items":[...],"stats":{...},...}
//	                                          summary frame: final results,
//	                                          total stats, truncation, plan
//
// Two request headers extend the exchange without touching the strictly
// decoded query document (absent headers mean legacy behavior, so old
// and new coordinators/workers interoperate): X-Lona-Floor carries the
// coordinator's launch-time λ — sketch-primed, possibly already raised —
// so the worker starts pruning warm; X-Lona-Grants advertises that the
// coordinator answers budget grant requests, without which a worker
// never sends need frames (it would block forever against a legacy
// coordinator).
//
// Frames are sequence-numbered from 1 with no gaps; the transport rejects
// out-of-order frames. Acks are coalesced, never dropped: the writer
// always sends the latest state, replacing any ack still waiting for the
// pipe, so a worker runs on a stale floor for at most one write. All ack
// fields are cumulative/monotone, which is what makes latest-wins
// lossless. A worker that never receives an ack simply keeps its last λ
// (every λ is admissible, so staleness costs work, never correctness).
// Budget grants ride the same channel: when a budgeted worker's slice
// runs dry it raises its cumulative "need" in a dedicated frame and
// blocks; the coordinator serves the delta from the shared
// redistribution pool — including budget refunded by cut shards — and
// answers with cumulative granted/answered counters. An answer that
// grants nothing new means the pool was dry (the same instantaneous
// semantics an in-process TakeBudget sees) and the worker truncates.
// Failure semantics: cancelling the request kills the
// worker-side query cooperatively (a TA cut or client disconnect) and
// unblocks any pending grant wait; a
// connection that dies before the final frame surfaces as a transport
// error to the coordinator, which aborts the merge — partial batches
// already folded never corrupt it, because every streamed item is an
// exact (or lower-bound, under budget truncation) value.

// wireQuery is the query document opening a /v1/shard/query/stream
// request — core.Query flattened into the same names /v1/topk uses, with
// candidates in global ids and the budget already split by the
// coordinator.
type wireQuery struct {
	Algorithm  string  `json:"algorithm,omitempty"` // "" or "auto" = planner
	K          int     `json:"k"`
	Aggregate  string  `json:"aggregate"`
	Gamma      float64 `json:"gamma,omitempty"`
	Order      string  `json:"order,omitempty"`
	Workers    int     `json:"workers,omitempty"`
	Candidates []int   `json:"candidates,omitempty"`
	Budget     int     `json:"budget,omitempty"`
	// Trace asks the worker to record its side of the query's trace and
	// ship the events back on the final summary frame. The trace id
	// itself travels in the X-Lona-Trace request header.
	Trace bool `json:"trace,omitempty"`
}

// traceHeader carries the coordinator's trace id to workers, so the
// worker-side events join the same logical trace.
const traceHeader = "X-Lona-Trace"

// floorHeader carries the coordinator's launch-time merge threshold λ on
// stream requests: the sketch-primed floor, possibly already raised by
// batches folded before this shard launched. A header rather than a
// query-document field so legacy workers (which decode the query
// strictly) ignore it instead of rejecting the request.
const floorHeader = "X-Lona-Floor"

// grantsHeader ("1") advertises that the coordinator answers
// demand-driven budget grant requests on the stream's ack channel.
// Workers must never block on a grant a legacy coordinator will never
// answer, so the capability is opt-in per request.
const grantsHeader = "X-Lona-Grants"

// traceparentHeader is the W3C trace-context header set alongside
// traceHeader on every shard hop, so off-the-shelf HTTP middleware and
// OTLP backends see the same trace id the lona-native header names.
const traceparentHeader = "traceparent"

// setTraceHeaders stamps both trace headers on an outbound shard
// request. The traceparent parent-id is a fresh random span id — the
// OTLP exporter synthesizes its own span tree from the recorded
// timeline, so the id only needs to be well-formed, not resolvable.
// Ids that cannot be widened to traceparent's 32-lower-hex trace-id
// (caller-chosen non-hex ids) keep only the lona-native header.
func setTraceHeaders(h http.Header, id string) {
	h.Set(traceHeader, id)
	if id == "" || len(id) > 32 || !isLowerHex(id) {
		return
	}
	h.Set(traceparentHeader,
		"00-"+strings.Repeat("0", 32-len(id))+id+"-"+trace.NewID()[:16]+"-01")
}

// requestTraceID extracts the inbound trace id: the lona-native header
// when present, else the trace-id field of a W3C traceparent, so
// queries arriving through generic tracing middleware still join the
// caller's trace.
func requestTraceID(r *http.Request) string {
	if id := r.Header.Get(traceHeader); id != "" {
		return id
	}
	parts := strings.Split(r.Header.Get(traceparentHeader), "-")
	if len(parts) >= 2 && len(parts[1]) == 32 && isLowerHex(parts[1]) {
		return parts[1]
	}
	return ""
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return len(s) > 0
}

// wireStreamFrame is one NDJSON frame of a /v1/shard/query/stream
// response. Non-final frames carry the results newly certified since the
// previous frame plus cumulative stats; the final frame carries the
// shard's whole answer (Items are then the final results), total stats,
// truncation, and the plan — or Error when the query failed after
// streaming began.
type wireStreamFrame struct {
	Seq   uint64        `json:"seq"`
	Items []core.Result `json:"items,omitempty"`
	// Need, when positive, marks a budget grant request: the cumulative
	// budget this worker has asked for over the stream's lifetime. Grant
	// frames carry no items or stats and are not folded into the merge;
	// the coordinator answers on the ack's granted/answered counters.
	Need          int64           `json:"need,omitempty"`
	Stats         core.QueryStats `json:"stats"`
	Final         bool            `json:"final,omitempty"`
	Truncated     bool            `json:"truncated,omitempty"`
	PlanAlgorithm string          `json:"plan_algorithm,omitempty"`
	PlanReason    string          `json:"plan_reason,omitempty"`
	Error         string          `json:"error,omitempty"`
	// Trace rides only the final summary frame of a traced query: the
	// worker's whole event list, shipped once so per-batch frames stay
	// small.
	Trace []trace.Event `json:"trace,omitempty"`
}

// wireStreamAck is one client→worker frame on the open request body: the
// coordinator's current merge threshold λ, piggybacked on the
// acknowledgement of frame Ack. Every field is cumulative or monotone,
// so coalescing to the latest ack loses nothing.
type wireStreamAck struct {
	Ack   uint64  `json:"ack"`
	Floor float64 `json:"floor"`
	// Granted/Answered are the demand-driven budget grant counters for
	// this shard: cumulative budget granted from the pool, and the
	// cumulative need the coordinator has answered (granted < answered's
	// delta means the pool came up short — a denial, not a pending
	// request). Zero/absent against legacy coordinators.
	Granted  int64 `json:"granted,omitempty"`
	Answered int64 `json:"answered,omitempty"`
}

// wireHealth is the /v1/shard/health response; the transport validates it
// against the worker's position at dial time so a mis-wired worker list
// fails fast instead of merging the wrong partitions.
type wireHealth struct {
	OK       bool `json:"ok"`
	Shard    int  `json:"shard"`
	Shards   int  `json:"shards"`
	Nodes    int  `json:"nodes"` // full-graph node count
	Owned    int  `json:"owned"`
	Boundary int  `json:"boundary"`
	H        int  `json:"h"`
	// Generation counts the mutation batches (scores and edits) this
	// worker has applied on top of its boot state, seeded from the
	// snapshot generation when the worker was provisioned from one. A
	// coordinator whose generation disagrees is merging against a
	// replica that missed (or double-applied) a batch.
	Generation uint64 `json:"generation"`
	// Edges is the worker's edge count: the full-graph count for
	// edit-capable workers, the shard closure's count for bare workers.
	Edges int `json:"edges"`
	// Snapshot names the snapshot file the worker booted from, when
	// known — the provenance half of a generation-mismatch diagnosis.
	Snapshot string `json:"snapshot,omitempty"`
	// Sketch summarizes the worker's owned raw scores for the
	// coordinator's λ-priming; absent from legacy workers (priming then
	// simply skips this shard).
	Sketch *Sketch `json:"sketch,omitempty"`
}

// wireBound is the /v1/shard/bound response.
type wireBound struct {
	Aggregate string  `json:"aggregate"`
	Bound     float64 `json:"bound"`
}

// wireScores is the /v1/shard/scores request and response: workers apply
// the updates that fall inside their closure and report how many landed,
// piggybacking a fresh score sketch so the coordinator's priming state
// stays current with zero extra round trips.
type wireScores struct {
	Updates []ScoreUpdate `json:"updates,omitempty"`
	Applied int           `json:"applied,omitempty"`
	Sketch  *Sketch       `json:"sketch,omitempty"` // response only
}

// wireEdit is one structural mutation on the wire; Op uses the
// graph.EditOp wire names (add-edge, remove-edge, add-node).
type wireEdit struct {
	Op string `json:"op"`
	U  int    `json:"u,omitempty"`
	V  int    `json:"v,omitempty"`
}

// wireEdits is the /v1/shard/edits request and response: the worker
// reports its post-batch shape so the transport can refresh its cached
// topology without a re-probe.
type wireEdits struct {
	Edits []wireEdit `json:"edits,omitempty"`
	// Seq is the coordinator-assigned batch sequence number. Workers
	// remember the highest Seq they applied and answer a replay (Seq <=
	// last applied) with their current state WITHOUT re-applying — which
	// makes the retry-after-partial-failure flow safe even for add-node
	// batches, whose replay is otherwise not a no-op and would mint
	// duplicate nodes on the workers that already applied the batch.
	// Zero means "no sequencing" (bare callers) and is always applied.
	Seq uint64 `json:"seq,omitempty"`
	// Response fields.
	Nodes    int     `json:"nodes,omitempty"`    // full-graph node count after the batch
	Rebuilt  bool    `json:"rebuilt,omitempty"`  // this worker's closure was affected
	Owned    int     `json:"owned,omitempty"`    // post-batch owned-node count
	Boundary int     `json:"boundary,omitempty"` // post-batch ghost-node count
	Sketch   *Sketch `json:"sketch,omitempty"`   // post-batch score sketch
}

// encodeEdits flattens an edit batch onto the wire.
func encodeEdits(edits []graph.Edit) []wireEdit {
	out := make([]wireEdit, len(edits))
	for i, e := range edits {
		out[i] = wireEdit{Op: e.Op.String(), U: e.U, V: e.V}
	}
	return out
}

// decodeEdits validates and reconstructs an edit batch from the wire.
func decodeEdits(wire []wireEdit) ([]graph.Edit, error) {
	out := make([]graph.Edit, len(wire))
	for i, w := range wire {
		op, err := graph.ParseEditOp(w.Op)
		if err != nil {
			return nil, fmt.Errorf("edit %d: %w", i, err)
		}
		out[i] = graph.Edit{Op: op, U: w.U, V: w.V}
	}
	return out, nil
}

// wireError is every non-2xx worker response body.
type wireError struct {
	Error string `json:"error"`
}

// encodeQuery flattens q onto the wire.
func encodeQuery(q core.Query) wireQuery {
	return wireQuery{
		Algorithm:  q.Algorithm.WireName(),
		K:          q.K,
		Aggregate:  q.Aggregate.WireName(),
		Gamma:      q.Options.Gamma,
		Order:      q.Options.Order.String(),
		Workers:    q.Options.Workers,
		Candidates: q.Candidates,
		Budget:     q.Budget,
		Trace:      q.Tracer != nil,
	}
}

// decodeQuery validates and reconstructs a core.Query from the wire.
func decodeQuery(w wireQuery) (core.Query, error) {
	var q core.Query
	var err error
	if q.Aggregate, err = core.ParseAggregate(w.Aggregate); err != nil {
		return q, err
	}
	if w.Algorithm != "" {
		if q.Algorithm, err = core.ParseAlgorithm(w.Algorithm); err != nil {
			return q, err
		}
	}
	switch w.Order {
	case "", "natural":
		q.Options.Order = core.OrderNatural
	case "degree-desc":
		q.Options.Order = core.OrderDegreeDesc
	case "score-desc":
		q.Options.Order = core.OrderScoreDesc
	default:
		return q, fmt.Errorf("unknown order %q", w.Order)
	}
	q.K = w.K
	q.Options.Gamma = w.Gamma
	q.Options.Workers = w.Workers
	q.Candidates = w.Candidates
	q.Budget = w.Budget
	return q, nil
}

// grantChunk is how much budget a worker requests per need frame. A
// chunk amortizes the round trip (one request per 64 traversals at
// worst, matching core's context-poll granularity) at the cost of
// stranding at most one chunk per shard mid-run — and even that flows
// back to the pool at finish, because the coordinator folds granted
// budget into the shard's allotment before the end-of-query refund.
const grantChunk = 64

// grantClient is the worker-side half of the demand-driven budget grant
// protocol: a core.BudgetSource whose TakeBudget blocks until the
// coordinator answers the worker's cumulative need over the stream's ack
// channel. Safe for concurrent use — parallel scan workers share one
// source (core.BudgetSource's contract).
type grantClient struct {
	mu   sync.Mutex
	cond *sync.Cond
	// Cumulative monotone counters, reconciled against the coordinator's
	// ledger (StreamControl.Grant) through acks.
	requested int64 // budget asked for (need frames sent)
	answered  int64 // need the coordinator has answered
	granted   int64 // budget the coordinator has granted
	taken     int64 // granted budget already consumed by the engine
	closed    bool
	// ask writes a need frame carrying the new cumulative need; false
	// means the stream is dead and no answer will ever come.
	ask func(cum int64) bool
}

func newGrantClient(ask func(int64) bool) *grantClient {
	g := &grantClient{ask: ask}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// TakeBudget implements core.BudgetSource: serve from already-granted
// budget when any remains; otherwise raise the cumulative need by one
// chunk and block until the coordinator answers. An answer that brings
// nothing means the pool was dry at that instant — deny, so the engine
// truncates exactly as an in-process query would against an empty pool.
func (g *grantClient) TakeBudget(want int) int {
	if g == nil || want <= 0 {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	asked := false
	for {
		if avail := g.granted - g.taken; avail > 0 {
			take := int64(want)
			if take > avail {
				take = avail
			}
			g.taken += take
			return int(take)
		}
		if g.closed {
			return 0
		}
		if g.answered >= g.requested {
			if asked {
				return 0 // our request was answered empty-handed: pool dry
			}
			g.requested += grantChunk
			asked = true
			if !g.ask(g.requested) {
				g.closed = true
				return 0
			}
		}
		g.cond.Wait()
	}
}

// update folds one ack's cumulative counters in; monotone max keeps
// reordered or coalesced acks harmless. Nil-safe (grants disabled).
func (g *grantClient) update(granted, answered int64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	if granted > g.granted {
		g.granted = granted
	}
	if answered > g.answered {
		g.answered = answered
	}
	g.cond.Broadcast()
	g.mu.Unlock()
}

// close unblocks every waiter with a denial: the stream (or its context)
// is gone and no further grant can arrive. Nil-safe.
func (g *grantClient) close() {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.closed = true
	g.cond.Broadcast()
	g.mu.Unlock()
}

// Worker serves one Shard over HTTP — the worker half of the protocol,
// mounted by cmd/lonad in -shard-worker mode. Score updates and
// structural edits swap the shard generation under a write lock; queries
// snapshot the current generation, mirroring internal/server's
// discipline.
//
// A worker constructed with NewGraphWorker keeps the full graph, score
// vector, and partitioning alongside its shard, which is what lets it
// apply structural edits: it re-derives the successor graph exactly as
// the coordinator does (the edit stream and the extension rule are both
// deterministic), so independent processes stay in agreement without a
// consensus round. A bare NewWorker shard serves queries and scores but
// rejects edits.
type Worker struct {
	mu    sync.RWMutex
	shard *Shard

	// Full-dataset context for structural edits; nil for bare workers.
	g      *graph.Graph
	scores []float64
	h      int
	p      *partition.Partitioning
	// editSeq is the highest sequenced edit batch applied; replays at or
	// below it are answered idempotently (see wireEdits.Seq).
	editSeq uint64

	// gen counts applied mutation batches on top of the boot state
	// (seeded by SetProvenance when booting from a snapshot), mirroring
	// the coordinator's generation counter so divergence is detectable
	// via /v1/shard/health.
	gen uint64
	// provenance names the snapshot the boot state came from, if any.
	provenance string
}

// SetProvenance records where this worker's boot state came from: the
// snapshot path and the generation stored in it. Seeding gen from the
// snapshot keeps the worker's generation counter aligned with a
// coordinator booted from the same snapshot, which is what makes the
// health probe's generation comparison meaningful.
func (w *Worker) SetProvenance(path string, gen uint64) {
	w.mu.Lock()
	w.provenance, w.gen = path, gen
	w.mu.Unlock()
}

// Generation returns the count of mutation batches applied on top of
// the boot state (plus the boot snapshot's own generation, if any).
func (w *Worker) Generation() uint64 {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.gen
}

// NewWorker wraps a prebuilt shard for serving (no structural edits).
func NewWorker(s *Shard) *Worker { return &Worker{shard: s} }

// NewGraphWorker builds shard index of the deterministic parts-way
// partitioning of (g, scores, h) and serves it with full structural-edit
// support.
func NewGraphWorker(g *graph.Graph, scores []float64, h, parts, index int) (*Worker, error) {
	p, err := Partitioning(g, parts)
	if err != nil {
		return nil, err
	}
	s, err := BuildShard(g, scores, h, p, index)
	if err != nil {
		return nil, err
	}
	return &Worker{
		shard:  s,
		g:      g,
		scores: append([]float64(nil), scores...),
		h:      h,
		p:      p,
	}, nil
}

// Shard returns the current shard generation.
func (w *Worker) Shard() *Shard {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.shard
}

// Handler returns the worker's HTTP API.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/shard/query/stream", w.handleQueryStream)
	mux.HandleFunc("/v1/shard/bound", w.handleBound)
	mux.HandleFunc("/v1/shard/scores", w.handleScores)
	mux.HandleFunc("/v1/shard/edits", w.handleEdits)
	mux.HandleFunc("/v1/shard/replay", w.handleReplay)
	mux.HandleFunc("/v1/shard/health", w.handleHealth)
	return mux
}

func writeJSON(rw http.ResponseWriter, status int, body any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	enc := json.NewEncoder(rw)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(body) // the connection is the only failure mode here
}

func writeWireError(rw http.ResponseWriter, status int, err error) {
	writeJSON(rw, status, wireError{Error: err.Error()})
}

// handleQueryStream serves shard queries: it runs the shard query with a
// partial-result sink writing NDJSON frames, while a reader goroutine
// consumes λ acks from the still-open request body and raises the
// engine-visible floor. Pre-query validation failures are
// ordinary HTTP errors; once streaming starts, failures travel in the
// final frame.
func (w *Worker) handleQueryStream(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		rw.Header().Set("Allow", http.MethodPost)
		writeWireError(rw, http.StatusMethodNotAllowed, errors.New("use POST"))
		return
	}
	// No MaxBytesReader on the whole body — it is an open ack stream, not
	// a bounded document — but the query itself is the first NDJSON line
	// and gets a 16 MiB cap and strict field checking. The buffered
	// reader carries over to the ack goroutine so no stream bytes are
	// lost between the two decoders.
	br := bufio.NewReader(r.Body)
	queryLine, err := readQueryLine(br)
	if err != nil {
		writeWireError(rw, http.StatusBadRequest, fmt.Errorf("invalid request body: %w", err))
		return
	}
	qdec := json.NewDecoder(bytes.NewReader(queryLine))
	qdec.DisallowUnknownFields()
	var wq wireQuery
	if err := qdec.Decode(&wq); err != nil {
		writeWireError(rw, http.StatusBadRequest, fmt.Errorf("invalid request body: %w", err))
		return
	}
	q, err := decodeQuery(wq)
	if err != nil {
		writeWireError(rw, http.StatusBadRequest, err)
		return
	}
	// Worker-local recorder for traced queries; the whole event list ships
	// on the final summary frame (per-batch frames stay small).
	var rec *trace.Recorder
	if wq.Trace {
		rec = trace.NewWithID(requestTraceID(r))
		q.Tracer = rec.ForShard(w.Shard().Index())
	}
	dec := json.NewDecoder(br)

	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()

	// Full-duplex: HTTP/1.1 needs an explicit opt-in to keep the request
	// body readable while the response streams (HTTP/2 always is). If the
	// opt-in fails the stream still works — λ acks are simply never seen,
	// which costs pruning opportunities, not correctness.
	rc := http.NewResponseController(rw)
	duplexErr := rc.EnableFullDuplex()
	floor := &StreamControl{}
	// Seed the engine-visible floor from the coordinator's launch-time λ
	// (sketch-primed, possibly already raised by earlier batches). Absent
	// or malformed header → 0, the legacy cold start.
	if f, err := strconv.ParseFloat(r.Header.Get(floorHeader), 64); err == nil {
		floor.Raise(f)
	}

	rw.Header().Set("Content-Type", "application/x-ndjson")
	rw.WriteHeader(http.StatusOK)
	// writeMu serializes the response stream: partial batches from the
	// engine, need frames from grant waits (engine goroutines), and the
	// final frame must interleave whole, and seq must match write order.
	var writeMu sync.Mutex
	var seq uint64
	enc := json.NewEncoder(rw)
	enc.SetEscapeHTML(false)

	// Demand-driven budget grants: only when the coordinator advertises it
	// answers need frames, the query is budgeted at all, and the ack
	// channel actually works (full duplex on HTTP/1.1, or HTTP/2) — a need
	// frame nobody can answer would park the engine forever.
	var gc *grantClient
	if r.Header.Get(grantsHeader) == "1" && q.Budget > 0 &&
		(duplexErr == nil || r.ProtoMajor >= 2) {
		gc = newGrantClient(func(cum int64) bool {
			writeMu.Lock()
			defer writeMu.Unlock()
			seq++
			if err := enc.Encode(wireStreamFrame{Seq: seq, Need: cum}); err != nil {
				cancel()
				return false
			}
			_ = rc.Flush()
			return true
		})
		// A dead context (coordinator cut this shard, client vanished) must
		// unblock grant waiters, or RunStream never returns.
		stop := context.AfterFunc(ctx, gc.close)
		defer stop()
	}

	ackDone := make(chan struct{})
	go func() {
		defer close(ackDone)
		defer gc.close() // ack stream gone → no grant will ever arrive
		for {
			var ack wireStreamAck
			if err := dec.Decode(&ack); err != nil {
				return // ack stream closed (or the client went away)
			}
			floor.Raise(ack.Floor)
			gc.update(ack.Granted, ack.Answered)
		}
	}()

	emit := func(b StreamBatch) {
		writeMu.Lock()
		defer writeMu.Unlock()
		seq++
		if err := enc.Encode(wireStreamFrame{Seq: seq, Items: b.Items, Stats: b.Stats}); err != nil {
			// The coordinator is gone; stop the engine query cooperatively
			// instead of finishing work nobody will read.
			cancel()
			return
		}
		_ = rc.Flush()
	}
	var extra core.BudgetSource
	if gc != nil {
		extra = gc
	}
	ans, err := w.Shard().RunStream(ctx, q, floor, extra, emit)
	writeMu.Lock()
	seq++
	final := wireStreamFrame{Seq: seq, Final: true}
	if err != nil {
		final.Error = err.Error()
	} else {
		final.Items, final.Stats, final.Truncated = ans.Results, ans.Stats, ans.Truncated
		if final.Items == nil {
			final.Items = []core.Result{}
		}
		if ans.Plan != nil {
			final.PlanAlgorithm = ans.Plan.Algorithm.WireName()
			final.PlanReason = ans.Plan.Reason
		}
	}
	if rec != nil {
		final.Trace = rec.Snapshot().Events
	}
	_ = enc.Encode(final)
	_ = rc.Flush()
	writeMu.Unlock()
	// Hold the exchange open until the client closes its ack stream (it
	// does so as soon as it decodes the final frame). Returning earlier —
	// with the request body still open — makes Go's HTTP/1 teardown
	// withhold the response tail for tens of milliseconds, stalling every
	// streamed query on a fixed latency cliff.
	<-ackDone
}

func (w *Worker) handleBound(rw http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("aggregate")
	agg, err := core.ParseAggregate(name)
	if err != nil {
		writeWireError(rw, http.StatusBadRequest, err)
		return
	}
	b, err := w.Shard().UpperBound(agg)
	if err != nil {
		writeWireError(rw, http.StatusBadRequest, err)
		return
	}
	writeJSON(rw, http.StatusOK, wireBound{Aggregate: name, Bound: b})
}

func (w *Worker) handleScores(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		rw.Header().Set("Allow", http.MethodPost)
		writeWireError(rw, http.StatusMethodNotAllowed, errors.New("use POST"))
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(rw, r.Body, 16<<20))
	dec.DisallowUnknownFields()
	var ws wireScores
	if err := dec.Decode(&ws); err != nil {
		writeWireError(rw, http.StatusBadRequest, fmt.Errorf("invalid request body: %w", err))
		return
	}
	w.mu.Lock()
	// Validate the node range against the worker's authority on the full
	// graph: the live score vector for edit-capable workers (which grows
	// with the node set), the build-time node count for bare workers
	// (whose topology can never change). Shard.WithUpdates itself is
	// tolerant of beyond-snapshot ids — that tolerance is for shards
	// legitimately reused across edit generations, not for typo'd ids.
	limit := w.shard.GlobalNodes()
	if w.g != nil {
		limit = len(w.scores)
	}
	for _, u := range ws.Updates {
		if u.Node < 0 || u.Node >= limit {
			w.mu.Unlock()
			writeWireError(rw, http.StatusBadRequest,
				fmt.Errorf("update node %d out of range [0,%d)", u.Node, limit))
			return
		}
	}
	next, applied, err := w.shard.WithUpdates(ws.Updates)
	if err == nil {
		w.shard = next
		if w.g != nil {
			for _, u := range ws.Updates {
				w.scores[u.Node] = u.Score
			}
		}
		w.gen++
	}
	w.mu.Unlock()
	if err != nil {
		writeWireError(rw, http.StatusBadRequest, err)
		return
	}
	writeJSON(rw, http.StatusOK, wireScores{Applied: applied, Sketch: w.Shard().Sketch()})
}

// handleEdits applies a structural edit batch to the worker's full graph
// and rebuilds its shard when the batch touches the shard's h-hop
// closure. The response carries the post-batch shape so the coordinator
// transport can refresh its cached topology.
func (w *Worker) handleEdits(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		rw.Header().Set("Allow", http.MethodPost)
		writeWireError(rw, http.StatusMethodNotAllowed, errors.New("use POST"))
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(rw, r.Body, 16<<20))
	dec.DisallowUnknownFields()
	var we wireEdits
	if err := dec.Decode(&we); err != nil {
		writeWireError(rw, http.StatusBadRequest, fmt.Errorf("invalid request body: %w", err))
		return
	}
	edits, err := decodeEdits(we.Edits)
	if err != nil {
		writeWireError(rw, http.StatusBadRequest, err)
		return
	}

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.g == nil {
		writeWireError(rw, http.StatusNotImplemented,
			errors.New("worker was built from a bare shard and holds no full graph to edit"))
		return
	}
	if we.Seq != 0 && we.Seq <= w.editSeq {
		// Replay of a batch this worker already applied (the coordinator
		// is retrying a partial fan-out failure): answer with the current
		// state instead of re-applying, so add-node batches cannot mint
		// duplicate nodes and desynchronize the replicas.
		writeJSON(rw, http.StatusOK, wireEdits{
			Nodes:    w.g.NumNodes(),
			Owned:    w.shard.OwnedCount(),
			Boundary: w.shard.BoundaryNodes(),
			Sketch:   w.shard.Sketch(),
		})
		return
	}
	rebuild, status, err := w.applyEditsLocked(edits)
	if err != nil {
		writeWireError(rw, status, err)
		return
	}
	w.gen++
	if we.Seq != 0 {
		w.editSeq = we.Seq
	}
	writeJSON(rw, http.StatusOK, wireEdits{
		Nodes:    w.g.NumNodes(),
		Rebuilt:  rebuild,
		Owned:    w.shard.OwnedCount(),
		Boundary: w.shard.BoundaryNodes(),
		Sketch:   w.shard.Sketch(),
	})
}

// applyEditsLocked is the edit-apply core shared by the live fan-out
// handler and journal replay: apply the batch to the full-graph
// replica, grow the score vector and partitioning for minted nodes, and
// rebuild the shard when the batch touches its h-hop closure. The
// caller holds w.mu and owns all generation/sequence bookkeeping. On
// error the old shard generation keeps serving; status carries the HTTP
// classification (bad batch vs failed rebuild).
func (w *Worker) applyEditsLocked(edits []graph.Edit) (rebuilt bool, status int, err error) {
	newG, delta, err := w.g.ApplyEdits(edits)
	if err != nil {
		return false, http.StatusBadRequest, err
	}
	for len(w.scores) < newG.NumNodes() {
		w.scores = append(w.scores, 0)
	}
	w.p.ExtendTo(newG.NumNodes())

	affected := graph.AffectedNodes(w.g, newG, delta, w.h)
	for _, v := range affected {
		if w.p.PartOf(v) == w.shard.Index() {
			rebuilt = true
			break
		}
	}
	if rebuilt {
		next, err := BuildShard(newG, w.scores, w.h, w.p, w.shard.Index())
		if err != nil {
			return false, http.StatusInternalServerError, err
		}
		w.shard = next
	}
	w.g = newG
	return rebuilt, 0, nil
}

func (w *Worker) handleHealth(rw http.ResponseWriter, r *http.Request) {
	w.mu.RLock()
	s := w.shard
	gen, prov := w.gen, w.provenance
	edges := s.Engine().Graph().NumEdges()
	if w.g != nil {
		edges = w.g.NumEdges()
	}
	w.mu.RUnlock()
	writeJSON(rw, http.StatusOK, wireHealth{
		OK: true, Shard: s.Index(), Shards: s.Parts(),
		Nodes: s.GlobalNodes(), Owned: s.OwnedCount(), Boundary: s.BoundaryNodes(),
		H: s.h, Generation: gen, Edges: edges, Snapshot: prov,
		Sketch: s.Sketch(),
	})
}

// readQueryLine reads the newline-terminated query document that opens a
// stream request, rejecting documents past 16 MiB.
func readQueryLine(br *bufio.Reader) ([]byte, error) {
	var line []byte
	for {
		chunk, err := br.ReadSlice('\n')
		line = append(line, chunk...)
		if len(line) > 16<<20 {
			return nil, errors.New("query document exceeds 16 MiB")
		}
		switch err {
		case nil:
			return line, nil
		case bufio.ErrBufferFull:
			continue
		default:
			return nil, err
		}
	}
}

// HTTP is the cross-process transport: shard i lives behind workers[i], a
// lonad in -shard-worker mode. Construct with NewHTTP, which probes every
// worker's /v1/shard/health and fails fast on a mis-wired topology
// (wrong shard index, inconsistent shard count, disagreeing graphs).
type HTTP struct {
	workers []string
	client  *http.Client

	h int

	// mu guards the facts structural edits move: the full-graph node
	// count, the cached topology summary, and the edit-batch sequencing.
	mu       sync.RWMutex
	nodes    int
	topology Topology
	// editSeq numbers edit batches so workers can no-op replays. A batch
	// that partially failed keeps its number (pendingSeq/pendingEdits):
	// re-sending the identical batch — the documented recovery — reuses
	// it, so workers that already applied it answer idempotently instead
	// of minting duplicate nodes.
	editSeq      uint64
	pendingSeq   uint64
	pendingEdits string
	// sketches[i] summarizes worker i's owned score distribution for
	// λ-priming. Seeded from the dial-time health probe and refreshed by
	// every score/edit fan-out response; a failed fan-out leg nils its
	// entry, because a sketch of scores that were since lowered could
	// overstate λ (nil only weakens priming, never correctness).
	sketches []*Sketch
}

// NewHTTP dials the worker list. client may be nil for a default with a
// 10-second dial/health timeout; per-query timeouts come from the query
// context, not the client.
func NewHTTP(ctx context.Context, workers []string, client *http.Client) (*HTTP, error) {
	if len(workers) == 0 {
		return nil, errors.New("cluster: empty worker list")
	}
	if client == nil {
		client = &http.Client{}
	}
	t := &HTTP{client: client, topology: Topology{Shards: len(workers)}}
	t.sketches = make([]*Sketch, len(workers))
	t.workers = make([]string, len(workers))
	for i, w := range workers {
		t.workers[i] = strings.TrimRight(w, "/")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	probeCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	for i, base := range t.workers {
		var h wireHealth
		if err := t.get(probeCtx, base+"/v1/shard/health", &h); err != nil {
			return nil, fmt.Errorf("cluster: worker %d (%s): %w", i, base, err)
		}
		switch {
		case !h.OK:
			return nil, fmt.Errorf("cluster: worker %d (%s) reports not OK", i, base)
		case h.Shard != i:
			return nil, fmt.Errorf("cluster: worker %d (%s) serves shard %d — worker list out of order", i, base, h.Shard)
		case h.Shards != len(t.workers):
			return nil, fmt.Errorf("cluster: worker %d (%s) belongs to a %d-shard topology, dialing %d workers", i, base, h.Shards, len(t.workers))
		case i > 0 && (h.Nodes != t.nodes || h.H != t.h):
			return nil, fmt.Errorf("cluster: worker %d (%s) serves a different dataset (nodes=%d h=%d, want nodes=%d h=%d)",
				i, base, h.Nodes, h.H, t.nodes, t.h)
		}
		if i == 0 {
			t.nodes, t.h = h.Nodes, h.H
		}
		t.topology.BoundaryNodes += int64(h.Boundary)
		t.topology.OwnedSizes = append(t.topology.OwnedSizes, h.Owned)
		t.sketches[i] = h.Sketch
	}
	return t, nil
}

// Shards returns the worker count.
func (t *HTTP) Shards() int { return len(t.workers) }

// Nodes returns the full graph's node count as reported by the workers
// (structural edits can grow it).
func (t *HTTP) Nodes() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.nodes
}

// H returns the hop radius the workers serve; a coordinator must refuse
// to merge shards built for a different h than its own.
func (t *HTTP) H() int { return t.h }

// Snapshot returns the transport itself: remote workers swap their shard
// generations independently, so cross-process queries are only as
// snapshot-isolated as the update fan-out is quiescent. (In-process
// sharding gets the strict guarantee; see Local.)
func (t *HTTP) Snapshot() QueryView { return t }

// QueryStream executes q on worker shard via POST /v1/shard/query/stream:
// partial batches flow to emit as the worker certifies results, and the
// coordinator's λ (read from ctrl at each frame) flows back on the open
// request body. Acks are coalesced latest-wins — every field is
// cumulative, so replacing a queued ack loses nothing — and never
// dropped, which the grant protocol requires: a dropped ack carrying a
// grant would leave the worker blocked until the next frame by luck.
// ctrl is also the grant ledger: need frames draw from its shared pool
// via Grant, so budget refunded by cut shards reaches still-running
// workers instead of stranding. A traced query ships only its trace id
// (header) out and imports the worker's event list from the final frame,
// rebased onto the local timeline at the moment the request started.
func (t *HTTP) QueryStream(ctx context.Context, shard int, q core.Query,
	ctrl *StreamControl, emit func(StreamBatch)) (core.Answer, error) {

	blob, err := json.Marshal(encodeQuery(q))
	if err != nil {
		return core.Answer{}, err
	}
	bodyR, bodyW := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.workers[shard]+"/v1/shard/query/stream", bodyR)
	if err != nil {
		bodyW.Close()
		return core.Answer{}, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	// Launch-time floor and grant capability ride headers, not the query
	// document: the worker decodes the query strictly, and old workers
	// ignore unknown headers — absent headers mean legacy behavior.
	if f := ctrl.Floor(); f > 0 {
		req.Header.Set(floorHeader, strconv.FormatFloat(f, 'g', -1, 64))
	}
	if q.Budget > 0 {
		req.Header.Set(grantsHeader, "1")
	}
	var baseUS int64
	if q.Tracer != nil {
		setTraceHeaders(req.Header, q.Tracer.ID())
		baseUS = q.Tracer.SinceUS()
	}

	// The ack writer owns the request body: the query document first, then
	// acks. sendAck parks the latest ack in a one-slot mailbox — replacing,
	// never dropping, whatever is still waiting for the pipe — so a slow
	// writer coalesces acks instead of stalling frame consumption, and the
	// state that reaches the worker is always the freshest.
	var ackMu sync.Mutex
	var pending *wireStreamAck
	notify := make(chan struct{}, 1)
	writerDone := make(chan struct{})
	defer close(writerDone)
	sendAck := func(a wireStreamAck) {
		ackMu.Lock()
		pending = &a
		ackMu.Unlock()
		select {
		case notify <- struct{}{}:
		default:
		}
	}
	go func() {
		defer bodyW.Close()
		if _, err := bodyW.Write(append(blob, '\n')); err != nil {
			return
		}
		enc := json.NewEncoder(bodyW)
		for {
			select {
			case <-notify:
				for {
					ackMu.Lock()
					a := pending
					pending = nil
					ackMu.Unlock()
					if a == nil {
						break
					}
					if enc.Encode(*a) != nil {
						return
					}
				}
			case <-writerDone:
				return
			}
		}
	}()
	// Watchdog: the transport blocks on the open body pipe in some error
	// paths (a worker that stops responding without closing the
	// connection); force the pipe shut when the context dies so the
	// round-trip can never outlive its deadline.
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			bodyW.CloseWithError(ctx.Err())
		case <-done:
		}
	}()

	resp, err := t.client.Do(req)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return core.Answer{}, ctxErr
		}
		return core.Answer{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var we wireError
		errBlob, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		if json.Unmarshal(errBlob, &we) == nil && we.Error != "" {
			return core.Answer{}, errors.New(we.Error)
		}
		return core.Answer{}, fmt.Errorf("worker answered %d: %s", resp.StatusCode, strings.TrimSpace(string(errBlob)))
	}

	dec := json.NewDecoder(resp.Body)
	var lastSeq uint64
	var granted, answered int64
	for {
		// A cancelled caller must see its context error even when the
		// remaining frames (final included) are already sitting in the
		// decoder's buffer and would decode without touching the network.
		if err := ctx.Err(); err != nil {
			return core.Answer{}, err
		}
		var f wireStreamFrame
		if err := dec.Decode(&f); err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return core.Answer{}, ctxErr
			}
			return core.Answer{}, fmt.Errorf("cluster: worker %d stream died before its final frame: %w", shard, err)
		}
		if f.Error != "" {
			return core.Answer{}, errors.New(f.Error)
		}
		if f.Seq != lastSeq+1 {
			// A gap or replay means the stream can no longer be trusted —
			// a dropped batch would silently lose certified results.
			return core.Answer{}, fmt.Errorf("cluster: worker %d stream frame out of order: seq %d after %d", shard, f.Seq, lastSeq)
		}
		lastSeq = f.Seq
		if f.Final {
			q.Tracer.Import(f.Trace, baseUS)
			ans := core.Answer{Results: f.Items, Stats: f.Stats, Truncated: f.Truncated}
			if ans.Results == nil {
				ans.Results = []core.Result{}
			}
			if f.PlanAlgorithm != "" {
				algo, err := core.ParseAlgorithm(f.PlanAlgorithm)
				if err != nil {
					return core.Answer{}, fmt.Errorf("cluster: worker %d returned unknown plan algorithm %q", shard, f.PlanAlgorithm)
				}
				ans.Plan = &core.Plan{Algorithm: algo, Reason: f.PlanReason}
			}
			return ans, nil
		}
		if f.Need > 0 {
			// Grant request: a control frame, not a batch — its zero stats
			// must not fold into the merge. Serve the need delta from the
			// shared pool and answer on the ack.
			granted, answered = ctrl.Grant(shard, f.Need)
		} else {
			emit(StreamBatch{Items: f.Items, Stats: f.Stats})
		}
		// Ack every frame with the freshest λ and the cumulative grant
		// counters; coalescing keeps this from ever blocking the loop.
		sendAck(wireStreamAck{Ack: f.Seq, Floor: ctrl.Floor(), Granted: granted, Answered: answered})
	}
}

// ScoreSketch returns the cached per-shard score sketch, refreshed on
// every successful score/edit fan-out and invalidated (nil) when a
// worker's fan-out leg fails — a stale sketch could overstate λ and
// break admissibility, while a nil one only weakens priming.
func (t *HTTP) ScoreSketch(shard int) *Sketch {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if shard < 0 || shard >= len(t.sketches) {
		return nil
	}
	return t.sketches[shard]
}

// WireAcks: frames and acks are real messages on this transport.
func (t *HTTP) WireAcks() bool { return true }

// UpperBound fetches the shard's merge bound via GET /v1/shard/bound.
func (t *HTTP) UpperBound(ctx context.Context, shard int, agg core.Aggregate) (float64, error) {
	var wb wireBound
	u := t.workers[shard] + "/v1/shard/bound?aggregate=" + url.QueryEscape(agg.WireName())
	if err := t.get(ctx, u, &wb); err != nil {
		return 0, err
	}
	return wb.Bound, nil
}

// applyParallel bounds the concurrent legs of a score/edit fan-out: wide
// enough to hide per-worker latency on the topologies this system
// targets, narrow enough not to stampede a shared network path.
const applyParallel = 8

// fanOut posts body to path on every worker with bounded concurrency,
// decoding worker i's response into out(i). Every leg runs to completion
// (success or failure) regardless of the others — idempotent-retry
// semantics need to know each worker's actual state, and a retried batch
// re-sends to everyone anyway. Returns the lowest-index error.
func (t *HTTP) fanOut(ctx context.Context, path string, body any, out func(i int) any) error {
	errs := make([]error, len(t.workers))
	sem := make(chan struct{}, applyParallel)
	var wg sync.WaitGroup
	for i, base := range t.workers {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, base string) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := t.post(ctx, base+path, body, out(i)); err != nil {
				errs[i] = fmt.Errorf("cluster: worker %d (%s): %w", i, base, err)
			}
		}(i, base)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// setSketches installs the fan-out's piggybacked sketches wholesale:
// worker i's fresh sketch on success, nil on a failed leg (the zero
// response) or a legacy worker (no sketch field). After a failed leg the
// worker's scores are unknown, and a stale sketch could overstate λ —
// nil only weakens priming, never correctness.
func (t *HTTP) setSketches(fresh []*Sketch) {
	t.mu.Lock()
	defer t.mu.Unlock()
	copy(t.sketches, fresh)
}

// ApplyScores fans the update batch out to every worker (workers ignore
// nodes outside their closure), applyParallel legs at a time. The
// fan-out is not transactional: a mid-batch worker failure leaves other
// workers updated — the caller owns retry semantics, and queries remain
// exact per worker generation. Responses piggyback each worker's
// refreshed score sketch for λ-priming; a failed leg invalidates its
// cached sketch instead.
func (t *HTTP) ApplyScores(ctx context.Context, updates []ScoreUpdate) error {
	if ctx == nil {
		ctx = context.Background()
	}
	responses := make([]wireScores, len(t.workers))
	err := t.fanOut(ctx, "/v1/shard/scores", wireScores{Updates: updates},
		func(i int) any { return &responses[i] })
	fresh := make([]*Sketch, len(responses))
	for i := range responses {
		fresh[i] = responses[i].Sketch
	}
	t.setSketches(fresh)
	return err
}

// ApplyEdits fans the structural edit batch out to every worker,
// applyParallel legs at a time. Each worker applies it to its own
// full-graph replica and rebuilds its shard only when its closure is
// affected; the responses refresh this transport's cached node count,
// topology, and score sketches. The fan-out is not transactional — a
// mid-batch worker failure leaves other workers at the new topology —
// but retrying with the identical batch converges:
// the batch keeps its sequence number across retries, and workers that
// already applied it answer idempotently (essential for add-node
// batches, whose raw replay would mint duplicate nodes).
func (t *HTTP) ApplyEdits(ctx context.Context, edits []graph.Edit) error {
	if ctx == nil {
		ctx = context.Background()
	}

	// Assign (or, for a retry of the batch that last failed, re-use) the
	// batch's sequence number.
	fingerprint := graph.FormatEditScript(edits)
	t.mu.Lock()
	var seq uint64
	if t.pendingSeq != 0 && t.pendingEdits == fingerprint {
		seq = t.pendingSeq
	} else {
		t.editSeq++
		seq = t.editSeq
	}
	t.pendingSeq, t.pendingEdits = seq, fingerprint
	t.mu.Unlock()

	body := wireEdits{Edits: encodeEdits(edits), Seq: seq}
	responses := make([]wireEdits, len(t.workers))
	err := t.fanOut(ctx, "/v1/shard/edits", body, func(i int) any { return &responses[i] })
	fresh := make([]*Sketch, len(responses))
	for i := range responses {
		fresh[i] = responses[i].Sketch
	}
	t.setSketches(fresh)
	if err != nil {
		return err
	}
	// Workers ran the same deterministic batch from the same replica
	// state; disagreement on the resulting node count means a
	// desynchronized replica (e.g. a worker that missed an earlier
	// batch) and must fail loudly before any query merges mixed
	// topologies.
	for i, resp := range responses {
		if resp.Nodes != responses[0].Nodes {
			return fmt.Errorf("cluster: worker %d reports %d nodes after the batch, worker 0 reports %d — replicas desynchronized",
				i, resp.Nodes, responses[0].Nodes)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pendingSeq, t.pendingEdits = 0, "" // fully applied; nothing to retry
	t.nodes = responses[0].Nodes
	t.topology.BoundaryNodes = 0
	t.topology.OwnedSizes = t.topology.OwnedSizes[:0]
	for _, resp := range responses {
		t.topology.BoundaryNodes += int64(resp.Boundary)
		t.topology.OwnedSizes = append(t.topology.OwnedSizes, resp.Owned)
	}
	return nil
}

// Topology reports what the health probes revealed (edge cut is unknown
// across processes).
func (t *HTTP) Topology() Topology {
	t.mu.RLock()
	defer t.mu.RUnlock()
	topo := t.topology
	topo.OwnedSizes = append([]int(nil), t.topology.OwnedSizes...)
	return topo
}

// Close drops idle worker connections.
func (t *HTTP) Close() error {
	t.client.CloseIdleConnections()
	return nil
}

var _ Transport = (*HTTP)(nil)

// post sends a JSON body and decodes a JSON response.
func (t *HTTP) post(ctx context.Context, url string, body, out any) error {
	blob, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(blob))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return t.do(req, out)
}

// get fetches a JSON response.
func (t *HTTP) get(ctx context.Context, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	return t.do(req, out)
}

// do executes the request, surfacing worker-side errors (and the caller's
// own context error, unwrapped from the client's transport error so the
// coordinator's cut/cancel classification sees context.Canceled).
func (t *HTTP) do(req *http.Request, out any) error {
	resp, err := t.client.Do(req)
	if err != nil {
		if ctxErr := req.Context().Err(); ctxErr != nil {
			return ctxErr
		}
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var we wireError
		blob, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		if json.Unmarshal(blob, &we) == nil && we.Error != "" {
			return errors.New(we.Error)
		}
		return fmt.Errorf("worker answered %d: %s", resp.StatusCode, strings.TrimSpace(string(blob)))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
