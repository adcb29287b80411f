// Package lona is the public API of this repository: a Go implementation
// of the LONA (Local Neighborhood Aggregation) framework from "Top-K
// Aggregation Queries over Large Networks" (Yan, He, Zhu, Han — ICDE 2010).
//
// A top-k neighborhood aggregation query asks: over a network with a
// relevance score f(v) ∈ [0,1] on every node, which k nodes have the
// highest aggregate (SUM, AVG, …) of f over their h-hop neighborhoods?
// These queries power "popularity in your social circle" features,
// co-expression lookups in biology, and scanner detection in network
// security — the paper's three evaluation domains.
//
// # Quick start
//
// A query is a lona.Query value executed by Run — one context-aware entry
// point shared by the Engine, the Planner, the View, and the serving API:
//
//	g := lona.NewGraphBuilder(4, false)
//	g.AddEdge(0, 1)
//	g.AddEdge(1, 2)
//	g.AddEdge(2, 3)
//	engine, err := lona.NewEngine(g.Build(), []float64{0.9, 0.1, 0.8, 0.2}, 2)
//	if err != nil { ... }
//	ans, err := engine.Run(ctx, lona.Query{K: 2, Aggregate: lona.Sum})
//	// ans.Results, ans.Stats; ans.Plan records the planner's choice.
//
// A zero Algorithm (AlgoAuto) lets the cost-based planner choose the
// strategy; naming one (AlgoForward, AlgoBackward, …) runs it directly.
// The context cancels or deadlines the query cooperatively: the algorithm
// loops poll it, return its error promptly, and leave the engine reusable.
// A Query can also restrict the ranked nodes (Candidates) and cap the
// work spent (Budget) for Fagin-style early termination.
//
// Three query strategies are provided, all returning identical answers:
// the naive Base scan, LONA-Forward (differential-index pruning), and
// LONA-Backward (partial score distribution with upper-bound verification)
// — plus Algorithm 2's BackwardNaive, a parallel Base, and h-hop weighted,
// COUNT and MAX aggregate variants.
//
// The examples/ directory contains runnable scenarios, cmd/lonabench
// regenerates every figure of the paper's evaluation, and cmd/lonad serves
// queries as a long-lived daemon; see README.md for a quickstart and the
// package map.
package lona

import (
	"context"
	"io"
	"net/http"

	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/journal"
	"repro/internal/netio"
	"repro/internal/otlp"
	"repro/internal/relevance"
	"repro/internal/server"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// Graph is an immutable CSR network; build one with NewGraphBuilder or a
// generator, or load one with ReadGraph.
type Graph = graph.Graph

// GraphBuilder accumulates edges and produces a Graph.
type GraphBuilder = graph.Builder

// NewGraphBuilder returns a builder for a graph with n nodes; undirected
// unless directed is set.
func NewGraphBuilder(n int, directed bool) *GraphBuilder {
	return graph.NewBuilder(n, directed)
}

// Engine answers top-k neighborhood aggregation queries; construct with
// NewEngine.
type Engine = core.Engine

// NewEngine validates the (graph, scores, hop-radius) triple and returns a
// query engine. Scores must lie in [0,1], one per node.
func NewEngine(g *Graph, scores []float64, h int) (*Engine, error) {
	return core.NewEngine(g, scores, h)
}

// Query is the first-class description of a top-k request: algorithm
// (AlgoAuto delegates to the planner), k, aggregate, options, an optional
// candidate restriction, and an optional traversal budget. Execute it with
// Engine.Run, Planner.Run, or View.Run.
type Query = core.Query

// Answer bundles a query's results, work stats, the planner's Plan when
// AlgoAuto chose the strategy, and whether a Budget truncated the run.
type Answer = core.Answer

// Result is one (node, value) entry of a top-k answer.
type Result = core.Result

// QueryStats reports evaluation/pruning/distribution counts for a query.
type QueryStats = core.QueryStats

// Options tunes a query (backward threshold γ, forward queue order,
// parallelism).
type Options = core.Options

// Aggregate selects the neighborhood aggregation function.
type Aggregate = core.Aggregate

// Aggregates supported by the engine. Sum and Avg are the paper's two
// primary functions; WeightedSum is footnote 1's distance-weighted
// variant; Count and Max are natural extensions.
const (
	Sum         = core.Sum
	Avg         = core.Avg
	WeightedSum = core.WeightedSum
	Count       = core.Count
	Max         = core.Max
)

// Algorithm selects a query strategy.
type Algorithm = core.Algorithm

// Algorithms. AlgoAuto (the zero value) delegates the choice to the
// cost-based planner; AlgoBase is the paper's comparison baseline;
// AlgoForward and AlgoBackward are the LONA contributions.
const (
	AlgoAuto          = core.AlgoAuto
	AlgoBase          = core.AlgoBase
	AlgoBaseParallel  = core.AlgoBaseParallel
	AlgoForward       = core.AlgoForward
	AlgoBackwardNaive = core.AlgoBackwardNaive
	AlgoBackward      = core.AlgoBackward
	AlgoForwardDist   = core.AlgoForwardDist
)

// Planner chooses a query strategy from cheap input statistics, like a
// database optimizer; see NewPlanner.
type Planner = core.Planner

// Plan is a planner decision with its rationale.
type Plan = core.Plan

// NewPlanner returns a cost-based algorithm chooser over the engine.
func NewPlanner(e *Engine) *Planner { return core.NewPlanner(e) }

// ParseAggregate maps an aggregate's flag/wire name (case-insensitive,
// e.g. "sum", "avg") to its enum — the single name mapping shared by
// cmd/lona and the serving API.
func ParseAggregate(name string) (Aggregate, error) { return core.ParseAggregate(name) }

// ParseAlgorithm maps an engine algorithm's flag/wire name
// (case-insensitive, e.g. "forward", "backward-naive") to its enum.
// Serving-level modes ("auto", "view") are not algorithms and are handled
// by the callers.
func ParseAlgorithm(name string) (Algorithm, error) { return core.ParseAlgorithm(name) }

// AttributeTable is the paper's node-attribute set Λ = {a1,…,at}; derive
// relevance vectors from it with its Relevance* methods or LogisticModel.
type AttributeTable = attr.Table

// NewAttributeTable returns an empty attribute table for n nodes.
func NewAttributeTable(n int) *AttributeTable { return attr.NewTable(n) }

// LogisticModel is a classifier-style relevance function over attributes
// (problem P1's "how likely a user is a database expert").
type LogisticModel = attr.LogisticModel

// QueueOrder selects LONA-Forward's processing order.
type QueueOrder = core.QueueOrder

// Queue orders for LONA-Forward.
const (
	OrderNatural    = core.OrderNatural
	OrderDegreeDesc = core.OrderDegreeDesc
	OrderScoreDesc  = core.OrderScoreDesc
)

// View is a materialized neighborhood-aggregate view with incremental
// maintenance under relevance updates (UpdateScore) and structural edits
// (ApplyEdits) — the dynamic-network extension for workloads like the
// paper's "large, dynamic intrusion network".
type View = core.View

// Edit is one structural mutation of a graph: an edge insertion or
// removal, or a node addition. Batches apply atomically through
// Graph.ApplyEdits, View.ApplyEdits, and the server's /v1/edges.
type Edit = graph.Edit

// EditOp identifies an Edit's kind.
type EditOp = graph.EditOp

// The structural edit kinds.
const (
	EditAddEdge    = graph.EditAddEdge
	EditRemoveEdge = graph.EditRemoveEdge
	EditAddNode    = graph.EditAddNode
)

// ViewEditResult reports what a View.ApplyEdits batch did.
type ViewEditResult = core.EditResult

// NewView materializes F_sum for every node and keeps it consistent under
// UpdateScore calls at O(|S_h(v)|) per update.
func NewView(g *Graph, scores []float64, h int) (*View, error) {
	return core.NewView(g, scores, h)
}

// Server is a long-lived concurrent query service over one
// (graph, relevance, h) triple: an HTTP/JSON front-end to the engine with
// a generation-keyed result cache, singleflight collapsing of duplicate
// in-flight queries, live score updates repairing a materialized View, and
// serving metrics. cmd/lonad wraps it as a daemon; construct with
// NewServer and mount Handler() on any http.Server.
type Server = server.Server

// ServerOptions tunes a Server (cache capacity in bytes and sharding,
// worker parallelism, the wide-event logger, SLO, and trace exporter).
// The zero value is a sensible default.
type ServerOptions = server.Options

// ServerSLO is a latency service-level objective judged against the
// server's rolling 120s latency window: Target fraction of queries must
// finish within Latency. When the window's error-budget burn rate
// reaches 1, /v1/health flips 200 → 503 ("degraded") and /metrics
// exposes the burn rate. The zero value disables SLO tracking.
type ServerSLO = server.SLO

// ServerSLOStats is the SLO section of /v1/stats and /v1/health.
type ServerSLOStats = server.SLOStats

// OTLPExporter ships query traces to an OpenTelemetry collector as
// OTLP/JSON span batches from a bounded background queue — set it as
// ServerOptions.TraceExporter. Close it on shutdown to flush.
type OTLPExporter = otlp.Exporter

// OTLPExporterOptions tunes the exporter (sampling ratio, queue size).
type OTLPExporterOptions = otlp.ExporterOptions

// NewOTLPExporter starts an exporter POSTing trace batches to
// <endpoint>/v1/traces (Jaeger, Tempo, or any OTLP/HTTP collector).
func NewOTLPExporter(endpoint string, opts OTLPExporterOptions) *OTLPExporter {
	return otlp.NewExporter(endpoint, opts)
}

// ServerQueryRequest is a decoded /v1/topk request — including the
// per-request timeout_ms deadline, traversal budget, and candidate
// restriction — usable directly against Server.Run for in-process serving.
type ServerQueryRequest = server.QueryRequest

// ServerScoreUpdate is one relevance mutation of a /v1/scores batch.
type ServerScoreUpdate = server.ScoreUpdate

// ServerEditRequest is one structural mutation of a /v1/edges batch.
type ServerEditRequest = server.EditRequest

// ServerEditsResult reports what an applied /v1/edges batch did.
type ServerEditsResult = server.EditsResult

// ServerAnswer is a query response — /v1/topk's wire format, returned
// directly by Server.Run for in-process callers.
type ServerAnswer = server.Answer

// ServerTrace is the assembled execution timeline a /v1/topk answer
// carries when the request asked "trace": true.
type ServerTrace = server.TraceOut

// TraceRecorder collects one query's execution timeline. Set it as
// Query.Tracer to trace an in-process engine or coordinator run; a nil
// recorder records nothing, so untraced queries pay (almost) nothing.
type TraceRecorder = trace.Recorder

// TraceEvent is one timeline entry: offset, kind, shard scope, payload.
type TraceEvent = trace.Event

// QueryTrace is a snapshot of a recorder's timeline; Format renders it
// for terminals.
type QueryTrace = trace.Trace

// NewTraceRecorder returns a fresh coordinator-scope recorder with a
// random trace id.
func NewTraceRecorder() *TraceRecorder {
	return trace.New()
}

// MarkServerShutdown returns a context whose descendants report
// server-initiated cancellation: pass the result as an http.Server
// BaseContext and flip the probe to true before cancelling in-flight
// requests at a drain deadline, so abandoned queries answer 503
// (retryable) instead of 499 (client gone). cmd/lonad uses it for
// graceful shutdown.
func MarkServerShutdown(ctx context.Context, drained func() bool) context.Context {
	return server.MarkShutdown(ctx, drained)
}

// NewServer validates the inputs and returns a ready-to-serve Server:
// engine indexes prepared, materialized view built (undirected graphs),
// cache and metrics initialized.
func NewServer(g *Graph, scores []float64, h int, opts ServerOptions) (*Server, error) {
	return server.New(g, scores, h, opts)
}

// Coordinator executes queries across partition-local engines and merges
// the partial top-k lists with TA-style early termination — the same
// Run(ctx, Query) shape as Engine, Planner, and View, returning answers
// byte-identical to a single engine. Construct with NewLocalCoordinator
// (every shard in this process) or NewWorkerCoordinator (shards behind
// lonad -shard-worker processes). Server does this wiring itself via
// ServerOptions.Shards / ServerOptions.ShardWorkers.
type Coordinator = cluster.Coordinator

// CoordinatorOptions tunes the fan-out (concurrency, early-termination).
type CoordinatorOptions = cluster.Options

// NewLocalCoordinator partitions (g, scores, h) into parts shards
// in-process — BFS-grown, boundary-refined, each closed under h hops —
// and returns a coordinator fanning queries out across them.
func NewLocalCoordinator(g *Graph, scores []float64, h, parts int, opts CoordinatorOptions) (*Coordinator, error) {
	local, err := cluster.NewLocal(g, scores, h, parts)
	if err != nil {
		return nil, err
	}
	return cluster.NewCoordinator(local, opts), nil
}

// NewWorkerCoordinator dials lonad shard workers (one URL per shard, in
// shard-index order) and returns a coordinator fanning queries out to
// them over HTTP. The dial probes every worker's /v1/shard/health and
// fails fast on a mis-wired topology.
func NewWorkerCoordinator(ctx context.Context, workers []string, opts CoordinatorOptions) (*Coordinator, error) {
	transport, err := cluster.NewHTTP(ctx, workers, nil)
	if err != nil {
		return nil, err
	}
	return cluster.NewCoordinator(transport, opts), nil
}

// NewShardWorkerHandler builds shard index of the parts-way partitioning
// of (g, scores, h) and returns the HTTP handler serving it
// (/v1/shard/query/stream, /v1/shard/bound, /v1/shard/scores,
// /v1/shard/edits, /v1/shard/replay, /v1/shard/health) — the worker half of the coordinator/worker
// protocol, which cmd/lonad's -shard-worker mode mounts as a daemon. The
// worker keeps the full graph alongside its shard, so structural edit
// batches fanned out by the coordinator re-derive the same successor
// topology on every process: each process applies the identical
// deterministic batch, extends the identical deterministic partitioning,
// and rebuilds its shard only when the batch touches its h-hop closure.
func NewShardWorkerHandler(g *Graph, scores []float64, h, parts, index int) (http.Handler, error) {
	worker, err := cluster.NewGraphWorker(g, scores, h, parts, index)
	if err != nil {
		return nil, err
	}
	worker.Shard().Engine().PrepareNeighborhoodIndex(0)
	return worker.Handler(), nil
}

// SnapshotReader is an open columnar snapshot: a versioned, checksummed,
// mmap-able serialization of a (graph, scores, h, N(v) index) quadruple
// (or one shard's closure of it). The accessors hand out views that alias
// the mapped file — zero-copy, so opening a multi-gigabyte snapshot costs
// milliseconds — which means the reader must stay open for as long as any
// engine built over those views is in use, and the views are read-only.
type SnapshotReader = snapshot.Reader

// OpenSnapshot maps the snapshot file at path (mmap on unix, a plain read
// elsewhere) and validates it end to end: magic, version, header/table/
// per-section CRC-32C checksums, canonical layout, and the structural CSR
// and index invariants. Close the reader only after every engine using
// its views is done.
func OpenSnapshot(path string) (*SnapshotReader, error) { return snapshot.Open(path) }

// WriteSnapshot persists (g, scores, h) plus the N(v) neighborhood index
// (built here if needed — snapshots exist to make the next boot free) as
// a whole-graph columnar snapshot at path, written atomically via temp
// file + rename. Boot from it with OpenSnapshot + NewEngineFromSnapshot,
// lonad -snapshot, or ServerOptions.Index.
func WriteSnapshot(path string, g *Graph, scores []float64, h int) error {
	w, err := snapshot.NewWriter(g, scores, h, graph.BuildNeighborhoodIndex(g, h, 0))
	if err != nil {
		return err
	}
	return w.WriteFile(path)
}

// NewEngineFromSnapshot stands an engine up over an open snapshot's
// mapped arrays — graph, scores, and N(v) index adopted without copying
// or rebuilding, so cold start is file-open cost, not index-build cost.
// The reader must outlive the engine.
func NewEngineFromSnapshot(r *SnapshotReader) (*Engine, error) {
	e, err := core.NewEngine(r.Graph(), r.Scores(), r.H())
	if err != nil {
		return nil, err
	}
	if ix := r.Index(); ix != nil {
		if err := e.AdoptNeighborhoodIndex(ix); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// ServerSnapshotSource describes the snapshot a server booted from, for
// ServerOptions.SnapshotSource (surfaced by /v1/stats and /metrics).
type ServerSnapshotSource = server.SnapshotSource

// Journal is an append-only, CRC-checked commit log recording every
// applied score-update and structural-edit batch, generation-stamped.
// Pass one to ServerOptions.Journal and the server journals each batch
// it applies and replays the suffix past its boot generation on
// construction — snapshot@g + replay(g..h) reconstructs generation h
// bit-identically. A torn tail (crash mid-append) is truncated at Open;
// mid-file corruption fails loudly.
type Journal = journal.Journal

// JournalAnchor names the snapshot a journal's history is anchored to:
// boot from Anchor.Snapshot, replay commits past Anchor.Generation.
type JournalAnchor = journal.Anchor

// OpenJournal opens (or creates) the commit journal in dir, recovering
// a torn tail if the last append was interrupted.
func OpenJournal(dir string) (*Journal, error) { return journal.Open(dir) }

// ReadJournalAnchor reports the snapshot anchor recorded in dir, with
// ok=false when no anchor has been written yet. It does not open the
// journal, so a daemon can decide its boot source before touching the
// log.
func ReadJournalAnchor(dir string) (JournalAnchor, bool, error) { return journal.ReadAnchor(dir) }

// NewShardWorkerHandlerFromSnapshot mounts one shard restored from a
// shard snapshot (lonagen -snapshot with -shards, or a previously
// persisted worker state) as the shard-protocol HTTP handler. Booting
// this way skips the partition + closure + subgraph + index build
// entirely, but the worker serves queries and score updates only:
// structural edit batches need the full graph, which the snapshot
// deliberately does not carry, so /v1/shard/edits rejects. The reader
// must stay open for the worker's lifetime.
//
// The worker records the snapshot as its boot provenance: GET
// /v1/shard/health reports the file path and resumes the generation
// counter from the snapshot's stamped generation, keeping it aligned
// with a coordinator restored from the same snapshot lineage.
func NewShardWorkerHandlerFromSnapshot(r *SnapshotReader) (http.Handler, error) {
	s, err := cluster.ShardFromSnapshot(r)
	if err != nil {
		return nil, err
	}
	w := cluster.NewWorker(s)
	w.SetProvenance(r.Path(), r.Generation())
	return w.Handler(), nil
}

// CollaborationNetwork simulates a co-authorship network in the shape of
// the paper's cond-mat 2005 dataset (~40k nodes / ~180k edges at scale 1).
func CollaborationNetwork(scale float64, seed int64) *Graph {
	return gen.Collaboration(gen.DatasetScale(scale), seed)
}

// CitationNetwork simulates a patent-citation network in the shape of the
// paper's cite75_99 dataset (scaled; see DESIGN.md §4).
func CitationNetwork(scale float64, seed int64) *Graph {
	return gen.Citation(gen.DatasetScale(scale), seed)
}

// IntrusionNetwork simulates a sparse hub-dominated IP contact network in
// the shape of the paper's proprietary IPsec dataset.
func IntrusionNetwork(scale float64, seed int64) *Graph {
	return gen.Intrusion(gen.DatasetScale(scale), seed)
}

// CommunityNetwork builds a planted-partition graph: communities of
// n/communities nodes each, with intra-community edge probability pin and
// inter-community probability pout. Node u belongs to community
// u % communities. Useful for module-structured domains such as gene
// co-expression networks.
func CommunityNetwork(n, communities int, pin, pout float64, seed int64) *Graph {
	return gen.PlantedPartition(n, communities, pin, pout, seed)
}

// MixtureScores builds the paper's evaluation relevance function: an
// exponential random assignment with the given blacking ratio r (fraction
// of nodes pinned to 1) blended with a random-walk smoothing over g.
func MixtureScores(g *Graph, blackingRatio float64, seed int64) []float64 {
	return relevance.Mixture(g, relevance.MixtureParams{BlackingRatio: blackingRatio}, seed)
}

// BinaryScores builds a sparse 0/1 relevance vector with the given
// blacking ratio.
func BinaryScores(n int, blackingRatio float64, seed int64) []float64 {
	return relevance.Binary(n, blackingRatio, seed)
}

// WriteGraph writes g in the binary CSR format.
func WriteGraph(w io.Writer, g *Graph) error { return netio.WriteBinaryGraph(w, g) }

// ReadGraph reads a binary CSR graph.
func ReadGraph(r io.Reader) (*Graph, error) { return netio.ReadBinaryGraph(r) }

// WriteScores writes a relevance vector in binary form.
func WriteScores(w io.Writer, scores []float64) error { return netio.WriteScores(w, scores) }

// ReadScores reads a binary relevance vector.
func ReadScores(r io.Reader) ([]float64, error) { return netio.ReadScores(r) }

// ReadGML parses a GML network file (the format public archives such as
// Newman's cond-mat 2005 use). ids maps dense node id → original GML id.
func ReadGML(r io.Reader) (g *Graph, ids []int, err error) { return netio.ReadGML(r) }

// WriteGML writes g as a GML file interoperable with standard tooling.
func WriteGML(w io.Writer, g *Graph) error { return netio.WriteGML(w, g) }
