package server

import (
	"context"
	"errors"
	"math/bits"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/otlp"
)

// This file declares every serving scalar once. Each field of Stats and
// its section types carries its /v1/stats location in its json tag and,
// when it is also exported to Prometheus, a `prom:"name,type,help"` tag
// naming its lona_* family; prom.go renders /metrics by walking one
// Stats value. Fields tagged json:"-" exist for /metrics alone. JSON
// values keyed *_ms or *_us are exported in seconds.

// histBuckets is the bucket count of every log2 histogram.
const histBuckets = 48

// latencyHist is a lock-free log2-bucketed histogram: bucket i holds the
// integer observations v with bits.Len64(v) == i, i.e. [2^(i-1), 2^i).
// Latencies are observed in microseconds. Quantiles read the bucket
// upper bound, so reported p50/p99 are conservative (within 2× of the
// true value) — accurate enough to watch orders-of-magnitude effects
// like cache hits vs cold queries.
type latencyHist struct {
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

func (h *latencyHist) observe(d time.Duration) {
	h.observeValue(d.Microseconds())
}

// observeValue records a raw non-negative integer observation — the same
// log2 bucketing reused as a generic value histogram (λ raises per
// query, per-shard result items). For latency use the µs-denominated
// observe above.
func (h *latencyHist) observeValue(v int64) {
	v = max(v, 0)
	h.sum.Add(v)
	h.buckets[min(bits.Len64(uint64(v)), histBuckets-1)].Add(1)
}

// load reads the histogram out of its atomics, each once. The count is
// the bucket total, so quantiles stay consistent with it even when the
// read races observeValue; only the sum may be off by the racing
// observations.
func (h *latencyHist) load() histCounts {
	c := histCounts{sum: h.sum.Load()}
	for i := range h.buckets {
		c.buckets[i] = h.buckets[i].Load()
		c.count += c.buckets[i]
	}
	return c
}

func (h *latencyHist) reset() {
	h.sum.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// histCounts is a histogram read out of its atomics: what summaries,
// quantiles and the /metrics bucket rendering work from.
type histCounts struct {
	buckets    [histBuckets]int64
	count, sum int64
}

func (c *histCounts) add(o histCounts) {
	for i := range c.buckets {
		c.buckets[i] += o.buckets[i]
	}
	c.count += o.count
	c.sum += o.sum
}

// quantile returns the bucket-upper-bound estimate of quantile q in [0,1].
func (c histCounts) quantile(q float64) float64 {
	if c.count == 0 {
		return 0
	}
	rank := min(int64(q*float64(c.count)), c.count-1)
	var seen int64
	for i := range c.buckets {
		seen += c.buckets[i]
		if seen > rank {
			return float64(uint64(1) << i)
		}
	}
	return float64(uint64(1) << (histBuckets - 1))
}

// LatencySummary is one histogram rendered for /v1/stats.
type LatencySummary struct {
	Count  int64   `json:"count"`
	MeanUS float64 `json:"mean_us"`
	P50US  float64 `json:"p50_us"`
	P99US  float64 `json:"p99_us"`
}

func (c histCounts) summary() LatencySummary {
	s := LatencySummary{Count: c.count, P50US: c.quantile(0.50), P99US: c.quantile(0.99)}
	if c.count > 0 {
		s.MeanUS = float64(c.sum) / float64(c.count)
	}
	return s
}

// metrics holds the query-path side of every serving counter: one atomic
// per Stats field of the same name, grouped by the section it fills.
// Stats copies each group with loadCounters, the one place they are
// read. The label → histogram map is guarded by mu (labels are few and
// stable, so the map rarely grows past the first requests).
type metrics struct {
	start time.Time

	// root holds the counters of Stats' own fields, outside any section.
	root struct {
		UpdateBatches, Mutations, SlowQueries, QueryTimeouts, QueryCancels atomic.Int64
	}
	cache   struct{ Hits, Misses, Collapsed atomic.Int64 }
	edits   struct{ Batches, EdgesAdded, EdgesRemoved, NodesAdded, Repaired, Rebuilds atomic.Int64 }
	engine  struct{ Evaluated, Pruned, Distributed, Visited atomic.Int64 }
	cluster struct {
		Reshards, ShardQueries, ShardsCut, Messages, PartialBatches,
		BudgetRedistributed, LambdaRaises, LambdaPrimed, GrantRequests atomic.Int64
	}
	snapshot struct{ Written atomic.Int64 }
	journal  struct {
		Appends, Replayed, AsOfQueries, AsOfHits, Catchups, CatchupCommits atomic.Int64
	}

	// window is the rolling 120s latency histogram beside the cumulative
	// per-algorithm hists: same log2 buckets, but old traffic ages out,
	// so it answers "what is p99 right now" and feeds the SLO burn rate.
	window windowHist

	// Value histograms (log2-bucketed, unitless): λ raises per sharded
	// query, and result items shipped per launched shard query — the
	// message-size observation the adaptive-tuning roadmap items consume.
	lambdaPerQuery latencyHist
	shardItems     latencyHist

	mu    sync.RWMutex
	hists map[string]*latencyHist
}

func newMetrics() *metrics {
	return &metrics{start: time.Now(), hists: make(map[string]*latencyHist)}
}

// hist returns the histogram for an algorithm label, creating it on first
// use.
func (m *metrics) hist(label string) *latencyHist {
	m.mu.RLock()
	h, ok := m.hists[label]
	m.mu.RUnlock()
	if ok {
		return h
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if h, ok = m.hists[label]; ok {
		return h
	}
	h = &latencyHist{}
	m.hists[label] = h
	return h
}

// noteQueryAborted classifies a query error into the timeout/cancellation
// counters; non-context errors (validation and the like) are not counted.
func (m *metrics) noteQueryAborted(err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		m.root.QueryTimeouts.Add(1)
	case errors.Is(err, context.Canceled):
		m.root.QueryCancels.Add(1)
	}
}

func (m *metrics) recordQuery(label string, d time.Duration, stats core.QueryStats) {
	m.hist(label).observe(d)
	m.engine.Evaluated.Add(int64(stats.Evaluated))
	m.engine.Pruned.Add(int64(stats.Pruned))
	m.engine.Distributed.Add(int64(stats.Distributed))
	m.engine.Visited.Add(int64(stats.Visited))
}

// loadCounters copies each atomic.Int64 field of the struct src points
// at into the same-named field of the struct dst points at.
func loadCounters(dst, src any) {
	d, sv := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src).Elem()
	for i := 0; i < sv.NumField(); i++ {
		c := sv.Field(i).Addr().Interface().(*atomic.Int64)
		d.FieldByName(sv.Type().Field(i).Name).SetInt(c.Load())
	}
}

// CacheStats is the cache section of /v1/stats.
type CacheStats struct {
	Hits    int64   `json:"hits" prom:"lona_cache_hits_total,counter,Result-cache hits."`
	Misses  int64   `json:"misses" prom:"lona_cache_misses_total,counter,Result-cache misses (queries executed)."`
	HitRate float64 `json:"hit_rate"`
	Entries int     `json:"entries" prom:"lona_cache_entries,gauge,Resident result-cache entries."`
	// Collapsed counts duplicate in-flight queries absorbed by singleflight.
	Collapsed int64 `json:"collapsed" prom:"lona_cache_collapsed_total,counter,Duplicate in-flight queries absorbed by singleflight."`
	// Bytes is the approximate resident size of all cached answers — the
	// same per-entry sizing eviction enforces against CapacityBytes.
	Bytes         int64 `json:"cache_bytes" prom:"lona_cache_bytes,gauge,Approximate resident bytes of cached answers."`
	CapacityBytes int64 `json:"cache_capacity_bytes" prom:"lona_cache_capacity_bytes,gauge,Result-cache byte capacity."`
}

// EngineStats sums the core.QueryStats of every executed query — the
// quantities the paper's pruning bounds shrink. A healthy cache keeps
// these flat while queries repeat.
type EngineStats struct {
	Evaluated   int64 `json:"evaluated" prom:"lona_engine_evaluated_total,counter,Nodes whose aggregate was computed exactly."`
	Pruned      int64 `json:"pruned" prom:"lona_engine_pruned_total,counter,Nodes skipped by an upper bound."`
	Distributed int64 `json:"distributed" prom:"lona_engine_distributed_total,counter,Scores spread by backward distribution."`
	Visited     int64 `json:"visited" prom:"lona_engine_visited_total,counter,Nodes touched by h-hop traversals."`
}

// EditStats is the structural-mutation section of /v1/stats: what the
// /v1/edges batches did to the topology and how much incremental repair
// they cost (nodes recomputed instead of a full rebuild).
type EditStats struct {
	Batches      int64 `json:"batches" prom:"lona_edit_batches_total,counter,Applied structural edit batches."`
	EdgesAdded   int64 `json:"edges_added" prom:"lona_edges_added_total,counter,Edges inserted by edit batches."`
	EdgesRemoved int64 `json:"edges_removed" prom:"lona_edges_removed_total,counter,Edges removed by edit batches."`
	NodesAdded   int64 `json:"nodes_added" prom:"lona_nodes_added_total,counter,Nodes appended by edit batches."`
	// Repaired sums the per-batch affected-node counts — the incremental
	// work actually paid, vs Batches × Nodes for full rebuilds.
	Repaired int64 `json:"repaired" prom:"lona_edit_repaired_nodes_total,counter,Nodes incrementally repaired by edit batches."`
	// Rebuilds counts batches that fell back to a from-scratch rebuild
	// (the affected closure covered most of the graph).
	Rebuilds int64 `json:"rebuilds" prom:"lona_edit_rebuilds_total,counter,Edit batches that fell back to a from-scratch rebuild."`
}

// ShardLatency is one shard's row of the cluster stats section.
type ShardLatency struct {
	Shard   int            `json:"shard"`
	Owned   int            `json:"owned,omitempty"` // nodes this shard ranks
	Latency LatencySummary `json:"latency"`
}

// ClusterStats is the sharded-execution section of /v1/stats, present
// only when the server fans queries out through a cluster coordinator.
type ClusterStats struct {
	Shards int  `json:"shards" prom:"lona_shards,gauge,Shards queries fan out across."`
	Remote bool `json:"remote"` // shards live behind HTTP workers
	// TopologyGen is the shard-topology generation embedded in every
	// cache key; Reshards counts how often it was bumped.
	TopologyGen uint64 `json:"topology_generation"`
	Reshards    int64  `json:"reshards" prom:"lona_reshards_total,counter,Shard-topology rebuilds via /v1/reshard."`
	// EdgeCut and BoundaryNodes describe the partitioning itself: cut
	// edges (in-process topologies only) and ghost nodes replicated into
	// shard closures.
	EdgeCut       int   `json:"edge_cut,omitempty" prom:"lona_cluster_edge_cut,gauge,Graph edges cut by the shard partitioning (in-process shards only)."`
	BoundaryNodes int64 `json:"boundary_nodes" prom:"lona_cluster_boundary_nodes,gauge,Ghost nodes replicated into shard closures."`
	// ShardQueries / ShardsCut / Messages accumulate over every fan-out:
	// shard queries launched, shards ended early by the TA merge bound,
	// and cross-shard messages (bound probes, query round-trips, result
	// items shipped, partial frames, λ acks).
	ShardQueries int64 `json:"shard_queries" prom:"lona_shard_queries_total,counter,Shard queries launched across all fan-outs."`
	ShardsCut    int64 `json:"shards_cut" prom:"lona_shards_cut_total,counter,Shards ended early by the TA merge bound."`
	Messages     int64 `json:"messages" prom:"lona_cluster_messages_total,counter,Cross-shard messages."`
	// PartialBatches counts streamed partial frames folded into merges;
	// BudgetRedistributed counts traversals moved from cut shards'
	// stranded budget slices to shards that could still use them;
	// LambdaRaises counts folded batches that actually tightened λ.
	PartialBatches      int64 `json:"partial_batches" prom:"lona_partial_batches_total,counter,Streamed partial frames folded into merges."`
	BudgetRedistributed int64 `json:"budget_redistributed" prom:"lona_budget_redistributed_total,counter,Traversals moved from cut shards to still-running ones."`
	LambdaRaises        int64 `json:"lambda_raises" prom:"lona_lambda_raises_total,counter,Folded batches that tightened the merge threshold."`
	// LambdaPrimed counts queries whose launch λ was seeded from per-shard
	// score sketches (a zero-message warm start); GrantRequests counts
	// mid-run budget grant round trips served over the ack stream.
	LambdaPrimed  int64          `json:"lambda_primed" prom:"lona_lambda_primed_total,counter,Queries whose launch lambda was seeded from score sketches."`
	GrantRequests int64          `json:"grant_requests" prom:"lona_grant_requests_total,counter,Mid-run budget grant round trips served over the ack stream."`
	PerShard      []ShardLatency `json:"per_shard"`
}

// JournalStats is the versioned-graph-lake section of /v1/stats: the
// commit journal's shape plus the time-travel and catch-up counters.
// Present whenever the server retains generations (always), with the
// journal fields zero when no -journal is configured.
type JournalStats struct {
	// Enabled reports whether a commit journal is configured.
	Enabled bool `json:"enabled"`
	// Depth is the number of commits currently in the journal log;
	// LastGen is the newest journaled generation.
	Depth   int    `json:"depth" prom:"lona_journal_depth,gauge,Commits resident in the journal log."`
	LastGen uint64 `json:"last_generation,omitempty" prom:"lona_journal_last_generation,gauge,Generation of the newest journaled commit."`
	// Appends counts commits appended this process; Replayed counts
	// commits replayed through the incremental apply paths at boot.
	Appends  int64 `json:"appends" prom:"lona_journal_appends_total,counter,Mutation batches durably appended to the journal."`
	Replayed int64 `json:"replayed" prom:"lona_journal_replayed_commits_total,counter,Journal commits replayed through the incremental apply path (boot catch-up)."`
	// Retained is the current generation-ring depth (live generation
	// included); OldestRetained is the oldest generation as_of can name.
	Retained       int    `json:"retained" prom:"lona_retained_generations,gauge,Generations resident in the time-travel ring."`
	OldestRetained uint64 `json:"oldest_retained" prom:"lona_oldest_retained_generation,gauge,Oldest generation an as_of query can name."`
	// AsOfQueries counts queries that named a non-live retained
	// generation; AsOfHits counts those served straight from the result
	// cache (the recorded live answer).
	AsOfQueries int64 `json:"as_of_queries" prom:"lona_asof_queries_total,counter,Queries answered as of a retained past generation."`
	AsOfHits    int64 `json:"as_of_hits" prom:"lona_asof_hits_total,counter,as_of queries served from the recorded live answer."`
	// Catchups counts worker catch-up rounds that replayed a journal
	// suffix into at least one stale worker; CatchupCommits sums the
	// commits shipped.
	Catchups       int64 `json:"catchups" prom:"lona_catchups_total,counter,Replay-based worker catch-up passes."`
	CatchupCommits int64 `json:"catchup_commits" prom:"lona_catchup_commits_total,counter,Journal commits shipped to lagging workers."`
}

// WindowSummary is the LatencySummary of the rolling window, with its
// count and p99 exported on /metrics.
type WindowSummary struct {
	Count  int64   `json:"count" prom:"lona_latency_window_queries,gauge,Queries observed in the rolling 120s window."`
	MeanUS float64 `json:"mean_us"`
	P50US  float64 `json:"p50_us"`
	P99US  float64 `json:"p99_us" prom:"lona_latency_window_p99_seconds,gauge,Bucket-bound p99 latency over the rolling window."`
}

// Stats is the full /v1/stats response. Every counter and histogram is
// cumulative since Since (the server's start): pair two scrapes' deltas
// with the UptimeS delta to compute rates.
type Stats struct {
	Generation uint64 `json:"generation" prom:"lona_generation,gauge,Current score generation (bumped per update or edit batch)."`
	// Since is the server start time in RFC3339 — the zero point every
	// cumulative counter and histogram below accumulates from; StartTime
	// is the same instant in Unix seconds.
	Since     string  `json:"since"`
	StartTime int64   `json:"-" prom:"lona_start_time_seconds,gauge,Unix time the server started."`
	UptimeS   float64 `json:"uptime_s" prom:"lona_uptime_seconds,gauge,Seconds since the server started."`
	// TopologyGen is Cluster.TopologyGen, exported on /metrics even when
	// the server is unsharded.
	TopologyGen   uint64    `json:"-" prom:"lona_topology_generation,gauge,Current shard-topology generation (bumped per reshard)."`
	Nodes         int       `json:"nodes" prom:"lona_graph_nodes,gauge,Nodes in the current-generation graph."`
	Edges         int64     `json:"edges" prom:"lona_graph_edges,gauge,Edges in the current-generation graph."`
	H             int       `json:"h" prom:"lona_h,gauge,Neighborhood radius h the server answers for."`
	UpdateBatches int64     `json:"update_batches" prom:"lona_update_batches_total,counter,Applied score-update batches."`
	Mutations     int64     `json:"mutations" prom:"lona_score_mutations_total,counter,Individual score mutations applied."`
	Edits         EditStats `json:"edits"`
	// SlowQueries counts query executions at or over Options.SlowQuery;
	// slow edit and score batches are flagged on their wide events only.
	SlowQueries   int64                     `json:"slow_queries,omitempty" prom:"lona_slow_queries_total,counter,Query executions at or over the slow-query threshold."`
	QueryTimeouts int64                     `json:"query_timeouts" prom:"lona_query_timeouts_total,counter,Queries abandoned at a deadline."`
	QueryCancels  int64                     `json:"query_cancels" prom:"lona_query_cancels_total,counter,Queries cancelled by the caller."`
	Cache         CacheStats                `json:"cache"`
	Engine        EngineStats               `json:"engine"`
	Cluster       *ClusterStats             `json:"cluster,omitempty"`
	Snapshot      *SnapshotStats            `json:"snapshot"` // always present
	Journal       *JournalStats             `json:"journal,omitempty"`
	Latency       map[string]LatencySummary `json:"latency"`
	// LatencyWindow summarizes the rolling 120s window — "now", where
	// Latency above is "since boot".
	LatencyWindow WindowSummary `json:"latency_window"`
	// SLO judges the window against the configured latency objective;
	// absent when no SLO is configured.
	SLO *SLOStats `json:"slo,omitempty"`
	// OTLP is the trace exporter's accounting (exported/dropped/sampled
	// batches); absent when no -otlp-endpoint is configured.
	OTLP *otlp.ExporterStats `json:"otlp,omitempty"`

	// window and cl are what /metrics renders whole from the same read:
	// the rolling-window buckets behind LatencyWindow and the cluster
	// state behind Cluster.
	window histCounts
	cl     *clusterState
}

// Stats snapshots the serving metrics: every counter is read once, and
// /v1/stats and /metrics both render the returned value.
func (s *Server) Stats() Stats {
	m := s.metrics
	st := Stats{
		Since:     m.start.UTC().Format(time.RFC3339),
		StartTime: m.start.Unix(),
		UptimeS:   time.Since(m.start).Seconds(),
		Latency:   make(map[string]LatencySummary),
		Snapshot:  &SnapshotStats{},
		Journal:   &JournalStats{},
	}
	loadCounters(&st, &m.root)
	loadCounters(&st.Edits, &m.edits)
	loadCounters(&st.Cache, &m.cache)
	loadCounters(&st.Engine, &m.engine)
	loadCounters(st.Snapshot, &m.snapshot)
	loadCounters(st.Journal, &m.journal)
	if total := st.Cache.Hits + st.Cache.Misses; total > 0 {
		st.Cache.HitRate = float64(st.Cache.Hits) / float64(total)
	}
	m.mu.RLock()
	for label, h := range m.hists {
		st.Latency[label] = h.load().summary()
	}
	m.mu.RUnlock()

	s.mu.RLock()
	st.Generation, st.TopologyGen, st.cl = s.gen, s.topo, s.cl
	g := s.engine.Graph()
	st.Nodes, st.Edges, st.H = g.NumNodes(), int64(g.NumEdges()), s.engine.H()
	st.Journal.Retained = len(s.ring)
	if len(s.ring) > 0 {
		st.Journal.OldestRetained = s.ring[0].gen
	}
	s.mu.RUnlock()

	if s.cache != nil {
		st.Cache.Entries = s.cache.len()
		st.Cache.Bytes = s.cache.bytes()
		st.Cache.CapacityBytes = s.cache.capacityBytes()
	}
	if cl := st.cl; cl != nil {
		topology := cl.coord.Transport().Topology()
		st.Cluster = &ClusterStats{
			Shards: cl.shards, Remote: cl.remote, TopologyGen: st.TopologyGen,
			EdgeCut: topology.EdgeCut, BoundaryNodes: topology.BoundaryNodes,
		}
		loadCounters(st.Cluster, &m.cluster)
		for i, h := range cl.hists {
			sl := ShardLatency{Shard: i, Latency: h.load().summary()}
			if i < len(topology.OwnedSizes) {
				sl.Owned = topology.OwnedSizes[i]
			}
			st.Cluster.PerShard = append(st.Cluster.PerShard, sl)
		}
	}
	if src := s.opts.SnapshotSource; src != nil {
		st.Snapshot.SnapshotSourceStats = &SnapshotSourceStats{
			Source:           src.Path,
			SourceModTime:    src.ModTime.UTC().Format(time.RFC3339),
			SourceMTime:      src.ModTime.Unix(),
			SourceBytes:      src.Bytes,
			SourceGeneration: src.Generation,
			LoadMS:           float64(src.LoadDuration.Microseconds()) / 1000,
		}
	}
	if j := s.opts.Journal; j != nil {
		st.Journal.Enabled = true
		st.Journal.Depth = j.Depth()
		st.Journal.LastGen = j.LastGen()
	}
	ws := m.window.snapshot()
	st.window = ws.histCounts
	st.LatencyWindow = WindowSummary(ws.summary())
	st.SLO = s.opts.SLO.stats(ws)
	if exp := s.opts.TraceExporter; exp != nil {
		es := exp.Stats()
		st.OTLP = &es
	}
	return st
}
