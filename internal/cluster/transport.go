package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/partition"
)

// Transport reaches the shards of one partitioned dataset. Two
// implementations exist: Local (every shard in this process, one
// goroutine each — one lonad serving all shards on one box) and HTTP
// (each shard behind a lonad worker process). The Coordinator is written
// against this interface only, so the fan-out/merge logic is identical
// in-process and across machines.
type Transport interface {
	// Shards returns the number of shards in the topology.
	Shards() int
	// Nodes returns the node count of the full graph, for global
	// candidate validation.
	Nodes() int
	// Snapshot returns a consistent view of every shard for the duration
	// of one query, mirroring internal/server's generation-snapshot
	// discipline: a score update concurrent with a query must not let the
	// query observe some shards before the update and some after. The
	// HTTP transport returns itself — cross-process snapshot isolation
	// would need versioned reads, which remote workers do not promise.
	Snapshot() QueryView
	// ApplyScores applies a relevance update batch to every shard that
	// holds an affected node (owned or ghost copy).
	ApplyScores(ctx context.Context, updates []ScoreUpdate) error
	// ApplyEdits applies a structural edit batch (edge insertions and
	// removals, node additions) to the sharded topology: every shard
	// whose h-hop closure is affected is rebuilt over the successor graph
	// — ghost sets grow or shrink accordingly and memoized merge bounds
	// are recertified — while unaffected shards carry over untouched.
	ApplyEdits(ctx context.Context, edits []graph.Edit) error
	// Topology describes the partitioning for stats reporting; fields a
	// transport cannot know (the HTTP transport never sees the full
	// graph) are zero.
	Topology() Topology
	// Close releases transport resources.
	Close() error
}

// QueryView is one query's consistent view of the shard set.
type QueryView interface {
	// QueryStream executes q (global ids, coordinator-split budget) on a
	// shard, streaming partial top-k batches to emit as the shard
	// certifies results (emit may be called from the transport's
	// goroutine and must be safe to call until QueryStream returns). The
	// shard observes ctrl's threshold λ while running — via a shared
	// atomic in-process, piggybacked on stream acks over HTTP — so the
	// coordinator's merge can cut work inside the shard mid-query, and
	// draws from ctrl's budget redistribution pool mid-run — directly
	// in-process, through the demand-driven grant protocol over HTTP.
	QueryStream(ctx context.Context, shard int, q core.Query, ctrl *StreamControl,
		emit func(StreamBatch)) (core.Answer, error)
	// UpperBound returns the shard's certified merge bound for agg.
	UpperBound(ctx context.Context, shard int, agg core.Aggregate) (float64, error)
	// ScoreSketch returns the shard's owned-score sketch for λ-priming,
	// or nil when none is available (a legacy worker, a failed refresh
	// after an update fan-out). A nil sketch only weakens the primed λ —
	// a lower bound over a subset of shards is still a lower bound — so
	// missing sketches cost pruning, never correctness.
	ScoreSketch(shard int) *Sketch
	// WireAcks reports whether λ acks and budget grants travel as real
	// messages on a stream (HTTP) rather than through shared memory —
	// the signal Breakdown.Messages uses to price them.
	WireAcks() bool
}

// ScoreUpdate is one relevance mutation, in global node ids.
type ScoreUpdate struct {
	Node  int     `json:"node"`
	Score float64 `json:"score"`
}

// Topology summarizes a shard layout for stats reporting.
type Topology struct {
	Shards int `json:"shards"`
	// EdgeCut is the partitioning's structural cut (0 when unknown).
	EdgeCut int `json:"edge_cut,omitempty"`
	// BoundaryNodes is the total ghost replication across shards: each
	// shard's closure size minus its owned size.
	BoundaryNodes int64 `json:"boundary_nodes"`
	// OwnedSizes lists each shard's owned-node count.
	OwnedSizes []int `json:"owned_sizes,omitempty"`
}

// Local is the in-process transport: every shard lives in this process
// and a "shard query" is a direct method call on its engine (the
// coordinator still runs them on separate goroutines, one simulated
// machine each). The shard set is swapped atomically on score updates
// and structural edits, so queries snapshot one generation for their
// whole fan-out.
type Local struct {
	applyMu sync.Mutex // serializes ApplyScores / ApplyEdits batches
	set     atomic.Pointer[shardSet]

	// Full-dataset context for structural edits, guarded by applyMu:
	// the current whole graph, score vector, and partitioning a shard
	// rebuild derives from. nil when the transport wraps prebuilt shards
	// (NewLocalFromShards), which therefore cannot apply edits.
	full *localDataset

	// prepared remembers PrepareIndexes so shards rebuilt after edits
	// keep the transport's index-eagerness.
	prepared    bool
	prepWorkers int
}

// localDataset is the whole-graph state behind an editable Local.
type localDataset struct {
	g      *graph.Graph
	scores []float64
	h      int
	p      *partition.Partitioning
}

// shardSet is one immutable generation of shards plus the full-graph
// facts (node count, edge cut) queries and stats read without locking.
type shardSet struct {
	shards  []*Shard
	nodes   int
	edgeCut int
}

// NewLocal partitions (g, scores, h) into parts shards and returns the
// in-process transport over them.
func NewLocal(g *graph.Graph, scores []float64, h, parts int) (*Local, error) {
	shards, p, err := BuildShards(g, scores, h, parts)
	if err != nil {
		return nil, err
	}
	l := NewLocalFromShards(shards, g.NumNodes(), p.EdgeCut(g))
	l.full = &localDataset{g: g, scores: append([]float64(nil), scores...), h: h, p: p}
	return l, nil
}

// NewLocalFromShards wraps prebuilt shards (tests, custom partitionings).
// The result serves queries and score updates but rejects structural
// edits: without the full graph there is nothing to rebuild a shard from.
func NewLocalFromShards(shards []*Shard, nodes, edgeCut int) *Local {
	l := &Local{}
	l.set.Store(&shardSet{shards: shards, nodes: nodes, edgeCut: edgeCut})
	return l
}

// PrepareIndexes eagerly builds each shard's neighborhood index (workers
// goroutines per build), so first queries do not stall and merge bounds
// are tight from the start. Shards rebuilt by later structural edits
// inherit the same eagerness. The per-edge differential index is left
// lazy: paying it P times eagerly would dominate startup, and the
// planner avoids Forward until it exists — the same contract as
// server.Options.SkipIndexes.
func (l *Local) PrepareIndexes(workers int) {
	l.applyMu.Lock()
	l.prepared, l.prepWorkers = true, workers
	l.applyMu.Unlock()
	for _, s := range l.set.Load().shards {
		s.Engine().PrepareNeighborhoodIndex(workers)
	}
}

// Shards returns the shard count.
func (l *Local) Shards() int { return len(l.set.Load().shards) }

// Nodes returns the full graph's node count at the current generation
// (structural edits can grow it).
func (l *Local) Nodes() int { return l.set.Load().nodes }

// Snapshot pins the current shard generation for one query.
func (l *Local) Snapshot() QueryView { return l.set.Load() }

// QueryStream runs q against the shard with the streaming hooks wired
// straight through: the engine reads λ from ctrl's atomic and draws
// budget top-ups from its pool with no protocol in between.
func (ss *shardSet) QueryStream(ctx context.Context, shard int, q core.Query,
	ctrl *StreamControl, emit func(StreamBatch)) (core.Answer, error) {
	return ss.shards[shard].RunStream(ctx, q, ctrl, ctrl, emit)
}

// ScoreSketch reads the shard's memoized owned-score sketch. The shard
// set is an immutable generation, so the sketch is exact for the scores
// any query on this view observes.
func (ss *shardSet) ScoreSketch(shard int) *Sketch { return ss.shards[shard].Sketch() }

// WireAcks: in-process λ and grants move through shared atomics, not
// messages.
func (ss *shardSet) WireAcks() bool { return false }

// UpperBound returns the shard's memoized merge bound.
func (ss *shardSet) UpperBound(_ context.Context, shard int, agg core.Aggregate) (float64, error) {
	return ss.shards[shard].UpperBound(agg)
}

// ApplyScores derives a new shard generation with the updates applied and
// swaps it in atomically. In-flight queries keep their snapshot; new
// queries see every shard at the new generation. Shards untouched by the
// batch are reused as-is.
func (l *Local) ApplyScores(_ context.Context, updates []ScoreUpdate) error {
	l.applyMu.Lock()
	defer l.applyMu.Unlock()
	cur := l.set.Load()
	for _, u := range updates {
		if u.Node < 0 || u.Node >= cur.nodes {
			return fmt.Errorf("cluster: update node %d out of range [0,%d)", u.Node, cur.nodes)
		}
	}
	next := make([]*Shard, len(cur.shards))
	for i, s := range cur.shards {
		ns, _, err := s.WithUpdates(updates)
		if err != nil {
			return err
		}
		next[i] = ns
	}
	// Keep the whole-graph score vector current: a later structural edit
	// rebuilds shards from it, and a rebuild must never revert scores.
	if l.full != nil {
		for _, u := range updates {
			l.full.scores[u.Node] = u.Score
		}
	}
	l.set.Store(&shardSet{shards: next, nodes: cur.nodes, edgeCut: cur.edgeCut})
	return nil
}

// ApplyEdits derives the successor graph, extends the partitioning over
// any added nodes (deterministically — node v joins part v mod P), and
// rebuilds exactly the shards owning a node whose h-hop neighborhood
// changed: for those shards the closure is regrown — ghost sets widen or
// shrink with the edit — and the fresh Shard recertifies its merge
// bounds from scratch. Every other shard provably kept its closure,
// induced subgraph, and bounds, and carries over untouched. The new
// generation is swapped in atomically, exactly like a score batch.
func (l *Local) ApplyEdits(_ context.Context, edits []graph.Edit) error {
	l.applyMu.Lock()
	defer l.applyMu.Unlock()
	if l.full == nil {
		return errors.New("cluster: transport over prebuilt shards has no full graph to edit")
	}
	d := l.full
	newG, delta, err := d.g.ApplyEdits(edits)
	if err != nil {
		return err
	}
	for len(d.scores) < newG.NumNodes() {
		d.scores = append(d.scores, 0) // added nodes start unscored
	}
	d.p.ExtendTo(newG.NumNodes())

	affected := graph.AffectedNodes(d.g, newG, delta, d.h)
	needRebuild := make([]bool, d.p.P)
	for _, w := range affected {
		needRebuild[d.p.PartOf(w)] = true
	}

	cur := l.set.Load()
	next := make([]*Shard, len(cur.shards))
	for i, s := range cur.shards {
		if !needRebuild[i] {
			next[i] = s
			continue
		}
		ns, err := BuildShard(newG, d.scores, d.h, d.p, i)
		if err != nil {
			return err // nothing swapped in; the old generation still serves
		}
		if l.prepared {
			ns.Engine().PrepareNeighborhoodIndex(l.prepWorkers)
		}
		next[i] = ns
	}
	d.g = newG
	l.set.Store(&shardSet{shards: next, nodes: newG.NumNodes(), edgeCut: d.p.EdgeCut(newG)})
	return nil
}

// Topology reports the in-process layout.
func (l *Local) Topology() Topology {
	cur := l.set.Load()
	t := Topology{Shards: len(cur.shards), EdgeCut: cur.edgeCut}
	for _, s := range cur.shards {
		t.BoundaryNodes += int64(s.BoundaryNodes())
		t.OwnedSizes = append(t.OwnedSizes, s.OwnedCount())
	}
	return t
}

// Close is a no-op for the in-process transport.
func (l *Local) Close() error { return nil }

var _ Transport = (*Local)(nil)

// Partitioning re-derives the partitioning parameters used by BuildShards
// so out-of-process workers agree with an in-process coordinator built
// from the same inputs.
func Partitioning(g *graph.Graph, parts int) (*partition.Partitioning, error) {
	p, err := partition.BFSGrow(g, parts)
	if err != nil {
		return nil, err
	}
	if parts > 1 {
		partition.Refine(g, p, 1.3, 3)
	}
	return p, nil
}
