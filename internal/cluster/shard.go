package cluster

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/partition"
)

// Shard is one partition-local execution unit: a core.Engine over the
// h-hop closure of the nodes the shard owns. Owning the closure — the
// owned nodes plus every "ghost" node within h hops of one — is what
// makes shard answers exact: each owned node's complete neighborhood is
// local, so no traversal ever needs another machine mid-query. Ghost
// nodes are ranked nowhere (each node is owned by exactly one shard) but
// their scores contribute to owned aggregates, mirroring core's
// candidate semantics.
//
// Because the closure node list is sorted ascending, the global→local id
// remap is monotone: subgraph adjacency keeps the full graph's relative
// order, BFS visits nodes in the same relative order, and floating-point
// aggregate sums are bit-for-bit identical to a single-engine run. The
// coordinator's byte-identical merge guarantee rests on this.
//
// A Shard is immutable after construction (its engine, like core's, is
// safe for concurrent queries); WithUpdates derives a successor shard for
// a new score generation, sharing all topology state.
type Shard struct {
	index int
	parts int

	engine      *core.Engine
	h           int
	globalNodes int // node count of the full graph

	owned      []int32 // global ids owned by this shard, ascending
	ownedLocal []int   // the same nodes as subgraph-local ids, ascending
	toGlobal   []int   // local id -> global id (monotone)
	localIndex []int32 // global id -> local id, -1 outside the closure
	isOwned    []bool  // by local id

	mu     sync.Mutex
	bounds map[core.Aggregate]float64 // memoized merge bounds
	sketch *Sketch                    // memoized owned-score sketch
}

// BuildShard builds the execution unit for one part of a partitioning:
// collect the part's owned nodes, close them under h hops, induce the
// subgraph, and stand up an engine over it. Workers in separate
// processes call this with the same deterministic partitioning to agree
// on shard contents without any coordination.
func BuildShard(g *graph.Graph, scores []float64, h int, p *partition.Partitioning, index int) (*Shard, error) {
	if index < 0 || index >= p.P {
		return nil, fmt.Errorf("cluster: shard index %d out of range [0,%d)", index, p.P)
	}
	if len(scores) != g.NumNodes() {
		return nil, fmt.Errorf("cluster: %d scores for %d nodes", len(scores), g.NumNodes())
	}
	var owned []int
	for v := 0; v < g.NumNodes(); v++ {
		if p.PartOf(v) == index {
			owned = append(owned, v)
		}
	}
	closure, err := graph.HopClosure(g, owned, h)
	if err != nil {
		return nil, err
	}
	sub, toGlobal, err := graph.InducedSubgraph(g, closure)
	if err != nil {
		return nil, err
	}
	subScores := make([]float64, len(toGlobal))
	localIndex := make([]int32, g.NumNodes())
	for i := range localIndex {
		localIndex[i] = -1
	}
	for local, global := range toGlobal {
		subScores[local] = scores[global]
		localIndex[global] = int32(local)
	}
	engine, err := core.NewEngine(sub, subScores, h)
	if err != nil {
		return nil, err
	}
	s := &Shard{
		index:       index,
		parts:       p.P,
		engine:      engine,
		h:           h,
		globalNodes: g.NumNodes(),
		toGlobal:    toGlobal,
		localIndex:  localIndex,
		isOwned:     make([]bool, len(toGlobal)),
		bounds:      make(map[core.Aggregate]float64),
	}
	s.owned = make([]int32, len(owned))
	s.ownedLocal = make([]int, len(owned))
	for i, v := range owned {
		s.owned[i] = int32(v)
		local := int(localIndex[v])
		s.ownedLocal[i] = local
		s.isOwned[local] = true
	}
	return s, nil
}

// BuildShards partitions g with BFS growth plus boundary refinement and
// builds every shard — the in-process path. The refinement pass shrinks
// the edge cut, which directly shrinks each shard's ghost-node
// replication (its per-query "message" volume).
func BuildShards(g *graph.Graph, scores []float64, h, parts int) ([]*Shard, *partition.Partitioning, error) {
	p, err := Partitioning(g, parts)
	if err != nil {
		return nil, nil, err
	}
	shards := make([]*Shard, parts)
	for i := range shards {
		if shards[i], err = BuildShard(g, scores, h, p, i); err != nil {
			return nil, nil, err
		}
	}
	return shards, p, nil
}

// Index returns which part of the partitioning this shard executes.
func (s *Shard) Index() int { return s.index }

// Parts returns the total number of shards in the topology.
func (s *Shard) Parts() int { return s.parts }

// GlobalNodes returns the node count of the full (unpartitioned) graph.
func (s *Shard) GlobalNodes() int { return s.globalNodes }

// OwnedCount returns how many global nodes this shard ranks.
func (s *Shard) OwnedCount() int { return len(s.owned) }

// BoundaryNodes returns the number of ghost nodes replicated into the
// shard: closure size minus owned size — the shard's share of the
// steady-state replication cost a partitioning's edge cut induces.
func (s *Shard) BoundaryNodes() int { return len(s.toGlobal) - len(s.owned) }

// Engine exposes the shard-local engine (tests and eager index prep).
func (s *Shard) Engine() *core.Engine { return s.engine }

// localOf returns v's subgraph-local id, or -1 when v lies outside the
// closure — including ids minted by structural edits after this shard was
// built (an unaffected shard is reused across edit generations, so it may
// legitimately be asked about nodes it has never seen).
func (s *Shard) localOf(v int) int32 {
	if v < 0 || v >= len(s.localIndex) {
		return -1
	}
	return s.localIndex[v]
}

// RunStream executes q against the shard in global-id terms: candidates
// are intersected with the shard's owned nodes and translated to local
// ids, and results are translated back. The monotone id remap preserves
// the (value desc, id asc) tie-break, so merging per-shard answers
// reconstructs the single-engine ordering exactly. An empty candidate
// intersection — q names only nodes owned elsewhere — returns an empty
// answer without touching the engine.
//
// Partial batches (translated to global ids) flow to emit as the engine
// certifies results, the external merge threshold λ flows in through
// floor, and — when the query carries a budget — extra draws replacement
// traversals from the coordinator's redistribution pool once the shard's
// own slice is spent. floor and extra may be nil. emit is invoked
// synchronously from the executing goroutine, strictly before RunStream
// returns.
func (s *Shard) RunStream(ctx context.Context, q core.Query, floor core.FloorProvider,
	extra core.BudgetSource, emit func(StreamBatch)) (core.Answer, error) {

	lq, ok, err := s.localize(q)
	if err != nil {
		return core.Answer{}, err
	}
	if !ok {
		return core.Answer{Results: []core.Result{}}, nil
	}
	lq.Floor = floor
	// Hand the engine this shard's memoized merge bound as the whole-scan
	// ceiling (admissible for any candidate subset: the maximum over all
	// owned nodes bounds any restriction), so a floor-carrying query does
	// not re-pay the O(n) AggregateUpperBound scan per execution.
	if b, err := s.UpperBound(q.Aggregate); err == nil {
		lq.Ceiling = b
	}
	if lq.Budget > 0 {
		lq.ExtraBudget = extra
	}
	lq.OnPartial = func(pr core.PartialResult) {
		items := make([]core.Result, len(pr.Items))
		for i, it := range pr.Items {
			items[i] = core.Result{Node: s.toGlobal[it.Node], Value: it.Value}
		}
		emit(StreamBatch{Items: items, Stats: pr.Stats})
	}
	ans, err := s.engine.Run(ctx, lq)
	if err != nil {
		return core.Answer{}, err
	}
	for i := range ans.Results {
		ans.Results[i].Node = s.toGlobal[ans.Results[i].Node]
	}
	return ans, nil
}

// localize rewrites q's candidate restriction into shard-local ids:
// candidates are intersected with the owned set (ok=false when nothing
// this shard ranks is named), and an unrestricted query is restricted to
// the owned nodes unless the shard owns its whole closure.
func (s *Shard) localize(q core.Query) (local core.Query, ok bool, err error) {
	if len(q.Candidates) > 0 {
		locals := make([]int, 0, len(q.Candidates))
		for _, v := range q.Candidates {
			if v < 0 {
				return q, false, fmt.Errorf("cluster: candidate node %d out of range", v)
			}
			// Ids at or beyond this shard's build-time node count belong
			// to nodes added since; they are by construction outside the
			// closure, so they fall out of the intersection like any other
			// remotely-owned node (the transport validated global range).
			if li := s.localOf(v); li >= 0 && s.isOwned[li] {
				locals = append(locals, int(li))
			}
		}
		if len(locals) == 0 {
			return q, false, nil
		}
		q.Candidates = locals
	} else if len(s.ownedLocal) != len(s.toGlobal) {
		q.Candidates = s.ownedLocal
	} // owning the whole closure (P=1): no restriction needed
	return q, true, nil
}

// UpperBound returns a certified upper bound on any aggregate value the
// shard could contribute for agg — the quantity the coordinator's
// TA-style merge compares against the running global k-th value. It is
// memoized per aggregate (the underlying scores are immutable).
func (s *Shard) UpperBound(agg core.Aggregate) (float64, error) {
	s.mu.Lock()
	if b, ok := s.bounds[agg]; ok {
		s.mu.Unlock()
		return b, nil
	}
	s.mu.Unlock()

	b, err := s.engine.AggregateUpperBound(agg, s.ownedLocal)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	s.bounds[agg] = b
	s.mu.Unlock()
	return b, nil
}

// Sketch summarizes the raw scores of the shard's owned nodes for the
// coordinator's λ-priming (see sketch.go). Memoized like the merge
// bounds: the underlying scores are immutable, and WithUpdates derives a
// fresh shard whose sketch is recomputed lazily — so a sketch can never
// go stale against the scores it summarizes, which its admissibility
// depends on.
func (s *Shard) Sketch() *Sketch {
	s.mu.Lock()
	if s.sketch != nil {
		sk := s.sketch
		s.mu.Unlock()
		return sk
	}
	s.mu.Unlock()

	scores := s.engine.Scores()
	owned := make([]float64, len(s.ownedLocal))
	for i, li := range s.ownedLocal {
		owned[i] = scores[li]
	}
	sk := BuildSketch(owned)
	s.mu.Lock()
	s.sketch = sk
	s.mu.Unlock()
	return sk
}

// WithUpdates derives the shard for a new score generation: updates whose
// node falls inside the closure (owned or ghost) are applied to a copy of
// the local scores and a new engine is built via WithScores, sharing the
// subgraph and its topology-only indexes. applied reports how many
// updates landed inside the closure; when none do, the receiver itself is
// returned unchanged — re-sharing its memoized bounds is then sound.
func (s *Shard) WithUpdates(updates []ScoreUpdate) (shard *Shard, applied int, err error) {
	for _, u := range updates {
		if u.Node < 0 {
			return nil, 0, fmt.Errorf("cluster: update node %d out of range", u.Node)
		}
		// Nodes beyond the build-time snapshot (added by structural edits
		// an unaffected shard never saw) are simply outside the closure;
		// the transport validates the global range.
		if s.localOf(u.Node) >= 0 {
			applied++
		}
	}
	if applied == 0 {
		return s, 0, nil
	}
	scores := append([]float64(nil), s.engine.Scores()...)
	for _, u := range updates {
		if li := s.localOf(u.Node); li >= 0 {
			scores[li] = u.Score
		}
	}
	engine, err := s.engine.WithScores(scores)
	if err != nil {
		return nil, 0, err
	}
	next := &Shard{
		index:       s.index,
		parts:       s.parts,
		engine:      engine,
		h:           s.h,
		globalNodes: s.globalNodes,
		owned:       s.owned,
		ownedLocal:  s.ownedLocal,
		toGlobal:    s.toGlobal,
		localIndex:  s.localIndex,
		isOwned:     s.isOwned,
		bounds:      make(map[core.Aggregate]float64),
	}
	return next, applied, nil
}
