// Equivalence: an engine over a mmap-ed snapshot must be
// indistinguishable from an engine over the graph it was written from —
// not approximately, but byte-for-byte: the same result nodes in the
// same order, bit-identical float values, identical tie-breaks, and
// identical work counters (Stats.Evaluated et al.), across the full
// algorithm × aggregate × k matrix, single-engine and sharded. Anything
// less means the snapshot path changed visit order or float summation
// order somewhere, and cached answers would go stale across a
// snapshot-boot restart.
//
// This lives in an external test package because cluster imports
// snapshot; package snapshot itself cannot import cluster back.
package snapshot_test

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/relevance"
	"repro/internal/snapshot"
)

const (
	equivScale = 0.04 // ~1600 nodes: big enough for real pruning, fast enough for -race
	equivSeed  = 20100301
	equivH     = 2
)

func equivDataset(t testing.TB) (*graph.Graph, []float64) {
	t.Helper()
	g := gen.Collaboration(gen.DatasetScale(equivScale), equivSeed)
	scores := relevance.Mixture(g, relevance.MixtureParams{BlackingRatio: 0.01}, equivSeed+1)
	return g, scores
}

// equivMatrix is the full query surface both engines must agree on.
func equivMatrix() []core.Query {
	algos := []core.Algorithm{
		core.AlgoAuto, core.AlgoBase, core.AlgoBaseParallel, core.AlgoForward,
		core.AlgoBackwardNaive, core.AlgoBackward, core.AlgoForwardDist,
	}
	aggs := []core.Aggregate{core.Sum, core.Avg, core.WeightedSum, core.Count, core.Max}
	ks := []int{1, 10}
	var qs []core.Query
	for _, algo := range algos {
		for _, agg := range aggs {
			for _, k := range ks {
				qs = append(qs, core.Query{Algorithm: algo, Aggregate: agg, K: k})
			}
		}
	}
	return qs
}

func queryName(q core.Query) string {
	return fmt.Sprintf("%v/%v/k=%d", q.Algorithm, q.Aggregate, q.K)
}

// requireSameAnswer fails unless got is byte-identical to want: node
// order, float bits, truncation, and every work counter.
func requireSameAnswer(t *testing.T, want, got core.Answer) {
	t.Helper()
	if len(got.Results) != len(want.Results) {
		t.Fatalf("result count: got %d, want %d", len(got.Results), len(want.Results))
	}
	for i := range want.Results {
		w, g := want.Results[i], got.Results[i]
		if g.Node != w.Node || math.Float64bits(g.Value) != math.Float64bits(w.Value) {
			t.Fatalf("result[%d]: got node %d value %x, want node %d value %x",
				i, g.Node, math.Float64bits(g.Value), w.Node, math.Float64bits(w.Value))
		}
	}
	if got.Stats != want.Stats {
		t.Fatalf("stats: got %+v, want %+v", got.Stats, want.Stats)
	}
	if got.Truncated != want.Truncated {
		t.Fatalf("truncated: got %v, want %v", got.Truncated, want.Truncated)
	}
}

// TestSnapshotEngineEquivalence runs the matrix on an engine built from
// the in-memory graph and on an engine whose graph, scores, and N(v)
// index are externally-owned slices into a mmap-ed snapshot.
func TestSnapshotEngineEquivalence(t *testing.T) {
	g, scores := equivDataset(t)

	built, err := core.NewEngine(g, scores, equivH)
	if err != nil {
		t.Fatal(err)
	}
	built.PrepareNeighborhoodIndex(0)

	path := filepath.Join(t.TempDir(), "equiv.snap")
	w, err := snapshot.NewWriter(g, scores, equivH, graph.BuildNeighborhoodIndex(g, equivH, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	r, err := snapshot.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	mapped, err := core.NewEngine(r.Graph(), r.Scores(), r.H())
	if err != nil {
		t.Fatal(err)
	}
	if err := mapped.AdoptNeighborhoodIndex(r.Index()); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	for _, q := range equivMatrix() {
		t.Run(queryName(q), func(t *testing.T) {
			want, errB := built.Run(ctx, q)
			got, errS := mapped.Run(ctx, q)
			if (errB == nil) != (errS == nil) {
				t.Fatalf("error mismatch: built=%v snapshot=%v", errB, errS)
			}
			if errB != nil {
				// Unsupported combination (e.g. Forward×Max): both engines
				// must reject it the same way.
				if errB.Error() != errS.Error() {
					t.Fatalf("error text: built=%q snapshot=%q", errB, errS)
				}
				return
			}
			requireSameAnswer(t, want, got)
		})
	}
}

// TestSnapshotShardedEquivalence does the same through the sharded path:
// a coordinator over shards rebuilt from per-shard snapshots must merge
// to byte-identical answers against a coordinator over shards built
// directly from the full graph, at P ∈ {2, 4}. Parallel=1 with the TA
// cut off and a pinned emission cadence makes the merge schedule
// deterministic — in-process shards emit their batches on their own
// goroutine, so every fold (and every λ the next traversal reads) lands
// at the same point of each run — and the aggregated work counters are
// comparable exactly.
func TestSnapshotShardedEquivalence(t *testing.T) {
	g, scores := equivDataset(t)
	opts := cluster.Options{Parallel: 1, DisableCut: true, PartialEvery: 64}

	for _, parts := range []int{2, 4} {
		t.Run(fmt.Sprintf("P=%d", parts), func(t *testing.T) {
			builtShards, p, err := cluster.BuildShards(g, scores, equivH, parts)
			if err != nil {
				t.Fatal(err)
			}
			edgeCut := p.EdgeCut(g)
			builtLocal := cluster.NewLocalFromShards(builtShards, g.NumNodes(), edgeCut)
			builtLocal.PrepareIndexes(0)
			builtCoord := cluster.NewCoordinator(builtLocal, opts)

			// Write each shard's closure, reopen via mmap, and rebuild the
			// shard set purely from the mapped bytes.
			dir := t.TempDir()
			mappedShards := make([]*cluster.Shard, parts)
			for i, s := range builtShards {
				path := filepath.Join(dir, fmt.Sprintf("equiv.snap.shard%d", i))
				if err := cluster.WriteShardSnapshot(s, path, 0); err != nil {
					t.Fatal(err)
				}
				r, err := snapshot.Open(path)
				if err != nil {
					t.Fatal(err)
				}
				defer r.Close()
				if mappedShards[i], err = cluster.ShardFromSnapshot(r); err != nil {
					t.Fatal(err)
				}
			}
			mappedLocal := cluster.NewLocalFromShards(mappedShards, g.NumNodes(), edgeCut)
			mappedCoord := cluster.NewCoordinator(mappedLocal, opts)

			ctx := context.Background()
			for _, q := range equivMatrix() {
				t.Run(queryName(q), func(t *testing.T) {
					want, errB := builtCoord.Run(ctx, q)
					got, errS := mappedCoord.Run(ctx, q)
					if (errB == nil) != (errS == nil) {
						t.Fatalf("error mismatch: built=%v snapshot=%v", errB, errS)
					}
					if errB != nil {
						if errB.Error() != errS.Error() {
							t.Fatalf("error text: built=%q snapshot=%q", errB, errS)
						}
						return
					}
					requireSameAnswer(t, want, got)
				})
			}
		})
	}
}
