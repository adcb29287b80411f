package partition_test

import (
	"context"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/relevance"
)

// shardLocal builds one cluster shard per part of p and the in-process
// transport over them.
func shardLocal(t *testing.T, g *graph.Graph, scores []float64, p *partition.Partitioning) *cluster.Local {
	t.Helper()
	shards := make([]*cluster.Shard, p.P)
	for i := range shards {
		var err error
		if shards[i], err = cluster.BuildShard(g, scores, 2, p, i); err != nil {
			t.Fatal(err)
		}
	}
	return cluster.NewLocalFromShards(shards, g.NumNodes(), p.EdgeCut(g))
}

func TestRefinedPartitionStillAnswersCorrectly(t *testing.T) {
	g := gen.Collaboration(0.02, 27)
	scores := relevance.Mixture(g, relevance.MixtureParams{BlackingRatio: 0.02}, 27)
	e, err := core.NewEngine(g, scores, 2)
	if err != nil {
		t.Fatal(err)
	}
	q := core.Query{Algorithm: core.AlgoBase, K: 10, Aggregate: core.Sum}
	want, err := e.Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}

	p, err := partition.BFSGrow(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	partition.Refine(g, p, 1.3, 3)
	local := shardLocal(t, g, scores, p)
	got, err := cluster.NewCoordinator(local, cluster.Options{}).Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != len(want.Results) {
		t.Fatalf("%d results, want %d", len(got.Results), len(want.Results))
	}
	for i := range want.Results {
		if got.Results[i] != want.Results[i] {
			t.Fatalf("row %d: got %+v want %+v", i, got.Results[i], want.Results[i])
		}
	}
	if cut := local.Topology().EdgeCut; cut <= 0 {
		t.Fatalf("refined 4-way partitioning reports cut %d", cut)
	}
}

// TestRefineReducesMessages: a shard's steady-state message volume is the
// ghost nodes its h-hop closure replicates from other parts, so trimming
// the cut must shrink the total ghost replication.
func TestRefineReducesMessages(t *testing.T) {
	g := gen.Collaboration(0.05, 29)
	scores := relevance.Binary(g.NumNodes(), 0.1, 29)

	raw, err := partition.BFSGrow(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	refined, err := partition.BFSGrow(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	partition.Refine(g, refined, 1.3, 3)

	bRaw := shardLocal(t, g, scores, raw).Topology().BoundaryNodes
	bRef := shardLocal(t, g, scores, refined).Topology().BoundaryNodes
	if bRaw == 0 {
		t.Fatal("4-way partition replicates no ghost nodes")
	}
	if bRef >= bRaw {
		t.Fatalf("refinement did not reduce ghost replication: %d -> %d", bRaw, bRef)
	}
	t.Logf("boundary nodes: %d raw, %d refined", bRaw, bRef)
}
