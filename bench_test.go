// Benchmarks regenerating the paper's evaluation in testing.B form: one
// benchmark per figure (Figures 1–6), each sweeping the three algorithms
// over representative k values, plus the ablation benchmarks A2/A4/A5/A6
// and micro-benchmarks for the substrates.
//
// These run at a reduced dataset scale so `go test -bench=.` completes in
// minutes on one core; `cmd/lonabench` runs the same specs at full scale
// and writes a markdown report (-out) plus BENCH_serving.json. Set
// LONA_BENCH_SCALE to override.
package lona_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"

	lona "repro"
	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/relevance"
	"repro/internal/relstore"
	"repro/internal/topk"
)

// benchScale is the dataset scale for benchmarks (full figures use 1.0 via
// cmd/lonabench).
func benchScale() float64 {
	if s := os.Getenv("LONA_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 0.1
}

var (
	wsOnce sync.Once
	ws     *bench.Workspace
)

// workspace shares generated datasets and prepared indexes across all
// benchmarks in the binary.
func workspace() *bench.Workspace {
	wsOnce.Do(func() {
		ws = bench.NewWorkspace(bench.Config{Scale: benchScale(), Seed: 20100301})
	})
	return ws
}

// benchKs is the k subset benchmarked per figure (the paper's axis runs
// 1..300; endpoints and midpoint capture the trend).
var benchKs = []int{1, 100, 300}

// benchFigure runs one paper figure as nested sub-benchmarks.
func benchFigure(b *testing.B, spec bench.FigureSpec) {
	w := workspace()
	e, err := w.Engine(spec.Dataset, spec.Rel, spec.R, 2)
	if err != nil {
		b.Fatal(err)
	}
	for _, algo := range []core.Algorithm{core.AlgoBase, core.AlgoForward, core.AlgoBackward} {
		for _, k := range benchKs {
			b.Run(fmt.Sprintf("%s/k=%d", algo, k), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := e.Run(context.Background(), core.Query{
						Algorithm: algo, K: k, Aggregate: spec.Agg,
						Options: core.Options{Gamma: spec.Gamma, Order: bench.OrderFor(spec.Agg)},
					}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig1CollaborationSUM regenerates Figure 1: top-k SUM on the
// collaboration network, r=0.01.
func BenchmarkFig1CollaborationSUM(b *testing.B) { benchFigure(b, bench.PaperFigures[0]) }

// BenchmarkFig2CitationSUM regenerates Figure 2: top-k SUM on the citation
// network, r=0.01.
func BenchmarkFig2CitationSUM(b *testing.B) { benchFigure(b, bench.PaperFigures[1]) }

// BenchmarkFig3IntrusionSUM regenerates Figure 3: top-k SUM on the
// intrusion network, r=0.2 binary.
func BenchmarkFig3IntrusionSUM(b *testing.B) { benchFigure(b, bench.PaperFigures[2]) }

// BenchmarkFig4CollaborationAVG regenerates Figure 4: top-k AVG on the
// collaboration network.
func BenchmarkFig4CollaborationAVG(b *testing.B) { benchFigure(b, bench.PaperFigures[3]) }

// BenchmarkFig5CitationAVG regenerates Figure 5: top-k AVG on the citation
// network (where the paper notes Forward deteriorates with k).
func BenchmarkFig5CitationAVG(b *testing.B) { benchFigure(b, bench.PaperFigures[4]) }

// BenchmarkFig6IntrusionAVG regenerates Figure 6: top-k AVG on the
// intrusion network.
func BenchmarkFig6IntrusionAVG(b *testing.B) { benchFigure(b, bench.PaperFigures[5]) }

// BenchmarkA2BackwardGamma is ablation A2: LONA-Backward's threshold γ.
func BenchmarkA2BackwardGamma(b *testing.B) {
	w := workspace()
	e, err := w.Engine(bench.Collaboration, bench.MixtureScores, 0.01, 2)
	if err != nil {
		b.Fatal(err)
	}
	for _, gamma := range []float64{0, 0.2, 0.5, 0.9} {
		b.Run(fmt.Sprintf("gamma=%v", gamma), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := e.Backward(100, core.Sum, gamma); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkA4ForwardOrder is ablation A4: LONA-Forward's queue order.
func BenchmarkA4ForwardOrder(b *testing.B) {
	w := workspace()
	e, err := w.Engine(bench.Collaboration, bench.MixtureScores, 0.01, 2)
	if err != nil {
		b.Fatal(err)
	}
	for _, order := range []core.QueueOrder{core.OrderNatural, core.OrderDegreeDesc, core.OrderScoreDesc} {
		b.Run(order.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := e.Forward(100, core.Sum, order); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkA5Relational is experiment A5: the introduction's RDBMS
// self-join plan versus graph-native Base on identical inputs.
func BenchmarkA5Relational(b *testing.B) {
	g := lona.CollaborationNetwork(benchScale()*0.25, 20100301)
	scores := lona.MixtureScores(g, 0.01, 20100302)
	e, err := lona.NewEngine(g, scores, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("RDBMS-plan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := relstore.NeighborhoodTopK(g, scores, 2, 100, false); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Base", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := e.Run(context.Background(), lona.Query{Algorithm: lona.AlgoBase, K: 100, Aggregate: lona.Sum}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkA6Partitioned is experiment A6: sharded execution over
// BFS-grown partitions (the paper's future-work infrastructure).
func BenchmarkA6Partitioned(b *testing.B) {
	g := lona.CollaborationNetwork(benchScale(), 20100301)
	scores := lona.MixtureScores(g, 0.01, 20100302)
	for _, parts := range []int{1, 2, 4, 8} {
		p, err := partition.BFSGrow(g, parts)
		if err != nil {
			b.Fatal(err)
		}
		local, err := bench.PartitionedLocal(g, scores, 2, p)
		if err != nil {
			b.Fatal(err)
		}
		coord := cluster.NewCoordinator(local, cluster.Options{})
		b.Run(fmt.Sprintf("parts=%d", parts), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := coord.Run(context.Background(), core.Query{Algorithm: core.AlgoBase, K: 100, Aggregate: core.Sum}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkS2Cluster is the distributed-serving benchmark: the cluster
// coordinator fanning one query out across partition-local engines,
// in-process. cmd/lonabench runs the full S2 grid (with the HTTP
// transport point and the single-engine baseline) and writes
// BENCH_cluster.json.
func BenchmarkS2Cluster(b *testing.B) {
	g := lona.CollaborationNetwork(benchScale(), 20100301)
	scores := lona.MixtureScores(g, 0.01, 20100302)
	for _, parts := range []int{2, 4, 8} {
		coord, err := lona.NewLocalCoordinator(g, scores, 2, parts, lona.CoordinatorOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("parts=%d", parts), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := coord.Run(context.Background(), lona.Query{K: 100, Aggregate: lona.Sum, Algorithm: lona.AlgoBase}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkS3Mutation measures the structural-mutation repair path: one
// edit batch applied through View.ApplyEdits (successor graph derivation,
// incremental index repair, aggregate repair of affected nodes) per
// iteration, against the full NewView rebuild as the baseline.
// cmd/lonabench runs the full S3 batch-size sweep with a byte-identical
// equivalence gate and writes BENCH_mutation.json.
func BenchmarkS3Mutation(b *testing.B) {
	g := lona.CollaborationNetwork(benchScale(), 20100301)
	scores := lona.MixtureScores(g, 0.01, 20100302)
	b.Run("incremental-batch16", func(b *testing.B) {
		view, err := lona.NewView(g, scores, 2)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Draw a batch of genuinely new edges outside the timer, time
			// the incremental apply, then revert outside the timer — every
			// iteration repairs the same pristine graph the rebuild
			// baseline rebuilds, so the two numbers stay comparable.
			b.StopTimer()
			cur := view.Graph()
			edits := make([]lona.Edit, 0, 16)
			for len(edits) < 16 {
				u, v := rng.Intn(cur.NumNodes()), rng.Intn(cur.NumNodes())
				if u != v && !cur.HasEdge(u, v) {
					edits = append(edits, lona.Edit{Op: lona.EditAddEdge, U: u, V: v})
				}
			}
			b.StartTimer()
			if _, err := view.ApplyEdits(context.Background(), edits); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			revert := make([]lona.Edit, len(edits))
			for j, e := range edits {
				revert[j] = lona.Edit{Op: lona.EditRemoveEdge, U: e.U, V: e.V}
			}
			if _, err := view.ApplyEdits(context.Background(), revert); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := lona.NewView(g, scores, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkS4Stream measures the streaming sharded query path: one
// coordinator fan-out per iteration with partial-result batches, mid-query
// λ pushdown, and within-shard cuts. cmd/lonabench runs the full S4
// comparison against standalone shards on the skewed scenario (with a
// byte-identical gate against the single engine) and writes
// BENCH_stream.json.
func BenchmarkS4Stream(b *testing.B) {
	g := lona.CollaborationNetwork(benchScale(), 20100301)
	scores := lona.MixtureScores(g, 0.01, 20100302)
	coord, err := lona.NewLocalCoordinator(g, scores, 2, 4, lona.CoordinatorOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := coord.Run(context.Background(), lona.Query{K: 100, Aggregate: lona.Sum, Algorithm: lona.AlgoForwardDist}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexBuild measures the offline costs the paper amortizes: the
// N(v) index and the differential index.
func BenchmarkIndexBuild(b *testing.B) {
	g := lona.CollaborationNetwork(benchScale(), 20100301)
	b.Run("neighborhood", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			graph.BuildNeighborhoodIndex(g, 2, 1)
		}
	})
	b.Run("differential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			graph.BuildDifferentialIndex(g, 2, 1)
		}
	})
}

// BenchmarkTraversal measures the raw 2-hop BFS substrate.
func BenchmarkTraversal(b *testing.B) {
	g := lona.CollaborationNetwork(benchScale(), 20100301)
	scores := lona.MixtureScores(g, 0.01, 20100302)
	t := graph.NewTraverser(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.SumWithin(i%g.NumNodes(), 2, scores)
	}
}

// BenchmarkTopKHeap measures the bounded heap under adversarial
// (ascending) offers.
func BenchmarkTopKHeap(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l := topk.New(100)
		for v := 0; v < 10000; v++ {
			l.Offer(v, float64(v))
		}
	}
}

// BenchmarkGenerators measures dataset simulation throughput.
func BenchmarkGenerators(b *testing.B) {
	scale := gen.DatasetScale(benchScale())
	b.Run("collaboration", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gen.Collaboration(scale, int64(i))
		}
	})
	b.Run("citation", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gen.Citation(scale, int64(i))
		}
	})
	b.Run("intrusion", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gen.Intrusion(scale, int64(i))
		}
	})
}

// BenchmarkMixtureScores measures relevance-function construction.
func BenchmarkMixtureScores(b *testing.B) {
	g := lona.CollaborationNetwork(benchScale(), 20100301)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		relevance.Mixture(g, relevance.MixtureParams{BlackingRatio: 0.01}, int64(i))
	}
}
