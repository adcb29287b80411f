package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/relevance"
)

// exactValue computes F(u) with a fresh traverser, independent of any
// engine-internal caching.
func exactValue(e *Engine, u int, agg Aggregate) float64 {
	t := graph.NewTraverser(e.Graph())
	value, _, _ := e.evaluate(t, u, agg)
	return value
}

// TestForwardBoundAdmissible: Equation 1/2's bound must never fall below
// the true aggregate of the bounded neighbor, for any random graph, score
// vector, hop radius, and aggregate.
func TestForwardBoundAdmissible(t *testing.T) {
	aggs := []Aggregate{Sum, Avg, WeightedSum, Count}
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 15 + int(seed%17+17)%17
		g := randomGraph(n, 3*n, seed)
		scores := randomScores(n, seed+1)
		h := 1 + rng.Intn(3)
		e, err := NewEngine(g, scores, h)
		if err != nil {
			return false
		}
		for u := 0; u < n; u++ {
			for _, v32 := range g.Neighbors(u) {
				v := int(v32)
				for _, agg := range aggs {
					if e.ForwardBound(u, v, agg) < exactValue(e, v, agg)-1e-9 {
						t.Logf("seed=%d h=%d %v: bound(%d→%d)=%v < exact=%v",
							seed, h, agg, u, v, e.ForwardBound(u, v, agg), exactValue(e, v, agg))
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestBackwardBoundAdmissible: the Equation 3 bound must dominate the true
// aggregate for every node and every threshold γ.
func TestBackwardBoundAdmissible(t *testing.T) {
	aggs := []Aggregate{Sum, Avg, WeightedSum, Count}
	gammas := []float64{0, 0.2, 0.5, 0.8, 1}
	property := func(seed int64) bool {
		n := 12 + int(seed%13+13)%13
		g := randomGraph(n, 2*n, seed)
		scores := randomScores(n, seed+2)
		e, err := NewEngine(g, scores, 2)
		if err != nil {
			return false
		}
		for _, agg := range aggs {
			for _, gamma := range gammas {
				for v := 0; v < n; v++ {
					if e.BackwardBound(v, agg, gamma) < exactValue(e, v, agg) {
						t.Logf("seed=%d %v γ=%v: bound(%d)=%v < exact=%v",
							seed, agg, gamma, v, e.BackwardBound(v, agg, gamma), exactValue(e, v, agg))
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestBackwardBoundExactAtGammaZero: with γ=0 every non-zero node
// distributes, so the SUM bound equals the exact SUM (fRest = 0).
func TestBackwardBoundExactAtGammaZero(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		seed := int64(trial)
		n := 20
		g := randomGraph(n, 60, seed)
		scores := randomScores(n, seed+3)
		e := mustEngine(t, g, scores, 2)
		for v := 0; v < n; v++ {
			bound := e.BackwardBound(v, Sum, 0)
			exact := exactValue(e, v, Sum)
			if diff := bound - exact; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("trial %d node %d: γ=0 bound %v != exact %v", trial, v, bound, exact)
			}
		}
	}
}

// TestBackwardTieUnderReordering is the reordered-sum regression: on
// this dataset node 7857's AVG bound, summed in distribution order, came
// out one ulp below its exact value summed in BFS order, so the strict
// verification stop fired before 7857 was verified and node 17405 — the
// same value, a larger id — took rank 90 instead of it.
func TestBackwardTieUnderReordering(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 20k-node engine")
	}
	g := gen.Collaboration(gen.DatasetScale(0.5), 20100301)
	scores := relevance.Mixture(g, relevance.MixtureParams{BlackingRatio: 0.01}, 20100302)
	e := mustEngine(t, g, scores, 2)
	for _, algo := range []Algorithm{AlgoBase, AlgoBackward} {
		ans, err := e.Run(context.Background(), Query{Algorithm: algo, K: 90, Aggregate: Avg})
		if err != nil {
			t.Fatal(err)
		}
		if got := ans.Results[89]; got.Node != 7857 || got.Value != 0.19249352982416676 {
			t.Fatalf("%v rank 90 = %+v, want node 7857 at 0.19249352982416676", algo, got)
		}
	}
	if b, v := e.BackwardBound(7857, Avg, 0), exactValue(e, 7857, Avg); b < v {
		t.Fatalf("bound(7857) = %v below its exact value %v", b, v)
	}
}

// TestForwardBoundSelfCapTight: on a fully relevant graph (all scores 1)
// the self-cap arm N(v)-1+f(v) equals the exact aggregate, so the bound is
// tight.
func TestForwardBoundSelfCapTight(t *testing.T) {
	g := randomGraph(25, 75, 77)
	n := g.NumNodes()
	scores := make([]float64, n)
	for i := range scores {
		scores[i] = 1
	}
	e := mustEngine(t, g, scores, 2)
	for u := 0; u < n; u++ {
		for _, v32 := range g.Neighbors(u) {
			v := int(v32)
			bound := e.ForwardBound(u, v, Sum)
			exact := exactValue(e, v, Sum)
			if diff := bound - exact; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("all-ones bound(%d→%d) = %v, want exact %v", u, v, bound, exact)
			}
		}
	}
}

// TestForwardPruningActuallyPrunes: on a graph with one clear hot region,
// LONA-Forward must prune a non-trivial fraction of nodes (otherwise the
// technique degenerates to Base and the figures would be flat).
func TestForwardPruningActuallyPrunes(t *testing.T) {
	// Hub-heavy graph: a few hubs with big neighborhoods dominate top-k;
	// the long tail of leaves should be pruned via their hub neighbors.
	b := graph.NewBuilder(400, false)
	for hub := 0; hub < 4; hub++ {
		for leaf := 4; leaf < 400; leaf++ {
			if (leaf+hub)%2 == 0 {
				b.AddEdge(hub, leaf)
			}
		}
	}
	g := b.Build()
	rng := rand.New(rand.NewSource(99))
	scores := make([]float64, 400)
	for i := range scores {
		scores[i] = rng.Float64() * 0.3
	}
	e := mustEngine(t, g, scores, 1)
	_, stats, err := e.Forward(3, Sum, OrderDegreeDesc)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Pruned == 0 {
		t.Fatalf("no nodes pruned on a prunable instance: %+v", stats)
	}
	if stats.Evaluated+stats.Pruned != 400 {
		t.Fatalf("evaluated+pruned = %d, want 400", stats.Evaluated+stats.Pruned)
	}
}

// TestBackwardEarlyTermination: with sparse binary scores and γ below 1,
// LONA-Backward must evaluate far fewer nodes than Base does.
func TestBackwardEarlyTermination(t *testing.T) {
	n := 500
	g := randomGraph(n, 1500, 7)
	rng := rand.New(rand.NewSource(7))
	scores := make([]float64, n)
	for v := range scores {
		if rng.Float64() < 0.05 {
			scores[v] = 1
		}
	}
	e := mustEngine(t, g, scores, 2)
	_, stats, err := e.Backward(10, Sum, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Evaluated >= n/2 {
		t.Fatalf("Backward evaluated %d of %d nodes; early termination ineffective", stats.Evaluated, n)
	}
	// And still correct.
	want, _, _ := e.Base(10, Sum)
	got, _, _ := e.Backward(10, Sum, 0.5)
	if !sameResults(got, want) {
		t.Fatalf("early-terminating Backward wrong: got %v want %v", got, want)
	}
}

// TestEquivalencePropertyQuick is the property-based form of the central
// agreement test: for arbitrary seeds, all algorithms agree with Base.
func TestEquivalencePropertyQuick(t *testing.T) {
	property := func(seed int64, kRaw uint8, aggRaw uint8) bool {
		k := int(kRaw%15) + 1
		agg := []Aggregate{Sum, Avg, WeightedSum, Count}[aggRaw%4]
		n := 18 + int(seed%11+11)%11
		g := randomGraph(n, 3*n, seed)
		scores := randomScores(n, seed+5)
		e, err := NewEngine(g, scores, 2)
		if err != nil {
			return false
		}
		want, _, err := e.Base(k, agg)
		if err != nil {
			return false
		}
		for _, algo := range []Algorithm{AlgoForward, AlgoBackwardNaive, AlgoBackward} {
			got, _, err := topK(e, algo, k, agg, &Options{Gamma: 0.25})
			if err != nil || !sameResults(got, want) {
				t.Logf("seed=%d k=%d agg=%v algo=%v: got %v want %v err=%v", seed, k, agg, algo, got, want, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
