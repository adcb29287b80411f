package bench

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/relstore"
)

// DefaultKs is the top-k sweep used by Figures 1–6 (the paper's x axis
// runs to 300).
var DefaultKs = []int{1, 50, 100, 150, 200, 250, 300}

// FigureSpec describes one of the paper's six runtime-vs-k figures.
type FigureSpec struct {
	ID      string
	Title   string
	Dataset DatasetKind
	Rel     RelevanceKind
	R       float64 // blacking ratio
	Agg     core.Aggregate
	Gamma   float64 // LONA-Backward threshold
}

// PaperFigures are the exact parameterizations of Figures 1–6: 2-hop
// queries, r=0.01 mixture relevance everywhere except Figure 3, which the
// paper runs at r=0.2 on the intrusion network (binary-heavy scores).
var PaperFigures = []FigureSpec{
	{ID: "F1", Title: "Fig. 1 Collaboration (SUM)", Dataset: Collaboration, Rel: MixtureScores, R: 0.01, Agg: core.Sum, Gamma: 0.1},
	{ID: "F2", Title: "Fig. 2 Citation (SUM)", Dataset: Citation, Rel: MixtureScores, R: 0.01, Agg: core.Sum, Gamma: 0.1},
	{ID: "F3", Title: "Fig. 3 Intrusion (SUM)", Dataset: Intrusion, Rel: BinaryScores, R: 0.2, Agg: core.Sum, Gamma: 0.5},
	{ID: "F4", Title: "Fig. 4 Collaboration (AVG)", Dataset: Collaboration, Rel: MixtureScores, R: 0.01, Agg: core.Avg, Gamma: 0.1},
	{ID: "F5", Title: "Fig. 5 Citation (AVG)", Dataset: Citation, Rel: MixtureScores, R: 0.01, Agg: core.Avg, Gamma: 0.1},
	{ID: "F6", Title: "Fig. 6 Intrusion (AVG)", Dataset: Intrusion, Rel: MixtureScores, R: 0.01, Agg: core.Avg, Gamma: 0.1},
}

// figureAlgos are the three lines each paper figure plots.
var figureAlgos = []core.Algorithm{core.AlgoBase, core.AlgoForward, core.AlgoBackward}

// hops is the paper's query radius ("We tested 2-hop queries").
const hops = 2

// OrderFor picks LONA-Forward's queue order per aggregate: high-degree
// nodes have the largest SUMs, so evaluating them first raises the pruning
// threshold immediately; for AVG the winners are high-relevance nodes with
// small keen neighborhoods, so score order raises it instead.
func OrderFor(agg core.Aggregate) core.QueueOrder {
	if agg == core.Avg {
		return core.OrderScoreDesc
	}
	return core.OrderDegreeDesc
}

// RunFigure executes one of Figures 1–6 and returns its grid.
func (w *Workspace) RunFigure(spec FigureSpec) (*Result, error) {
	e, err := w.Engine(spec.Dataset, spec.Rel, spec.R, hops)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:    spec.ID,
		Title: spec.Title,
		XName: "k",
		Notes: fmt.Sprintf("%v: %d nodes, %d edges; h=%d, r=%v, γ=%v, scale=%v",
			spec.Dataset, e.Graph().NumNodes(), e.Graph().NumEdges(), hops, spec.R, spec.Gamma, w.cfg.Scale),
	}
	for _, k := range DefaultKs {
		for _, algo := range figureAlgos {
			var stats core.QueryStats
			sec, err := w.timeQuery(func() error {
				ans, err := e.Run(context.Background(), core.Query{
					Algorithm: algo, K: k, Aggregate: spec.Agg,
					Options: core.Options{Gamma: spec.Gamma, Order: OrderFor(spec.Agg)},
				})
				stats = ans.Stats
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("%s k=%d %v: %w", spec.ID, k, algo, err)
			}
			res.Rows = append(res.Rows, Row{
				X: float64(k), Label: algo.String(), Sec: sec,
				Extra: map[string]float64{
					"evaluated": float64(stats.Evaluated),
					"pruned":    float64(stats.Pruned),
					"visited":   float64(stats.Visited),
				},
			})
			w.logf("%s k=%d %-14s %.4fs (evaluated=%d pruned=%d)", spec.ID, k, algo, sec, stats.Evaluated, stats.Pruned)
		}
	}
	return res, nil
}

// RunBlackingSweep is ablation A1: fix k, sweep the blacking ratio r, and
// watch the algorithms trade places (Backward thrives on sparse scores;
// Forward's Eq. 1 bound loosens as r falls — the effect the paper notes
// for AVG queries).
func (w *Workspace) RunBlackingSweep() (*Result, error) {
	res := &Result{
		ID:    "A1",
		Title: "Ablation: blacking ratio sweep (Collaboration, SUM, k=100)",
		XName: "r",
	}
	for _, r := range []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.2} {
		e, err := w.Engine(Collaboration, MixtureScores, r, hops)
		if err != nil {
			return nil, err
		}
		for _, algo := range figureAlgos {
			sec, err := w.timeQuery(func() error {
				_, err := e.Run(context.Background(), core.Query{
					Algorithm: algo, K: 100, Aggregate: core.Sum,
					Options: core.Options{Gamma: 0.2, Order: core.OrderDegreeDesc},
				})
				return err
			})
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, Row{X: r, Label: algo.String(), Sec: sec})
			w.logf("A1 r=%v %-14s %.4fs", r, algo, sec)
		}
	}
	return res, nil
}

// RunGammaSweep is ablation A2: LONA-Backward's distribution threshold γ
// trades distribution work (low γ distributes more nodes) against bound
// tightness (high γ forces more verification).
func (w *Workspace) RunGammaSweep() (*Result, error) {
	e, err := w.Engine(Collaboration, MixtureScores, 0.01, hops)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:    "A2",
		Title: "Ablation: backward threshold γ sweep (Collaboration, SUM, k=100)",
		XName: "gamma",
	}
	for _, gamma := range []float64{0, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9} {
		var stats core.QueryStats
		sec, err := w.timeQuery(func() error {
			var err error
			_, stats, err = e.Backward(100, core.Sum, gamma)
			return err
		})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Row{
			X: gamma, Label: "Backward", Sec: sec,
			Extra: map[string]float64{
				"distributed": float64(stats.Distributed),
				"verified":    float64(stats.Evaluated),
			},
		})
		w.logf("A2 γ=%v %.4fs (distributed=%d verified=%d)", gamma, sec, stats.Distributed, stats.Evaluated)
	}
	return res, nil
}

// RunHopSweep is ablation A3: hop radius h ∈ {1,2,3}. Neighborhood sizes
// explode with h (the m^h·|V| cost the problem statement cites), which is
// why the paper evaluates h=2.
func (w *Workspace) RunHopSweep() (*Result, error) {
	res := &Result{
		ID:    "A3",
		Title: "Ablation: hop radius sweep (Collaboration, SUM, k=100)",
		XName: "h",
	}
	for _, h := range []int{1, 2, 3} {
		e, err := w.Engine(Collaboration, MixtureScores, 0.01, h)
		if err != nil {
			return nil, err
		}
		for _, algo := range figureAlgos {
			sec, err := w.timeQuery(func() error {
				_, err := e.Run(context.Background(), core.Query{
					Algorithm: algo, K: 100, Aggregate: core.Sum,
					Options: core.Options{Gamma: 0.2, Order: core.OrderDegreeDesc},
				})
				return err
			})
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, Row{X: float64(h), Label: algo.String(), Sec: sec})
			w.logf("A3 h=%d %-14s %.4fs", h, algo, sec)
		}
	}
	return res, nil
}

// RunOrderSweep is ablation A4: LONA-Forward's queue order. Processing
// likely-large aggregates first raises the pruning threshold sooner.
func (w *Workspace) RunOrderSweep() (*Result, error) {
	e, err := w.Engine(Collaboration, MixtureScores, 0.01, hops)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:    "A4",
		Title: "Ablation: forward queue order (Collaboration, SUM, k=100)",
		XName: "k",
	}
	for _, k := range []int{10, 100, 300} {
		for _, order := range []core.QueueOrder{core.OrderNatural, core.OrderDegreeDesc, core.OrderScoreDesc} {
			var stats core.QueryStats
			sec, err := w.timeQuery(func() error {
				var err error
				_, stats, err = e.Forward(k, core.Sum, order)
				return err
			})
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, Row{
				X: float64(k), Label: order.String(), Sec: sec,
				Extra: map[string]float64{"pruned": float64(stats.Pruned)},
			})
			w.logf("A4 k=%d %-12s %.4fs (pruned=%d)", k, order, sec, stats.Pruned)
		}
	}
	return res, nil
}

// RunRelational is experiment A5: the introduction's motivating claim.
// A relational plan (edge-table self-join + group-by + order-limit) versus
// graph-native Base and LONA-Forward on the same query. The relational
// engine materializes the distinct 2-hop reachability relation, which is
// exactly why "the existing implementation of aggregation operations on
// relational databases does not guarantee superior performance in network
// space".
func (w *Workspace) RunRelational() (*Result, error) {
	// The relational plan materializes |V|·avg(N) rows; run it on a
	// reduced collaboration graph so A5 finishes in seconds.
	sub := NewWorkspace(Config{Scale: w.cfg.Scale * 0.25, Seed: w.cfg.Seed, Repeats: w.cfg.Repeats, Workers: w.cfg.Workers})
	sub.Logf = w.Logf
	res := &Result{
		ID:    "A5",
		Title: "Motivation: RDBMS edge-table self-join vs graph-native (k=100)",
		XName: "h",
	}
	for _, h := range []int{1, 2} {
		e, err := sub.Engine(Collaboration, MixtureScores, 0.01, h)
		if err != nil {
			return nil, err
		}
		if h == 1 {
			res.Notes = fmt.Sprintf("Collaboration at scale %v: %d nodes, %d edges",
				sub.cfg.Scale, e.Graph().NumNodes(), e.Graph().NumEdges())
		}
		g, scores := e.Graph(), e.Scores()

		sec, err := sub.timeQuery(func() error {
			_, err := relstore.NeighborhoodTopK(g, scores, h, 100, false)
			return err
		})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Row{X: float64(h), Label: "RDBMS-plan", Sec: sec})
		w.logf("A5 h=%d RDBMS-plan %.4fs", h, sec)

		for _, algo := range []core.Algorithm{core.AlgoBase, core.AlgoForward} {
			sec, err := sub.timeQuery(func() error {
				_, err := e.Run(context.Background(), core.Query{
					Algorithm: algo, K: 100, Aggregate: core.Sum,
					Options: core.Options{Order: core.OrderDegreeDesc},
				})
				return err
			})
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, Row{X: float64(h), Label: algo.String(), Sec: sec})
			w.logf("A5 h=%d %-14s %.4fs", h, algo, sec)
		}
	}
	return res, nil
}

// RunPartitioned is experiment A6: the future-work infrastructure. It
// partitions the collaboration network into 1..8 parts, raw BFS-grown
// and boundary-refined, and runs Base through the sharded coordinator
// over each, reporting wall clock, messages, edge cut, ghost replication
// (the boundary nodes every shard closure copies in — what partition
// quality actually controls), and the largest per-shard evaluation
// count.
func (w *Workspace) RunPartitioned() (*Result, error) {
	g, err := w.Graph(Collaboration)
	if err != nil {
		return nil, err
	}
	scores, err := w.Scores(g, MixtureScores, 0.01)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:    "A6",
		Title: "Future work: partitioned execution (Collaboration, SUM, k=100)",
		XName: "parts",
		Notes: fmt.Sprintf("%d nodes, %d edges; BFS-grown partitions, serial fan-out", g.NumNodes(), g.NumEdges()),
	}
	for _, parts := range []int{1, 2, 4, 8} {
		for _, refined := range []bool{false, true} {
			p, err := partition.BFSGrow(g, parts)
			if err != nil {
				return nil, err
			}
			label := "BFS-grow"
			if refined {
				partition.Refine(g, p, 1.3, 3)
				label = "BFS-grow+refine"
			}
			local, err := PartitionedLocal(g, scores, hops, p)
			if err != nil {
				return nil, err
			}
			// Serial fan-out with a pinned cadence: the work and message
			// counters repeat exactly.
			coord := cluster.NewCoordinator(local, cluster.Options{Parallel: 1, PartialEvery: streamBenchEvery})
			var bd cluster.Breakdown
			sec, err := w.timeQuery(func() error {
				var err error
				_, bd, err = coord.RunDetailed(context.Background(), core.Query{Algorithm: core.AlgoBase, K: 100, Aggregate: core.Sum})
				return err
			})
			if err != nil {
				return nil, err
			}
			topo := local.Topology()
			maxWork := 0
			for _, r := range bd.PerShard {
				maxWork = max(maxWork, r.Evaluated)
			}
			res.Rows = append(res.Rows, Row{
				X: float64(parts), Label: label, Sec: sec,
				Extra: map[string]float64{
					"messages":       float64(bd.Messages),
					"edge_cut":       float64(topo.EdgeCut),
					"boundary_nodes": float64(topo.BoundaryNodes),
					"max_work":       float64(maxWork),
				},
			})
			w.logf("A6 parts=%d %-16s %.4fs (messages=%d cut=%d boundary=%d)",
				parts, label, sec, bd.Messages, topo.EdgeCut, topo.BoundaryNodes)
		}
	}
	return res, nil
}

// PartitionedLocal builds one shard per part of p over (g, scores, h)
// and returns the in-process transport over them.
func PartitionedLocal(g *graph.Graph, scores []float64, h int, p *partition.Partitioning) (*cluster.Local, error) {
	shards := make([]*cluster.Shard, p.P)
	for i := range shards {
		var err error
		if shards[i], err = cluster.BuildShard(g, scores, h, p, i); err != nil {
			return nil, err
		}
	}
	return cluster.NewLocalFromShards(shards, g.NumNodes(), p.EdgeCut(g)), nil
}

// RunDistBound is ablation A7: the index-free distribution bound
// (property 2 of the paper's abstract) against Equation 1's
// differential-index bound and Base. The distribution bound needs no
// per-edge index but only bites when neighborhood sizes are skewed enough
// that top(N(v)) undercuts the k-th aggregate.
func (w *Workspace) RunDistBound() (*Result, error) {
	res := &Result{
		ID:    "A7",
		Title: "Ablation: distribution bound vs differential index (SUM, k=100)",
		XName: "k",
	}
	for _, dataset := range []DatasetKind{Collaboration, Intrusion} {
		rel, r := MixtureScores, 0.01
		if dataset == Intrusion {
			rel, r = BinaryScores, 0.2
		}
		e, err := w.Engine(dataset, rel, r, hops)
		if err != nil {
			return nil, err
		}
		for _, k := range []int{10, 100, 300} {
			for _, algo := range []core.Algorithm{core.AlgoBase, core.AlgoForward, core.AlgoForwardDist} {
				var stats core.QueryStats
				sec, err := w.timeQuery(func() error {
					ans, err := e.Run(context.Background(), core.Query{
						Algorithm: algo, K: k, Aggregate: core.Sum,
						Options: core.Options{Order: core.OrderDegreeDesc},
					})
					stats = ans.Stats
					return err
				})
				if err != nil {
					return nil, err
				}
				res.Rows = append(res.Rows, Row{
					X: float64(k), Label: fmt.Sprintf("%s/%s", dataset, algo), Sec: sec,
					Extra: map[string]float64{"evaluated": float64(stats.Evaluated)},
				})
				w.logf("A7 %v k=%d %-14s %.4fs (evaluated=%d)", dataset, k, algo, sec, stats.Evaluated)
			}
		}
	}
	return res, nil
}

// ExperimentIDs lists every runnable experiment in canonical order.
func ExperimentIDs() []string {
	ids := make([]string, 0, len(PaperFigures)+7)
	for _, f := range PaperFigures {
		ids = append(ids, f.ID)
	}
	ids = append(ids, "A1", "A2", "A3", "A4", "A5", "A6", "A7", "S1", "S2", "S3", "S4", "S5")
	return ids
}

// Run executes the experiment with the given id.
func (w *Workspace) Run(id string) (*Result, error) {
	for _, f := range PaperFigures {
		if f.ID == id {
			return w.RunFigure(f)
		}
	}
	switch id {
	case "A1":
		return w.RunBlackingSweep()
	case "A2":
		return w.RunGammaSweep()
	case "A3":
		return w.RunHopSweep()
	case "A4":
		return w.RunOrderSweep()
	case "A5":
		return w.RunRelational()
	case "A6":
		return w.RunPartitioned()
	case "A7":
		return w.RunDistBound()
	case "S1":
		return w.RunServing()
	case "S2":
		return w.RunCluster()
	case "S3":
		return w.RunMutation()
	case "S4":
		return w.RunStream()
	case "S5":
		return w.RunSnapshot()
	default:
		known := ExperimentIDs()
		sort.Strings(known)
		return nil, fmt.Errorf("bench: unknown experiment %q (known: %v)", id, known)
	}
}
