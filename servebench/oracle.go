package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"

	lona "repro"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/server"
)

// dataset is the boot state every lonad of a run derives from its flags.
type dataset struct {
	g      *graph.Graph
	scores []float64
}

func loadDataset() *dataset {
	g := lona.CollaborationNetwork(dataScale, dataSeed)
	return &dataset{g: g, scores: lona.MixtureScores(g, dataR, dataSeed+1)}
}

// oracle answers queries with an in-process core.Engine at any
// generation of one serving instance. Generation 0 is the boot state;
// generation g is the boot state with the instance's acknowledged
// batches 1..g applied in order.
//
// Unrestricted queries are checked against the top-maxK list of the
// Base scan: results are ordered by value then node id, so the top-k for
// every k ≤ maxK is a prefix of it, and one scan per (generation,
// aggregate) checks every k. The one difference accepted is a tie order
// (see tieOrderOnly).
type oracle struct {
	states  []*genState
	batches map[uint64]*op // acknowledged generation → batch
}

type genState struct {
	g      *graph.Graph
	scores []float64
	eng    *core.Engine
	top    map[core.Aggregate][]core.Result
	memo   map[string][]byte // candidate-restricted answers by op key
}

func newOracle(ds *dataset) *oracle {
	return &oracle{states: []*genState{{g: ds.g, scores: ds.scores}}, batches: map[uint64]*op{}}
}

// state returns generation gen, applying acknowledged batches as needed.
func (or *oracle) state(gen uint64) (*genState, error) {
	for uint64(len(or.states)) <= gen {
		next := uint64(len(or.states))
		b, ok := or.batches[next]
		if !ok {
			return nil, fmt.Errorf("answer stamped with generation %d, but no batch was acknowledged at it", next)
		}
		prev := or.states[next-1]
		st := &genState{g: prev.g, scores: prev.scores}
		switch b.kind {
		case opScores:
			st.scores = append([]float64(nil), prev.scores...)
			for _, u := range b.scores {
				st.scores[u.Node] = u.Score
			}
		case opEdges:
			edits, err := graphEdits(b.edits)
			if err != nil {
				return nil, err
			}
			g, _, err := prev.g.ApplyEdits(edits)
			if err != nil {
				return nil, fmt.Errorf("oracle edit replay at generation %d: %w", next, err)
			}
			st.g = g
		}
		or.states = append(or.states, st)
	}
	st := or.states[gen]
	if st.eng == nil {
		eng, err := core.NewEngine(st.g, st.scores, dataH)
		if err != nil {
			return nil, err
		}
		st.eng, st.top, st.memo = eng, map[core.Aggregate][]core.Result{}, map[string][]byte{}
	}
	return st, nil
}

// expect returns the encoded results q must answer at generation gen.
func (or *oracle) expect(gen uint64, o *op) ([]byte, error) {
	st, err := or.state(gen)
	if err != nil {
		return nil, err
	}
	if b, ok := st.memo[o.key]; ok {
		return b, nil
	}
	agg, err := server.ParseAggregate(o.q.Aggregate)
	if err != nil {
		return nil, err
	}
	var res []core.Result
	if len(o.q.Candidates) > 0 {
		ans, err := st.eng.Run(context.Background(), core.Query{
			Algorithm: core.AlgoBase, K: o.q.K, Aggregate: agg, Candidates: o.q.Candidates})
		if err != nil {
			return nil, err
		}
		res = ans.Results
	} else {
		top, ok := st.top[agg]
		if !ok {
			ans, err := st.eng.Run(context.Background(), core.Query{Algorithm: core.AlgoBase, K: maxK, Aggregate: agg})
			if err != nil {
				return nil, err
			}
			top = ans.Results
			st.top[agg] = top
		}
		res = top[:min(o.q.K, len(top))]
	}
	b, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	st.memo[o.key] = b
	return b, nil
}

// tieOrderOnly reports whether got differs from want, the Base answer of
// o at generation gen, only in how it orders or cuts nodes of equal
// value: the value at every rank is bit-identical, no node repeats, and
// every node that is not Base's at its rank has exactly that value at gen
// (and is a candidate, when o has candidates). Within a complete group of
// equal values that makes the node sets equal; in the group cut at rank
// k any node of that value is a correct member of the top-k. topk's
// documented rule breaks such ties toward the smaller node id, and Base
// follows it; an answer that breaks it is counted apart, not as wrong.
func (or *oracle) tieOrderOnly(gen uint64, o *op, got, want []byte) (bool, error) {
	var g, w []core.Result
	if json.Unmarshal(got, &g) != nil || json.Unmarshal(want, &w) != nil || len(g) != len(w) {
		return false, nil
	}
	st, err := or.state(gen)
	if err != nil {
		return false, err
	}
	agg, err := server.ParseAggregate(o.q.Aggregate)
	if err != nil {
		return false, err
	}
	seen := make(map[int]bool, len(g))
	for i := range g {
		if math.Float64bits(g[i].Value) != math.Float64bits(w[i].Value) || seen[g[i].Node] {
			return false, nil
		}
		seen[g[i].Node] = true
		if g[i].Node == w[i].Node {
			continue
		}
		if len(o.q.Candidates) > 0 && !slices.Contains(o.q.Candidates, g[i].Node) {
			return false, nil
		}
		// The node's exact value: Base restricted to that one node.
		ans, err := st.eng.Run(context.Background(), core.Query{
			Algorithm: core.AlgoBase, K: 1, Aggregate: agg, Candidates: []int{g[i].Node}})
		if err != nil {
			return false, err
		}
		if len(ans.Results) != 1 || math.Float64bits(ans.Results[0].Value) != math.Float64bits(g[i].Value) {
			return false, nil
		}
	}
	return true, nil
}

// graphEdits converts a wire edit batch to the graph's form.
func graphEdits(reqs []server.EditRequest) ([]graph.Edit, error) {
	edits := make([]graph.Edit, len(reqs))
	for i, e := range reqs {
		op, err := graph.ParseEditOp(e.Op)
		if err != nil {
			return nil, err
		}
		edits[i] = graph.Edit{Op: op, U: e.U, V: e.V}
	}
	return edits, nil
}

// coreQuery is the engine query the server builds for a request.
func coreQuery(q server.QueryRequest) core.Query {
	agg, _ := server.ParseAggregate(q.Aggregate) // generated names are valid
	out := core.Query{K: q.K, Aggregate: agg, Candidates: q.Candidates}
	if q.Algorithm != "auto" {
		out.Algorithm, _ = server.ParseAlgorithm(q.Algorithm)
	}
	return out
}

// wireAnswer is the part of a /v1/topk response the oracle checks.
type wireAnswer struct {
	Generation uint64          `json:"generation"`
	Results    json.RawMessage `json:"results"`
}

// verdict is the checked outcome of one instance's records.
type verdict struct {
	wrong int
	// tieOrder counts answers that differ from Base's top-k only in the
	// order or choice of nodes of equal value (see tieOrderOnly).
	tieOrder int
	firstBad string
	// gen is each query record's stamped generation (parallel to the
	// records slice; writes carry the generation they produced).
	gen []uint64
}

// verify checks every successful response of one serving instance. It
// first registers the instance's acknowledged batches by the generation
// each produced, then compares every query answer's results byte for
// byte with the oracle at the answer's stamped generation.
func verify(ds *dataset, recs []record) (verdict, error) {
	or := newOracle(ds)
	v := verdict{gen: make([]uint64, len(recs))}
	for i := range recs {
		r := &recs[i]
		if !r.ok() || r.o.kind == opQuery {
			continue
		}
		var ack struct {
			Generation uint64 `json:"generation"`
		}
		if err := json.Unmarshal([]byte(r.body), &ack); err != nil {
			return v, fmt.Errorf("decode %s ack: %w", r.o.kind, err)
		}
		or.batches[ack.Generation] = r.o
		v.gen[i] = ack.Generation
	}
	// Check each distinct (query, response) pair once, in generation
	// order so the oracle walks the batch chain forward.
	type pair struct {
		key, body string
	}
	type check struct {
		o   *op
		ans wireAnswer
		idx []int
	}
	seen := map[pair]*check{}
	var checks []*check
	for i := range recs {
		r := &recs[i]
		if !r.ok() || r.o.kind != opQuery {
			continue
		}
		p := pair{r.o.key, r.body}
		c := seen[p]
		if c == nil {
			c = &check{o: r.o}
			if err := json.Unmarshal([]byte(r.body), &c.ans); err != nil {
				return v, fmt.Errorf("decode answer: %w", err)
			}
			seen[p] = c
			checks = append(checks, c)
		}
		c.idx = append(c.idx, i)
		v.gen[i] = c.ans.Generation
	}
	sort.SliceStable(checks, func(i, j int) bool { return checks[i].ans.Generation < checks[j].ans.Generation })
	for _, c := range checks {
		want, err := or.expect(c.ans.Generation, c.o)
		if err != nil {
			return v, err
		}
		if bytes.Equal(want, c.ans.Results) {
			continue
		}
		tie, err := or.tieOrderOnly(c.ans.Generation, c.o, c.ans.Results, want)
		if err != nil {
			return v, err
		}
		if tie {
			v.tieOrder += len(c.idx)
			fmt.Printf("tie-order query %s at generation %d: equal values, nodes of equal value ordered or chosen unlike Base\n",
				c.o.body, c.ans.Generation)
			continue
		}
		v.wrong += len(c.idx)
		if v.firstBad == "" {
			v.firstBad = fmt.Sprintf("query %s at generation %d: got %.120s, want %.120s",
				c.o.body, c.ans.Generation, c.ans.Results, want)
		}
		for _, i := range c.idx {
			recs[i].err = errWrongAnswer
		}
	}
	return v, nil
}

var errWrongAnswer = fmt.Errorf("answer differs from the in-process engine")
