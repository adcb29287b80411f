// Package partition splits a large network into parts — the first half
// of the infrastructure the paper says it is "currently developing":
// partitioning the network into subnetworks and distributing the
// aggregation workload across machines. BFSGrow grows balanced,
// connected parts and Refine trims their boundaries; internal/cluster
// builds one shard per part (its h-hop closure) and runs the distributed
// aggregation over them.
package partition

import (
	"fmt"
	"sort"

	"repro/internal/ds"
	"repro/internal/graph"
)

// Partitioning assigns every node to one of P parts.
type Partitioning struct {
	P      int
	Assign []int32 // Assign[v] = part owning v
}

// PartOf returns the part owning v.
func (p *Partitioning) PartOf(v int) int { return int(p.Assign[v]) }

// Sizes returns the node count of each part.
func (p *Partitioning) Sizes() []int {
	sizes := make([]int, p.P)
	for _, part := range p.Assign {
		sizes[part]++
	}
	return sizes
}

// ExtendTo assigns parts to nodes added after the partitioning was
// computed: node v joins part v mod P. The rule is a pure function of the
// node id, so independent processes (a coordinator and its shard workers)
// extending the same partitioning over the same edit stream agree without
// any coordination — the property the deterministic-partitioning contract
// (BuildShard) requires. Round-robin also keeps growth balanced; a later
// Refine or reshard can move the new nodes somewhere smarter.
func (p *Partitioning) ExtendTo(n int) {
	for v := len(p.Assign); v < n; v++ {
		p.Assign = append(p.Assign, int32(v%p.P))
	}
}

// Validate checks every node is assigned to a legal part.
func (p *Partitioning) Validate(g *graph.Graph) error {
	if len(p.Assign) != g.NumNodes() {
		return fmt.Errorf("partition: %d assignments for %d nodes", len(p.Assign), g.NumNodes())
	}
	for v, part := range p.Assign {
		if part < 0 || int(part) >= p.P {
			return fmt.Errorf("partition: node %d assigned to part %d of %d", v, part, p.P)
		}
	}
	return nil
}

// EdgeCut returns the number of undirected edges whose endpoints live in
// different parts — the classic partition quality metric and a proxy for
// steady-state communication.
func (p *Partitioning) EdgeCut(g *graph.Graph) int {
	cut := 0
	for u := 0; u < g.NumNodes(); u++ {
		pu := p.Assign[u]
		for _, v := range g.Neighbors(u) {
			if int(v) > u && p.Assign[v] != pu {
				cut++
			}
		}
	}
	return cut
}

// BFSGrow partitions g into parts of near-equal node count by growing
// breadth-first regions from spaced seeds: a cheap locality-preserving
// heuristic (the METIS-style refinement a production system would add is
// out of scope; BFS growth already keeps h-hop neighborhoods mostly
// intra-part, which is what the aggregation workload needs).
func BFSGrow(g *graph.Graph, parts int) (*Partitioning, error) {
	n := g.NumNodes()
	if parts <= 0 {
		return nil, fmt.Errorf("partition: need at least 1 part, got %d", parts)
	}
	if parts > n && n > 0 {
		return nil, fmt.Errorf("partition: %d parts for %d nodes", parts, n)
	}
	assign := make([]int32, n)
	for i := range assign {
		assign[i] = -1
	}
	if n == 0 {
		return &Partitioning{P: parts, Assign: assign}, nil
	}
	capacity := (n + parts - 1) / parts

	var queue ds.IntQueue
	part := 0
	filled := 0
	for start := 0; start < n; start++ {
		if assign[start] != -1 {
			continue
		}
		queue.Reset()
		queue.Push(start)
		assign[start] = int32(part)
		filled++
		for !queue.Empty() {
			if filled >= capacity && part < parts-1 {
				// Current part is full: later discoveries go to the next.
				part++
				filled = 0
			}
			u := queue.Pop()
			for _, v32 := range g.Neighbors(u) {
				v := int(v32)
				if assign[v] != -1 {
					continue
				}
				assign[v] = int32(part)
				filled++
				queue.Push(v)
			}
		}
	}
	p := &Partitioning{P: parts, Assign: assign}
	if err := p.Validate(g); err != nil {
		return nil, err
	}
	return p, nil
}

// Balance returns the load imbalance of a partitioning: the largest part
// size divided by the ideal size. 1.0 is perfect balance.
func (p *Partitioning) Balance() float64 {
	sizes := p.Sizes()
	if len(sizes) == 0 || len(p.Assign) == 0 {
		return 1
	}
	sort.Ints(sizes)
	ideal := float64(len(p.Assign)) / float64(p.P)
	return float64(sizes[len(sizes)-1]) / ideal
}
