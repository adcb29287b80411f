package partition

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
)

func TestBFSGrowCoversAllNodes(t *testing.T) {
	g := gen.BarabasiAlbert(1000, 3, 1)
	for _, parts := range []int{1, 2, 4, 8} {
		p, err := BFSGrow(g, parts)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(g); err != nil {
			t.Fatalf("parts=%d: %v", parts, err)
		}
		total := 0
		for _, s := range p.Sizes() {
			total += s
		}
		if total != 1000 {
			t.Fatalf("parts=%d: %d nodes assigned, want 1000", parts, total)
		}
	}
}

func TestBFSGrowBalance(t *testing.T) {
	g := gen.ErdosRenyi(2000, 6000, 2)
	p, err := BFSGrow(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if b := p.Balance(); b > 1.5 {
		t.Fatalf("imbalance %v too high for BFS growth", b)
	}
}

func TestBFSGrowValidation(t *testing.T) {
	g := gen.ErdosRenyi(10, 20, 3)
	if _, err := BFSGrow(g, 0); err == nil {
		t.Fatal("0 parts accepted")
	}
	if _, err := BFSGrow(g, 11); err == nil {
		t.Fatal("more parts than nodes accepted")
	}
	p, err := BFSGrow(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.EdgeCut(g) != 0 {
		t.Fatal("single-part edge cut non-zero")
	}
}

func TestBFSGrowLocality(t *testing.T) {
	// A locality-preserving partitioner must cut far fewer edges than a
	// random (round-robin) assignment on a clustered graph.
	g := gen.WattsStrogatz(2000, 5, 0.05, 5)
	p, err := BFSGrow(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	random := &Partitioning{P: 4, Assign: make([]int32, g.NumNodes())}
	for v := range random.Assign {
		random.Assign[v] = int32(v % 4)
	}
	// Rewired shortcuts scatter the BFS ball, so the improvement is
	// bounded; demand at least a 1.5× smaller cut than round-robin.
	if got, rand := p.EdgeCut(g), random.EdgeCut(g); got*3 > rand*2 {
		t.Fatalf("BFS cut %d not clearly better than random cut %d", got, rand)
	}
}

func TestPartitioningProperty(t *testing.T) {
	property := func(seedRaw uint32, partsRaw uint8) bool {
		parts := int(partsRaw%7) + 1
		g := gen.ErdosRenyi(120, 300, int64(seedRaw))
		p, err := BFSGrow(g, parts)
		if err != nil {
			return false
		}
		if p.Validate(g) != nil {
			return false
		}
		// Every part must be non-trivially populated under BFS growth
		// with capacity ceil(n/parts) — allow empty only if disconnected
		// remainders collapsed, but total must always equal n.
		total := 0
		for _, s := range p.Sizes() {
			total += s
		}
		return total == g.NumNodes()
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
