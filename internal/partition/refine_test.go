package partition

import (
	"testing"

	"repro/internal/gen"
)

func TestRefineReducesCut(t *testing.T) {
	g := gen.WattsStrogatz(3000, 5, 0.05, 21)
	p, err := BFSGrow(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	before := p.EdgeCut(g)
	moved := Refine(g, p, 1.3, 4)
	after := p.EdgeCut(g)
	if err := p.Validate(g); err != nil {
		t.Fatalf("refinement corrupted the partitioning: %v", err)
	}
	if moved == 0 {
		t.Fatal("refinement moved nothing on a ragged BFS partitioning")
	}
	if after >= before {
		t.Fatalf("cut did not improve: %d -> %d", before, after)
	}
	if b := p.Balance(); b > 1.35 {
		t.Fatalf("refinement broke balance: %v", b)
	}
}

func TestRefineRespectsCapacity(t *testing.T) {
	// A star wants everything in the hub's part; the cap must stop it.
	g := gen.BarabasiAlbert(500, 2, 23)
	p, err := BFSGrow(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	Refine(g, p, 1.2, 5)
	sizes := p.Sizes()
	limit := int(float64(500) / 5 * 1.2)
	for part, size := range sizes {
		if size > limit+1 { // +1: the move check races the cap by one node
			t.Fatalf("part %d grew to %d, cap %d", part, size, limit)
		}
	}
}

func TestRefineNoOpCases(t *testing.T) {
	g := gen.ErdosRenyi(50, 120, 25)
	single, err := BFSGrow(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if moved := Refine(g, single, 1.3, 3); moved != 0 {
		t.Fatalf("single-part refinement moved %d nodes", moved)
	}
	empty, err := BFSGrow(gen.ErdosRenyi(16, 0, 1), 2)
	if err != nil {
		t.Fatal(err)
	}
	Refine(gen.ErdosRenyi(16, 0, 1), empty, 1.3, 3) // must not panic
}
