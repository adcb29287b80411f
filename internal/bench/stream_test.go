package bench

import "testing"

// TestRunStreamSmoke runs S4 on a small-but-real dataset and checks the
// acceptance property of streaming within-shard cuts: for every
// bound-driven algorithm, the streaming run evaluates strictly fewer
// candidates than the same shards run standalone (no floor) on the skewed
// scenario, while the harness itself verified both answers
// byte-identical to the single engine before reporting them.
func TestRunStreamSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("stream benchmark takes seconds")
	}
	w := NewWorkspace(Config{Scale: 0.1, Seed: 42, Workers: 2})
	res, sum, err := w.RunStreamDetailed()
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "S4" || len(sum.Cells) != 6 {
		t.Fatalf("unexpected result shape: id=%s cells=%d", res.ID, len(sum.Cells))
	}
	byKey := map[string]StreamGridCell{}
	for _, cell := range sum.Cells {
		if cell.Sec <= 0 {
			t.Fatalf("cell %+v has non-positive timing", cell)
		}
		byKey[cell.Algorithm+"/"+cell.Mode] = cell
	}
	for _, algo := range []string{"Forward-Dist", "Backward"} {
		alone, okA := byKey[algo+"/standalone"]
		stream, okS := byKey[algo+"/streaming"]
		primed, okP := byKey[algo+"/streaming-primed"]
		if !okA || !okS || !okP {
			t.Fatalf("missing cells for %s: %v", algo, byKey)
		}
		if stream.Evaluated >= alone.Evaluated {
			t.Fatalf("%s: streaming evaluated %d, standalone shards %d — within-shard cuts bought nothing",
				algo, stream.Evaluated, alone.Evaluated)
		}
		if stream.Batches == 0 {
			t.Fatalf("%s: streaming run folded no partial batches", algo)
		}
		if primed.LambdaPrimed <= 0 {
			t.Fatalf("%s: streaming-primed run reports no primed λ: %+v", algo, primed)
		}
		if primed.Evaluated > stream.Evaluated {
			t.Fatalf("%s: priming increased evaluated work: primed %d, unprimed %d",
				algo, primed.Evaluated, stream.Evaluated)
		}
	}
	cold := sum.ColdShards
	if cold == nil {
		t.Fatal("no cold-shard summary")
	}
	if cold.PrimedLambda <= 0 {
		t.Fatalf("cold-shard primed λ = %v, want > 0", cold.PrimedLambda)
	}
	if cold.PrelaunchCutsPrimed != cold.Parts-1 || cold.LaunchedPrimed != 1 {
		t.Fatalf("primed cold run launched %d and pre-launch-cut %d of %d shards, want 1 launch and %d cuts",
			cold.LaunchedPrimed, cold.PrelaunchCutsPrimed, cold.Parts, cold.Parts-1)
	}
	// The unprimed side is timing-dependent: the hot shard's first folded
	// batch raises λ, which may cut trailing shards before their launch
	// slot is decided. Only ordering claims are deterministic there.
	if cold.LaunchedCold < cold.LaunchedPrimed {
		t.Fatalf("unprimed cold run launched %d shards, primed %d — priming should never launch more",
			cold.LaunchedCold, cold.LaunchedPrimed)
	}
	if cold.MessagesPrimed > cold.MessagesCold {
		t.Fatalf("priming increased messages: primed %d, cold %d", cold.MessagesPrimed, cold.MessagesCold)
	}
	if res.Markdown() == "" || res.CSV() == "" {
		t.Fatal("renderers rejected the grid")
	}
}
