// Command lonabench regenerates the paper's evaluation: Figures 1–6
// (runtime vs top-k for SUM and AVG on the three networks), the ablation
// experiments A1–A7 defined in DESIGN.md, and the serving benchmarks
// S1 (lonad cold/cached/post-update latency → BENCH_serving.json),
// S2 (sharded execution vs single engine → BENCH_cluster.json),
// S3 (structural-mutation repair vs rebuild → BENCH_mutation.json),
// S4 (streaming within-shard TA cuts vs standalone shards →
// BENCH_stream.json), and S5 (the scale-2 snapshot tier: mmap cold
// start vs build-from-generator, cold-serve topologies, steady-state
// queries at GOMAXPROCS ∈ {1,4} → BENCH_snapshot.json; run with
// -experiments S5 -scale 2 for the ≥100k-node artifact).
// Output is markdown (stdout or -out file) plus optional per-experiment
// CSV.
//
// A full run at -scale 1 takes tens of minutes (the differential index for
// the citation network dominates); -scale 0.1 gives a minutes-long pass
// that preserves every qualitative shape.
//
// Usage:
//
//	lonabench -experiments all -scale 0.1 -out EXPERIMENTS-run.md
//	lonabench -experiments F1,F4 -scale 1 -repeats 3
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
)

func main() {
	var (
		experiments  = flag.String("experiments", "all", "comma-separated experiment ids (F1..F6, A1..A7, S1..S5) or 'all'")
		scale        = flag.Float64("scale", 1.0, "dataset scale multiplier")
		seed         = flag.Int64("seed", 20100301, "session seed")
		repeats      = flag.Int("repeats", 1, "timed repetitions per query (min kept)")
		workers      = flag.Int("workers", 0, "worker goroutines for index builds (0 = GOMAXPROCS)")
		out          = flag.String("out", "", "write the markdown report to this file (default stdout)")
		csvDir       = flag.String("csv-dir", "", "also write one CSV per experiment into this directory")
		servingJSON  = flag.String("serving-json", "BENCH_serving.json", "write the S1 serving summary to this file (empty disables)")
		clusterJSON  = flag.String("cluster-json", "BENCH_cluster.json", "write the S2 sharded-execution summary to this file (empty disables)")
		mutationJSON = flag.String("mutation-json", "BENCH_mutation.json", "write the S3 structural-mutation summary to this file (empty disables)")
		streamJSON   = flag.String("stream-json", "BENCH_stream.json", "write the S4 streaming-cuts summary to this file (empty disables)")
		snapJSON     = flag.String("snapshot-json", "BENCH_snapshot.json", "write the S5 snapshot-tier summary to this file (empty disables)")
		quiet        = flag.Bool("quiet", false, "suppress progress logging")
	)
	flag.Parse()
	if err := run(*experiments, *scale, *seed, *repeats, *workers, *out, *csvDir, *servingJSON, *clusterJSON, *mutationJSON, *streamJSON, *snapJSON, *quiet); err != nil {
		fmt.Fprintln(os.Stderr, "lonabench:", err)
		os.Exit(1)
	}
}

// buildStamp resolves the git revision and Go toolchain version once, so
// every benchmark artifact can be traced back to the exact code and
// compiler that produced its numbers. The revision comes from the
// binary's embedded VCS info when present (go build in a git checkout),
// falling back to asking git directly (go run / go test builds don't
// embed it), and finally "unknown".
var buildStamp = sync.OnceValues(func() (sha, goVersion string) {
	goVersion = runtime.Version()
	sha = "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		var modified bool
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				if s.Value != "" {
					sha = s.Value
				}
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if sha != "unknown" && modified {
			sha += "-dirty"
		}
	}
	if sha == "unknown" {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			if rev := strings.TrimSpace(string(out)); rev != "" {
				sha = rev
			}
		}
	}
	return sha, goVersion
})

// writeSummary marshals a machine-readable benchmark summary to path,
// stamped with the producing git revision, Go version, GOMAXPROCS, and
// session scale alongside the summary's own fields (cpus et al.), so a
// scale-0.2 / 1-P artifact can never be mistaken for a scale-2 run.
func writeSummary(path string, summary any, scale float64, quiet bool) error {
	blob, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	var m map[string]any
	if err := json.Unmarshal(blob, &m); err != nil {
		return fmt.Errorf("summary for %s is not a JSON object: %w", path, err)
	}
	m["git_sha"], m["go_version"] = buildStamp()
	m["gomaxprocs"] = runtime.GOMAXPROCS(0)
	m["scale"] = scale
	if blob, err = json.MarshalIndent(m, "", "  "); err != nil {
		return err
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "wrote summary to %s\n", path)
	}
	return nil
}

func run(experiments string, scale float64, seed int64, repeats, workers int, out, csvDir, servingJSON, clusterJSON, mutationJSON, streamJSON, snapJSON string, quiet bool) error {
	ids := bench.ExperimentIDs()
	if experiments != "all" {
		ids = nil
		for _, id := range strings.Split(experiments, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}

	w := bench.NewWorkspace(bench.Config{Scale: scale, Seed: seed, Repeats: repeats, Workers: workers})
	if !quiet {
		w.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "  "+format+"\n", args...)
		}
	}

	var report strings.Builder
	fmt.Fprintf(&report, "# LONA experiment run\n\nscale=%v seed=%d repeats=%d date=%s\n\n",
		scale, seed, repeats, time.Now().Format("2006-01-02"))

	for _, id := range ids {
		if !quiet {
			fmt.Fprintf(os.Stderr, "running %s…\n", id)
		}
		start := time.Now()
		var res *bench.Result
		var err error
		switch id {
		case "S1":
			// The serving benchmarks also yield machine-readable summaries
			// so the perf trajectory across PRs is tracked mechanically.
			var summary *bench.ServingSummary
			res, summary, err = w.RunServingDetailed()
			if err == nil && servingJSON != "" {
				if werr := writeSummary(servingJSON, summary, scale, quiet); werr != nil {
					return werr
				}
			}
		case "S2":
			var summary *bench.ClusterSummary
			res, summary, err = w.RunClusterDetailed()
			if err == nil && clusterJSON != "" {
				if werr := writeSummary(clusterJSON, summary, scale, quiet); werr != nil {
					return werr
				}
			}
		case "S3":
			var summary *bench.MutationSummary
			res, summary, err = w.RunMutationDetailed()
			if err == nil && mutationJSON != "" {
				if werr := writeSummary(mutationJSON, summary, scale, quiet); werr != nil {
					return werr
				}
			}
		case "S4":
			var summary *bench.StreamSummary
			res, summary, err = w.RunStreamDetailed()
			if err == nil && streamJSON != "" {
				if werr := writeSummary(streamJSON, summary, scale, quiet); werr != nil {
					return werr
				}
			}
		case "S5":
			var summary *bench.SnapshotSummary
			res, summary, err = w.RunSnapshotDetailed()
			if err == nil && snapJSON != "" {
				if werr := writeSummary(snapJSON, summary, scale, quiet); werr != nil {
					return werr
				}
			}
		default:
			res, err = w.Run(id)
		}
		if err != nil {
			return fmt.Errorf("experiment %s: %w", id, err)
		}
		if !quiet {
			fmt.Fprintf(os.Stderr, "%s done in %.1fs\n", id, time.Since(start).Seconds())
		}
		report.WriteString(res.Markdown())
		report.WriteString("\n")

		if csvDir != "" {
			if err := os.MkdirAll(csvDir, 0o755); err != nil {
				return err
			}
			path := filepath.Join(csvDir, res.ID+".csv")
			if err := os.WriteFile(path, []byte(res.CSV()), 0o644); err != nil {
				return fmt.Errorf("writing %s: %w", path, err)
			}
		}
	}

	if out == "" {
		fmt.Print(report.String())
		return nil
	}
	if err := os.WriteFile(out, []byte(report.String()), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote report to %s\n", out)
	return nil
}
