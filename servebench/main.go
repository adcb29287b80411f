// Command servebench is lonad's serving benchmark. It boots real lonad
// processes, drives them over loopback HTTP from one load generator with
// two connections, checks every answer against an in-process engine, and
// prints end-to-end metrics; with -trace 1 it instead replays the same
// generated requests in-process and prints per-layer metrics.
//
// Run it through run.sh from the repository root, which builds lonad and
// this command from the checkout:
//
//	bash servebench/run.sh --workload cold-read --seed 1 --seconds 36 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: cold-read | hot-read | read-write | sharded-read")
		seed    = flag.Int64("seed", 1, "workload seed; the same seed sends the same requests")
		seconds = flag.Int("seconds", 20, "measured seconds per run, split 3:2 between the open-loop and capacity phases")
		traced  = flag.Int("trace", 0, "1 replays the requests in-process and reports per-layer metrics instead")
		lonad   = flag.String("lonad", "", "lonad binary (end-to-end runs)")
		workdir = flag.String("workdir", "", "scratch directory for journals (default: a temporary directory)")
		gitSHA  = flag.String("git-sha", "unknown", "commit being measured, for the run stamp")
	)
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "servebench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) || (*traced == 0 && *lonad == "") {
		fmt.Fprintln(os.Stderr, "servebench: need -seconds >= 1, -trace 0|1, and -lonad for end-to-end runs")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	dir, err := os.MkdirTemp(*workdir, "servebench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	// Removed below before any exit; the deferred call covers a panic,
	// such as a cold stream that runs out of distinct queries.
	defer os.RemoveAll(dir)
	stamp := map[string]any{
		"workload": w.name, "seed": *seed, "seconds": *seconds, "trace": *traced,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"git_sha": *gitSHA, "scale": dataScale, "graph_seed": dataSeed, "r": dataR, "h": dataH,
	}
	printJSONLine("stamp", stamp)

	var res *result
	if *traced == 1 {
		res, err = runTraced(ctx, w, *seed, time.Duration(*seconds)*time.Second, dir)
	} else {
		res, err = runEndToEnd(ctx, w, *seed, time.Duration(*seconds)*time.Second, *lonad, dir)
	}
	if rmErr := os.RemoveAll(dir); err == nil && rmErr != nil {
		err = rmErr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("metric %-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func printJSONLine(tag string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(fmt.Sprintf("%q", err.Error()))
	}
	fmt.Printf("%s %s\n", tag, b)
}
