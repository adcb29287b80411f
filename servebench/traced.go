package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/journal"
	"repro/internal/server"
)

// The traced run replays a workload's generated operations in-process and
// times calls into each layer's public functions from outside:
//
//	http    Server.Handler().ServeHTTP, and the JSON decode/encode it does
//	server  Server.Run, ApplyUpdates, ApplyEdits, Stats
//	core    Planner.Choose, Engine.Run, Engine.WithScores, View.UpdateScore
//	graph   Engine.PrepareNeighborhoodIndex / PrepareDifferentialIndex
//	cluster Coordinator.RunDetailed over NewLocal and over NewHTTP
//	journal Journal.Append
//
// A layer's self time is its call's time minus the time of the call one
// layer down on the same operation, replayed on an identical fresh
// instance so both see the same cache state.

// Sizes of the traced run's fixed probes.
const (
	probeScoreBatches = 8
	probeEditBatches  = 2
	clusterQueries    = 32
	hitRepeats        = 64
	planRepeats       = 5
)

// probeQuery is the fixed query the post-update, Forward-vs-Base and
// planner probes run.
var probeQuery = core.Query{Algorithm: core.AlgoAuto, K: 100, Aggregate: core.Sum}

// tracer holds one traced run's shared state and what it measured.
type tracer struct {
	ctx  context.Context
	w    workload
	ds   *dataset
	dir  string
	base *core.Engine // boot state, both indexes built
	nix  *graph.NeighborhoodIndex

	metrics map[string]metric
	// counts are the exact figures: a function of the seed alone.
	counts   map[string]float64
	wrong    int // wrong answers and count mismatches
	journals []*journal.Journal
}

func (t *tracer) set(name string, v float64, unit string) { t.metrics[name] = metric{v, unit} }

// exact records a figure that repeats exactly for one seed.
func (t *tracer) exact(name string, v float64, unit string) {
	t.set(name, v, unit)
	t.counts[name] = v
}

// newServer builds an in-process server configured as the workload's
// lonad, sharing the prebuilt neighborhood index.
func (t *tracer) newServer(name string) (*server.Server, error) {
	opts := server.Options{Index: t.nix}
	if t.w.journal {
		j, err := journal.Open(filepath.Join(t.dir, name))
		if err != nil {
			return nil, err
		}
		t.journals = append(t.journals, j)
		opts.Journal = j
	}
	return server.New(t.ds.g, t.ds.scores, dataH, opts)
}

func runTraced(ctx context.Context, w workload, seed int64, total time.Duration, dir string) (*result, error) {
	t := &tracer{ctx: ctx, w: w, ds: loadDataset(), dir: dir,
		metrics: map[string]metric{}, counts: map[string]float64{}}
	defer func() {
		for _, j := range t.journals {
			j.Close() // the run's verdict is settled; the directory is removed next
		}
	}()
	// The open-loop phase an end-to-end run of the same length sends.
	openDur, capDur := phaseDurations(total)
	ph := makePlan(w, seed, t.ds, openDur, capDur).open
	ops := append(append([]*op(nil), ph.warm...), ph.timed...)
	if len(ops) > w.traceOps {
		ops = ops[:w.traceOps]
	}

	if err := t.graphIndexes(); err != nil {
		return nil, err
	}
	counter, err := t.replay(ops)
	if err != nil {
		return nil, err
	}
	for _, step := range []func() error{
		t.coreProbes,
		func() error { return t.writePath(seed) },
		func() error { return t.cluster(ops) },
	} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	printJSONLine("counts", t.counts)
	attempted, failed := counter.total()
	return &result{Correct: t.wrong == 0, Attempted: attempted, Failed: failed + t.wrong, Metrics: t.metrics}, nil
}

// graphIndexes times the index builds on fresh engines and keeps the
// last engine, with both indexes, as the boot-state engine.
func (t *tracer) graphIndexes() error {
	var nixS []float64
	for i := 0; i < 3; i++ {
		e, err := core.NewEngine(t.ds.g, t.ds.scores, dataH)
		if err != nil {
			return err
		}
		st := time.Now()
		t.nix = e.PrepareNeighborhoodIndex(0)
		nixS = append(nixS, time.Since(st).Seconds())
		t.base = e
	}
	st := time.Now()
	t.base.PrepareDifferentialIndex(0)
	t.set("graph.dix_build_s", time.Since(st).Seconds(), "s")
	t.set("graph.nix_build_s", median(nixS), "s")
	return nil
}

// replay runs ops through the http, server and core layers and derives
// their self times. It returns the handler replay's operation counts.
func (t *tracer) replay(ops []*op) (opCounts, error) {
	var counter opCounts
	// Untraced reference: the replay through the handler, timed as a
	// whole.
	s0, err := t.newServer("s0")
	if err != nil {
		return counter, err
	}
	h0 := s0.Handler()
	st := time.Now()
	for _, o := range ops {
		serve(h0, o)
	}
	untraced := us(time.Since(st))

	// The traced replay. Three identical instances take every operation
	// in turn — the handler (S1), Server.Run (S2), and an engine chain
	// following the same batches — so the three timings of one query are
	// taken moments apart on the same cache and generation state, and a
	// layer's self time is the difference between adjacent ones.
	s1, err := t.newServer("s1")
	if err != nil {
		return counter, err
	}
	s2, err := t.newServer("s2")
	if err != nil {
		return counter, err
	}
	h1 := s1.Handler()
	eng, cur := t.base, *t.ds
	recs := make([]record, len(ops))
	answers := make([]*server.Answer, len(ops))
	runUS := map[string][]float64{}
	var work core.QueryStats
	var handlerSum, serverSum, selfServer float64
	queries, executed := 0, 0
	before := s2.Stats()
	for i, o := range ops {
		st := time.Now()
		rr := serve(h1, o)
		t1 := us(time.Since(st))
		recs[i] = record{o: o, status: rr.Code, body: rr.Body.String()}
		switch o.kind {
		case opScores:
			if _, err := s2.ApplyUpdates(o.scores); err != nil {
				return counter, err
			}
			cur.scores = append([]float64(nil), cur.scores...)
			for _, u := range o.scores {
				cur.scores[u.Node] = u.Score
			}
			if eng, err = eng.WithScores(cur.scores); err != nil {
				return counter, err
			}
			continue
		case opEdges:
			if _, err := s2.ApplyEdits(o.edits); err != nil {
				return counter, err
			}
			edits, err := graphEdits(o.edits)
			if err != nil {
				return counter, err
			}
			if cur.g, _, err = cur.g.ApplyEdits(edits); err != nil {
				return counter, err
			}
			if eng, err = core.NewEngine(cur.g, cur.scores, dataH); err != nil {
				return counter, err
			}
			eng.PrepareNeighborhoodIndex(0)
			continue
		}
		// S1 holds the same cache state as S2, so its answer tells whether
		// S2 will execute the query.
		var handled struct {
			Cached bool `json:"cached"`
		}
		if err := json.Unmarshal(rr.Body.Bytes(), &handled); err != nil {
			return counter, fmt.Errorf("decode handler answer: %w", err)
		}
		// Whichever of Server.Run and Engine.Run goes second finds the
		// query's neighborhoods in the CPU caches; alternate the order so
		// that advantage cancels out of the server's self time.
		var res core.Answer
		var t3 float64
		ran := false
		runEngine := func() error {
			st := time.Now()
			var err error
			res, err = eng.Run(t.ctx, coreQuery(o.q))
			t3, ran = us(time.Since(st)), true
			return err
		}
		if !handled.Cached && queries%2 == 1 {
			if err := runEngine(); err != nil {
				return counter, err
			}
		}
		st = time.Now()
		ans, err := s2.Run(t.ctx, o.q)
		t2 := us(time.Since(st))
		if err != nil {
			return counter, fmt.Errorf("Server.Run %s: %w", o.body, err)
		}
		answers[i] = ans
		queries++
		handlerSum += t1
		serverSum += t2
		if ans.Cached {
			continue
		}
		if !ran {
			if err := runEngine(); err != nil {
				return counter, err
			}
		}
		if res.Stats != ans.Stats {
			// The engine is deterministic: the same query on the same
			// generation must do exactly the same work.
			t.wrong++
			fmt.Printf("count-mismatch %s: engine %+v, server %+v\n", o.body, res.Stats, ans.Stats)
		}
		runUS[o.q.Algorithm] = append(runUS[o.q.Algorithm], t3)
		selfServer += t2 - t3
		executed++
		work.Evaluated += res.Stats.Evaluated
		work.Visited += res.Stats.Visited
		work.Pruned += res.Stats.Pruned
		work.Distributed += res.Stats.Distributed
	}
	after := s2.Stats()
	if executed == 0 {
		return counter, fmt.Errorf("the replay of %d operations executed no query", len(ops))
	}
	v, err := verify(t.ds, recs)
	if err != nil {
		return counter, err
	}
	t.wrong += v.wrong
	if v.firstBad != "" {
		fmt.Println("wrong-answer", v.firstBad)
	}
	printJSONLine("report", map[string]any{
		"replayed_ops": len(ops), "queries": queries, "executed": executed,
		"wrong_answers": v.wrong, "tie_order_answers": v.tieOrder,
	})
	counter.add(recs)

	// Decode and encode as the handler does, timed apart from it.
	var decSum, encSum, respBytes float64
	var buf bytes.Buffer
	for i, o := range ops {
		if o.kind != opQuery {
			continue
		}
		st := time.Now()
		var q server.QueryRequest
		dec := json.NewDecoder(bytes.NewReader(o.body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&q); err != nil {
			return counter, err
		}
		decSum += us(time.Since(st))
		buf.Reset()
		st = time.Now()
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(answers[i]); err != nil {
			return counter, err
		}
		encSum += us(time.Since(st))
		respBytes += float64(buf.Len())
	}
	nq := float64(queries)
	t.set("trace_overhead", handlerSum/untraced, "ratio")
	t.set("http.decode_us", decSum/nq, "us")
	t.set("http.encode_us", encSum/nq, "us")
	t.set("http.resp_bytes", respBytes/nq, "bytes")
	t.set("http.self_us", (handlerSum-serverSum)/nq, "us")
	// What no named span covers: handler time outside decode, encode and
	// Server.Run (routing, headers, body framing).
	t.set("unattributed_frac", (handlerSum-serverSum-decSum-encSum)/handlerSum, "ratio")
	t.set("server.self_us", selfServer/float64(executed), "us")
	t.set("server.hit_frac", float64(after.Cache.Hits-before.Cache.Hits)/nq, "ratio")
	t.set("server.cache_entries", float64(after.Cache.Entries), "count")
	t.set("server.cache_bytes", float64(after.Cache.Bytes), "bytes")
	per := func(n int) float64 { return float64(n) / float64(executed) }
	t.exact("core.evaluated", per(work.Evaluated), "count")
	t.exact("core.visited", per(work.Visited), "count")
	t.exact("core.pruned", per(work.Pruned), "count")
	t.exact("core.distributed", per(work.Distributed), "count")
	for _, algo := range []string{"auto", "base", "forward", "backward"} {
		xs := runUS[algo]
		if len(xs) == 0 {
			// The stream drew no query for this algorithm: time the probe.
			q := probeQuery
			if algo != "auto" {
				q.Algorithm, _ = server.ParseAlgorithm(algo)
			}
			st := time.Now()
			if _, err := t.base.Run(t.ctx, q); err != nil {
				return counter, err
			}
			xs = []float64{us(time.Since(st))}
		}
		t.set("core.run_us."+algo, mean(xs), "us")
	}

	// Hits, timed on a query repeated right after it was answered.
	var hitUS []float64
	seen := map[string]bool{}
	for _, o := range ops {
		if o.kind != opQuery || seen[o.key] || len(seen) == hitRepeats {
			continue
		}
		seen[o.key] = true
		if _, err := s2.Run(t.ctx, o.q); err != nil {
			return counter, err
		}
		st := time.Now()
		ans, err := s2.Run(t.ctx, o.q)
		hitUS = append(hitUS, us(time.Since(st)))
		if err != nil {
			return counter, err
		}
		if !ans.Cached {
			return counter, fmt.Errorf("repeated query %s was not served from the cache", o.body)
		}
	}
	t.set("server.hit_us", mean(hitUS), "us")

	// Collapsed duplicates need concurrency: replay once more with two
	// goroutines taking operations in order, as the two connections do.
	s3, err := t.newServer("s3")
	if err != nil {
		return counter, err
	}
	if err := replayConcurrent(t.ctx, s3, ops); err != nil {
		return counter, err
	}
	t.set("server.collapsed", float64(s3.Stats().Cache.Collapsed), "count")
	return counter, nil
}

// coreProbes times Planner.Choose on fresh engines and compares
// Forward's traversal work with Base's on the probe query.
func (t *tracer) coreProbes() error {
	var visited [2]int
	for i, algo := range []core.Algorithm{core.AlgoBase, core.AlgoForward} {
		q := probeQuery
		q.Algorithm = algo
		ans, err := t.base.Run(t.ctx, q)
		if err != nil {
			return err
		}
		visited[i] = ans.Stats.Visited
	}
	t.exact("core.forward_over_base_visited", float64(visited[1])/float64(visited[0]), "ratio")

	// A fresh engine has not memoized a plan.
	var planUS []float64
	for i := 0; i < planRepeats; i++ {
		for _, agg := range []core.Aggregate{core.Sum, core.Avg} {
			fresh, err := t.base.WithScores(t.ds.scores)
			if err != nil {
				return err
			}
			st := time.Now()
			core.NewPlanner(fresh).Choose(probeQuery.K, agg)
			planUS = append(planUS, us(time.Since(st)))
		}
	}
	t.set("core.plan_us", mean(planUS), "us")
	return nil
}

// writePath times the write path on the seed's probe batches:
// View.UpdateScore, Engine.WithScores and the first and a warm Run after
// it, Server.ApplyUpdates/ApplyEdits with a journal, and Journal.Append.
func (t *tracer) writePath(seed int64) error {
	batches := writeProbe(seed, t.ds, probeScoreBatches, probeEditBatches)
	view, err := core.NewView(t.ds.g, t.ds.scores, dataH)
	if err != nil {
		return err
	}
	var viewUS, withUS, firstUS, warmUS []float64
	touched, updates := 0, 0
	eng := t.base
	for _, b := range batches {
		if b.kind != opScores {
			continue
		}
		for _, u := range b.scores {
			st := time.Now()
			n, err := view.UpdateScore(u.Node, u.Score)
			viewUS = append(viewUS, us(time.Since(st)))
			if err != nil {
				return err
			}
			touched += n
			updates++
		}
		ns := view.ScoresCopy()
		st := time.Now()
		next, err := eng.WithScores(ns)
		withUS = append(withUS, us(time.Since(st)))
		if err != nil {
			return err
		}
		for _, into := range []*[]float64{&firstUS, &warmUS} {
			st := time.Now()
			if _, err := next.Run(t.ctx, probeQuery); err != nil {
				return err
			}
			*into = append(*into, us(time.Since(st)))
		}
		eng = next
	}
	t.set("core.view_update_us", mean(viewUS), "us")
	t.exact("core.view_touched", float64(touched)/float64(updates), "count")
	t.set("core.with_scores_us", mean(withUS), "us")
	t.set("core.first_run_us", mean(firstUS), "us")
	t.set("core.warm_run_us", mean(warmUS), "us")
	t.set("core.post_update_tax", mean(firstUS)/mean(warmUS), "ratio")

	sj, err := journal.Open(filepath.Join(t.dir, "write-server"))
	if err != nil {
		return err
	}
	t.journals = append(t.journals, sj)
	srv, err := server.New(t.ds.g, t.ds.scores, dataH, server.Options{Index: t.nix, Journal: sj})
	if err != nil {
		return err
	}
	jdir := filepath.Join(t.dir, "write-journal")
	j, err := journal.Open(jdir)
	if err != nil {
		return err
	}
	t.journals = append(t.journals, j)
	var updUS, editUS, appendUS []float64
	for i, b := range batches {
		c := journal.Commit{Gen: uint64(i + 1)}
		st := time.Now()
		if b.kind == opScores {
			_, err = srv.ApplyUpdates(b.scores)
			updUS = append(updUS, us(time.Since(st)))
			for _, u := range b.scores {
				c.Scores = append(c.Scores, journal.ScoreUpdate{Node: u.Node, Score: u.Score})
			}
		} else {
			_, err = srv.ApplyEdits(b.edits)
			editUS = append(editUS, us(time.Since(st)))
			if err == nil {
				c.Edits, err = graphEdits(b.edits)
			}
		}
		if err != nil {
			return err
		}
		st = time.Now()
		if err := j.Append(c); err != nil {
			return err
		}
		appendUS = append(appendUS, us(time.Since(st)))
	}
	t.set("server.apply_updates_us", mean(updUS), "us")
	t.set("server.apply_edits_us", mean(editUS), "us")
	t.set("journal.append_us", mean(appendUS), "us")
	var size int64
	entries, err := os.ReadDir(jdir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return err
		}
		size += info.Size()
	}
	t.exact("journal.bytes_per_commit", float64(size)/float64(len(batches)), "bytes")
	return nil
}

// cluster runs the stream's first distinct queries through a coordinator
// over in-process shards (NewLocal) and over two shard workers behind
// loopback HTTP (NewHTTP), checks their answers, and counts the fan-out's
// work on a sequential, fixed-cadence coordinator whose counts repeat
// exactly.
func (t *tracer) cluster(ops []*op) error {
	var qs []*op
	seen := map[string]bool{}
	for _, o := range ops {
		if o.kind == opQuery && !seen[o.key] && len(qs) < clusterQueries {
			seen[o.key] = true
			qs = append(qs, o)
		}
	}
	local, err := cluster.NewLocal(t.ds.g, t.ds.scores, dataH, 2)
	if err != nil {
		return err
	}
	local.PrepareIndexes(0)
	var urls []string
	for i := 0; i < 2; i++ {
		wk, err := cluster.NewGraphWorker(t.ds.g, t.ds.scores, dataH, 2, i)
		if err != nil {
			return err
		}
		wk.Shard().Engine().PrepareNeighborhoodIndex(0)
		hs := httptest.NewServer(wk.Handler())
		defer hs.Close()
		urls = append(urls, hs.URL)
	}
	remote, err := cluster.NewHTTP(t.ctx, urls, nil)
	if err != nil {
		return err
	}
	defer remote.Close()
	// The serving layer's defaults: streaming and λ-priming on.
	coordLocal := cluster.NewCoordinator(local, cluster.Options{})
	coordHTTP := cluster.NewCoordinator(remote, cluster.Options{})

	or := newOracle(t.ds)
	var engUS, localUS, httpUS, maxUS, sumUS []float64
	for _, o := range qs {
		q := coreQuery(o.q)
		want, err := or.expect(0, o)
		if err != nil {
			return err
		}
		st := time.Now()
		if _, err := t.base.Run(t.ctx, q); err != nil {
			return err
		}
		engUS = append(engUS, us(time.Since(st)))
		for _, run := range []struct {
			c    *cluster.Coordinator
			into *[]float64
		}{{coordLocal, &localUS}, {coordHTTP, &httpUS}} {
			st := time.Now()
			ans, bd, err := run.c.RunDetailed(t.ctx, q)
			*run.into = append(*run.into, us(time.Since(st)))
			if err != nil {
				return err
			}
			got, err := json.Marshal(ans.Results)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, want) {
				t.wrong++
				fmt.Printf("wrong-answer sharded %s: got %.120s, want %.120s\n", o.body, got, want)
			}
			if run.c == coordHTTP {
				var mx, sum int64
				for _, r := range bd.PerShard {
					mx = max(mx, r.ElapsedUS)
					sum += r.ElapsedUS
				}
				maxUS = append(maxUS, float64(mx))
				sumUS = append(sumUS, float64(sum))
			}
		}
	}
	t.set("cluster.local_run_us", mean(localUS), "us")
	t.set("cluster.http_run_us", mean(httpUS), "us")
	t.set("cluster.wire_us", mean(httpUS)-mean(localUS), "us")
	t.set("cluster.http_over_engine", mean(httpUS)/mean(engUS), "ratio")
	t.set("cluster.shard_max_us", mean(maxUS), "us")
	t.set("cluster.shard_sum_us", mean(sumUS), "us")

	// Work counts: one shard at a time and a pinned partial cadence make
	// the fan-out's schedule, and so its counts, a function of the query
	// alone. Count twice and require identical counts.
	var passes [2][6]float64
	for p := range passes {
		coord := cluster.NewCoordinator(local, cluster.Options{Parallel: 1, PartialEvery: 64})
		for _, o := range qs {
			_, bd, err := coord.RunDetailed(t.ctx, coreQuery(o.q))
			if err != nil {
				return err
			}
			primed := 0.0
			if bd.LambdaPrimed > 0 {
				primed = 1
			}
			for i, v := range []float64{float64(bd.Messages), float64(bd.ShardsCut), float64(bd.PartialBatches),
				float64(bd.LambdaRaises), primed, float64(bd.GrantRequests)} {
				passes[p][i] += v / float64(len(qs))
			}
		}
	}
	if !reflect.DeepEqual(passes[0], passes[1]) {
		t.wrong++
		fmt.Printf("count-mismatch cluster: %v vs %v\n", passes[0], passes[1])
	}
	for i, name := range []string{"cluster.messages", "cluster.shards_cut", "cluster.partial_batches",
		"cluster.lambda_raises", "cluster.lambda_primed_frac", "cluster.grant_requests"} {
		unit := "count"
		if name == "cluster.lambda_primed_frac" {
			unit = "ratio"
		}
		t.exact(name, passes[0][i], unit)
	}
	return nil
}

// serve runs one operation through a handler.
func serve(h http.Handler, o *op) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, o.kind.path(), bytes.NewReader(o.body))
	req.Header.Set("Content-Type", "application/json")
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

// replayConcurrent runs ops through s from two goroutines taking them in
// order.
func replayConcurrent(ctx context.Context, s *server.Server, ops []*op) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				var err error
				switch o := ops[i]; o.kind {
				case opQuery:
					_, err = s.Run(ctx, o.q)
				case opScores:
					_, err = s.ApplyUpdates(o.scores)
				case opEdges:
					_, err = s.ApplyEdits(o.edits)
				}
				if err != nil {
					errs[c] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
