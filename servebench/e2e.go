package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"slices"
	"sort"
	"time"
)

// bootsPerRun is how many serving instances a run boots at least;
// set-up time is the median over all boots. The last two serve the
// open-loop and the capacity phase, so each timed phase starts from an
// empty cache; the others only measure set-up. A capacity phase of
// distinct queries may boot more (see runEndToEnd).
const bootsPerRun = 7

// windows is how many equal windows each timed phase is cut into for
// the per-window figures the report prints beside the gated ones.
const windows = 5

// secondBest returns the second-best of per-window values (the second
// lowest when lower is better). It is printed as a diagnostic only: it
// shows what the program does between disturbances, but it would hide a
// regression that hits up to three windows, so no gated figure uses it.
func secondBest(vals []float64, lowerIsBetter bool) float64 {
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	if !lowerIsBetter {
		slices.Reverse(sorted)
	}
	return sorted[min(1, len(sorted)-1)]
}

// opCounts tallies attempted and failed operations per kind.
type opCounts struct {
	attempted, failed [3]int
}

func (c *opCounts) add(recs []record) {
	for i := range recs {
		r := &recs[i]
		c.attempted[r.o.kind]++
		if !r.ok() {
			c.failed[r.o.kind]++
		}
	}
}

func (c *opCounts) total() (attempted, failed int) {
	for k := range c.attempted {
		attempted += c.attempted[k]
		failed += c.failed[k]
	}
	return attempted, failed
}

// instanceRun is what one serving instance's phase produced.
type instanceRun struct {
	warm, timed []record
	// capacityDur is the closed-loop phase's time from its start to the
	// last completion.
	capacityDur time.Duration
	rssMB       float64
	// stats is the cache, engine and cluster sections of lonad's
	// /v1/stats after the phase.
	stats struct {
		Cache   json.RawMessage `json:"cache"`
		Engine  json.RawMessage `json:"engine"`
		Cluster json.RawMessage `json:"cluster,omitempty"`
	}
}

// runPhase boots an instance, sends the phase's warm-up operations as
// fast as two connections allow, then drives the timed operations.
func runPhase(ctx context.Context, lonad string, w workload, jdir string, ph phase,
	drive func(base string, cs []*http.Client, run *instanceRun)) (*instanceRun, time.Duration, error) {

	c, setup, err := bootInstance(ctx, lonad, w, jdir)
	if err != nil {
		return nil, 0, err
	}
	defer c.stop()
	cs := make([]*http.Client, clients)
	for i := range cs {
		cs[i] = newClient()
	}
	warm := make([]*op, len(ph.warm))
	for i, o := range ph.warm {
		cp := *o
		cp.at = 0
		warm[i] = &cp
	}
	run := &instanceRun{warm: runOpen(ctx, c.front.base, warm, cs)}
	drive(c.front.base, cs, run)
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	if run.rssMB, err = c.peakRSSMB(); err != nil {
		return nil, 0, err
	}
	resp, err := cs[0].Get(c.front.base + "/v1/stats")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&run.stats); err != nil {
		return nil, 0, fmt.Errorf("decode /v1/stats: %w", err)
	}
	return run, setup, nil
}

// phaseDurations splits a run's measured time 3:2 between the open-loop
// and the capacity phase.
func phaseDurations(total time.Duration) (open, capacity time.Duration) {
	open = total * 3 / 5
	return open, total - open
}

// runEndToEnd boots bootsPerRun serving instances, timing each boot,
// runs the open-loop phase on one and the closed-loop capacity phase on
// another, and then verifies every answer against the oracle.
func runEndToEnd(ctx context.Context, w workload, seed int64, total time.Duration, lonad, dir string) (*result, error) {
	ds := loadDataset()
	openDur, capDur := phaseDurations(total)
	p := makePlan(w, seed, ds, openDur, capDur)
	jdir := func(i int) string {
		if !w.journal {
			return ""
		}
		return filepath.Join(dir, fmt.Sprintf("journal-%d", i))
	}

	var setups []float64
	for i := 0; i < bootsPerRun-2; i++ {
		c, setup, err := bootInstance(ctx, lonad, w, jdir(i))
		if err != nil {
			return nil, err
		}
		c.stop()
		setups = append(setups, setup.Seconds())
	}

	open, setup, err := runPhase(ctx, lonad, w, jdir(bootsPerRun-2), p.open,
		func(base string, cs []*http.Client, run *instanceRun) {
			run.timed = runOpen(ctx, base, p.open.timed, cs)
		})
	if err != nil {
		return nil, err
	}
	setups = append(setups, setup.Seconds())

	// A distinct stream runs out within seconds at full speed; the
	// capacity phase then goes on with the next stream on a fresh
	// instance until its time is used.
	var capRuns []*instanceRun
	var capSpent time.Duration
	for seg := 0; capDur-capSpent >= time.Second; seg++ {
		ph := p.capacity
		if seg > 0 {
			if w.pool > 0 {
				break
			}
			ph = makePhase(w, phaseSeed(seed, uint64(10+seg)), ds, capDur, true)
		}
		left := capDur - capSpent
		run, setup, err := runPhase(ctx, lonad, w, jdir(bootsPerRun-1+seg), ph,
			func(base string, cs []*http.Client, run *instanceRun) {
				run.timed, run.capacityDur = runClosed(ctx, base, ph.timed, left, cs)
			})
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup.Seconds())
		capRuns = append(capRuns, run)
		if run.capacityDur <= 0 {
			break // nothing completed; verification reports why
		}
		capSpent += run.capacityDur
	}

	// Verify each instance against its own generation chain.
	var counts opCounts
	wrong, tieOrder := 0, 0
	var openVerdict verdict
	for i, run := range append([]*instanceRun{open}, capRuns...) {
		recs := append(append([]record(nil), run.warm...), run.timed...)
		v, err := verify(ds, recs)
		if err != nil {
			return nil, err
		}
		if v.firstBad != "" {
			fmt.Println("wrong-answer", v.firstBad)
		}
		wrong += v.wrong
		tieOrder += v.tieOrder
		counts.add(recs)
		// Keep the copies, which carry the oracle's wrong-answer marks;
		// the timed records follow the warm-up ones.
		run.timed = recs[len(run.warm):]
		if i == 0 {
			v.gen = v.gen[len(run.warm):]
			openVerdict = v
		}
	}

	// The gated figures are taken over each whole phase; per-window
	// figures are reported beside them (see secondBest).
	var qlat, ulat, late []float64
	qwin := make([][]float64, windows)
	for i := range open.timed {
		r := &open.timed[i]
		late = append(late, ms(r.late))
		if !r.ok() {
			continue
		}
		if r.o.kind == opQuery {
			qlat = append(qlat, ms(r.latency()))
			w := int(int64(r.o.at) * windows / int64(openDur))
			qwin[w] = append(qwin[w], ms(r.latency()))
		} else {
			ulat = append(ulat, ms(r.latency()))
		}
	}
	// capacity_qps is the phase's completed queries over its time, summed
	// over its instances. For the report, each instance's queries are also
	// cut into windows of equal runs of consecutive queries (so each holds
	// the same mix); a window's rate is its queries over the time from its
	// first send to its last completion.
	completed := 0
	var capWindows, rss []float64
	for _, run := range append([]*instanceRun{open}, capRuns...) {
		rss = append(rss, run.rssMB)
	}
	for _, run := range capRuns {
		var done []*record
		for i := range run.timed {
			if r := &run.timed[i]; r.o.kind == opQuery && r.ok() {
				done = append(done, r)
			}
		}
		completed += len(done)
		if len(done) < windows {
			continue
		}
		var cwin []float64
		for w := 0; w < windows; w++ {
			part := done[w*len(done)/windows : (w+1)*len(done)/windows]
			first, last := part[0].sent, part[0].done
			for _, r := range part {
				if r.sent.Before(first) {
					first = r.sent
				}
				if r.done.After(last) {
					last = r.done
				}
			}
			cwin = append(cwin, float64(len(part))/last.Sub(first).Seconds())
		}
		capWindows = append(capWindows, secondBest(cwin, false))
	}
	if len(qlat) == 0 || completed == 0 {
		return nil, fmt.Errorf("too few successful queries (open %d, capacity %d)", len(qlat), completed)
	}
	windowQuantile := func(q float64) float64 {
		var per []float64
		for _, xs := range qwin {
			if len(xs) > 0 {
				per = append(per, quantile(xs, q))
			}
		}
		return secondBest(per, true)
	}
	attempted, failed := counts.total()

	res := &result{
		Correct:   wrong == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"query_p50_ms": {quantile(qlat, 0.50), "ms"},
			"query_p90_ms": {quantile(qlat, 0.90), "ms"},
			"capacity_qps": {float64(completed) / capSpent.Seconds(), "1/s"},
			"setup_s":      {median(setups), "s"},
			"rss_mb":       {quantile(rss, 1), "MB"},
		},
	}

	// Everything below is reported for reading, not gated: it is printed
	// before the result line.
	report := map[string]any{
		"samples": map[string]int{
			"open_queries": len(qlat), "open_writes": len(ulat),
			"capacity_queries": completed, "setups": len(setups),
		},
		"error_frac":                 float64(failed) / float64(attempted),
		"wrong_answers":              wrong,
		"tie_order_answers":          tieOrder,
		"query_p99_ms":               quantile(qlat, 0.99),
		"window_second_best_p50_ms":  windowQuantile(0.50),
		"window_second_best_p90_ms":  windowQuantile(0.90),
		"window_second_best_cap_qps": median(capWindows),
		"lateness_p50_ms":            quantile(late, 0.50),
		"lateness_p99_ms":            quantile(late, 0.99),
		"setup_s_each":               setups,
		"capacity_seconds":           capSpent.Seconds(),
		"capacity_instances":         len(capRuns),
	}
	ops := map[string][2]int{}
	for k := range counts.attempted {
		ops[opKind(k).String()] = [2]int{counts.attempted[k], counts.failed[k]}
	}
	report["ops_attempted_failed"] = ops
	// The generator, not the server, limited the run when it typically
	// sent a request more than half an arrival gap per connection late:
	// the server then no longer saw the scheduled load. Timer wake-up
	// overshoot (a few tenths of a millisecond here, up to about 2 ms at
	// p99) does not come near that at any workload's rate.
	lateLimit := 0.5 * clients / w.queryRate * 1000
	valid := quantile(late, 0.50) <= lateLimit
	report["lateness_limit_ms"] = lateLimit
	report["valid"] = valid
	if w.writeRate > 0 && len(ulat) > 0 {
		report["update_p50_ms"] = quantile(ulat, 0.50)
		report["update_p90_ms"] = quantile(ulat, 0.90)
		report["fresh_p50_ms"] = quantile(freshness(open.timed, openVerdict.gen), 0.50)
	}
	printJSONLine("report", report)
	printJSONLine("lonad_stats_open", open.stats)
	if !valid {
		// Lateness is taken out of every latency, so an invalid run would
		// read as faster than the server is; it must not be gated.
		return nil, fmt.Errorf("invalid run: generator lateness p50 %.3g ms exceeds %.3g ms; the load generator, not the server, set the pace",
			quantile(late, 0.50), lateLimit)
	}
	return res, nil
}

// freshness returns, per acknowledged batch, the time from sending it to
// receiving the first query answer stamped with its generation or later.
func freshness(recs []record, gen []uint64) []float64 {
	var out []float64
	for i := range recs {
		b := &recs[i]
		if b.o.kind == opQuery || !b.ok() {
			continue
		}
		var first time.Time
		for j := range recs {
			q := &recs[j]
			if q.o.kind != opQuery || !q.ok() || gen[j] < gen[i] || q.done.Before(b.sent) {
				continue
			}
			if first.IsZero() || q.done.Before(first) {
				first = q.done
			}
		}
		if !first.IsZero() {
			out = append(out, ms(first.Sub(b.sent)))
		}
	}
	return out
}
