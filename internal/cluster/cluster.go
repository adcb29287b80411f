// Package cluster is the sharded query execution subsystem: the
// infrastructure the paper closes with ("partitioning the network into
// subnetworks and distributing the aggregation workload"). A Coordinator
// satisfies the same Run(ctx, Query) shape as core's Engine, Planner, and
// View, but executes the query across P partition-local engines — each a
// core.Engine over the h-hop closure of the nodes its shard owns — and
// merges the partial top-k lists into an answer byte-identical to a
// single-engine run.
//
// # Merge with early termination
//
// Each shard first reports a certified upper bound on any value it could
// contribute (core.Engine.AggregateUpperBound). The coordinator fans the
// query out in descending bound order and maintains the running global
// k-th value λ; following the Threshold Algorithm's stopping rule
// [Fagin et al.], a shard whose bound falls strictly below λ is cut
// short — skipped if it has not launched, cancelled via its context if it
// is mid-query — because no node it owns can reach the final top-k.
// Shards stream their results as they certify them (see stream.go), so λ
// rises mid-query and running shards prune against it too. Strict
// comparison keeps value ties resolving exactly as a single
// engine would. Exactness of the surviving shard answers (see Shard) then
// makes the merged list — values, ordering, and tie-breaks — identical to
// Engine.Run.
//
// # Transports
//
// Workers are reached through the Transport interface: Local runs every
// shard in-process (one goroutine per shard, each a simulated machine),
// HTTP fans out to lonad worker processes exposing
// /v1/shard/query/stream. internal/server routes /v1/topk through a
// Coordinator when serving sharded, and cmd/lonad wires up both modes.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/topk"
	"repro/internal/trace"
)

// Options tunes a Coordinator. The zero value is a sensible default.
type Options struct {
	// Parallel bounds how many shard queries run concurrently
	// (<=0 = min(shards, GOMAXPROCS)). With fewer slots than shards the
	// bound-descending launch order makes early termination bite: the
	// shards most likely to raise λ run first, and trailing shards are
	// often cut before they ever start.
	Parallel int
	// DisableCut turns TA early termination off (benchmarks isolating
	// the fan-out cost, and tests proving the cut changes nothing).
	DisableCut bool
	// DisablePriming turns off sketch-based λ-priming (see sketch.go):
	// queries launch with λ = −∞ exactly as before PR 9 — kept for
	// benchmarks pricing the priming win and tests proving it changes no
	// answers.
	DisablePriming bool
	// PartialEvery pins the shards' partial-emission cadence instead of
	// adapting it per shard from observed batch latency (see cadence.go).
	// 0 = adaptive; benchmarks pin it for run-to-run comparability. A
	// query that sets its own core.Query.PartialEvery wins over both.
	PartialEvery int
}

// Coordinator fans queries out across a Transport's shards and merges the
// partial answers. It is safe for concurrent use; construct with
// NewCoordinator.
type Coordinator struct {
	t    Transport
	opts Options
	cad  *cadence
}

// NewCoordinator returns a coordinator over the transport.
func NewCoordinator(t Transport, opts Options) *Coordinator {
	return &Coordinator{t: t, opts: opts, cad: newCadence()}
}

// Transport returns the transport the coordinator fans out over.
func (c *Coordinator) Transport() Transport { return c.t }

// Shards returns the number of shards queries fan out across.
func (c *Coordinator) Shards() int { return c.t.Shards() }

// Snapshot pins the current shard generation; pass it to RunOn so a
// caller holding its own generation lock (internal/server) observes one
// consistent shard set per query.
func (c *Coordinator) Snapshot() QueryView { return c.t.Snapshot() }

// ShardReport is one shard's slice of a Breakdown.
type ShardReport struct {
	Shard     int   `json:"shard"`
	ElapsedUS int64 `json:"elapsed_us"`
	Results   int   `json:"results"`
	// Cut means the TA bound ended this shard early: skipped before
	// launch, or cancelled mid-query.
	Cut bool `json:"cut,omitempty"`
	// Launched distinguishes a mid-query cancellation (true) from a
	// pre-launch skip (false) among cut shards.
	Launched bool `json:"launched"`
	// Batches counts the partial-result frames this shard streamed.
	Batches int `json:"batches,omitempty"`
	// Evaluated is the shard's exact-evaluation count — from its final
	// answer, or from its last streamed batch when it was cut mid-query.
	Evaluated int `json:"evaluated,omitempty"`
	// Items counts the result items this shard streamed back in its
	// partial batches — the per-shard message-size observation /metrics
	// histograms.
	Items int `json:"items,omitempty"`
	// Cadence is the PartialEvery this shard query emitted at — the
	// adaptive controller's current setting (or the pinned override).
	Cadence int `json:"cadence,omitempty"`
	// Granted is the budget this shard drew mid-run through the
	// demand-driven grant protocol (remote workers only; in-process
	// shards draw from the pool without a ledger).
	Granted int `json:"granted,omitempty"`
}

// Breakdown reports what one distributed execution did — the
// cross-machine counters the paper's infrastructure section cares about,
// aggregated into /v1/stats by the serving layer.
type Breakdown struct {
	Shards    int `json:"shards"`
	ShardsCut int `json:"shards_cut"`
	// Messages counts simulated (Local) or real (HTTP) cross-shard
	// exchanges: one bound probe per shard, a request and a response per
	// launched shard query, one per partial frame, one per result item
	// shipped back (streamed, and again in the final summary frame) plus,
	// on transports that push state over the wire, one per λ ack and two
	// per budget grant request (the need frame and its granting ack).
	// Shards cut pre-launch by a sketch-primed λ contribute only their
	// bound probe.
	Messages int64 `json:"messages"`
	// PartialBatches counts the streamed partial frames folded into the
	// merge across all shards.
	PartialBatches int64 `json:"partial_batches,omitempty"`
	// BudgetRedistributed counts traversals moved from cut shards'
	// stranded budget slices to shards that could still use them.
	BudgetRedistributed int `json:"budget_redistributed,omitempty"`
	// LambdaRaises counts how many folded batches actually tightened the
	// merge threshold λ — the within-shard TA machinery visibly working,
	// vs batches that changed nothing.
	LambdaRaises int `json:"lambda_raises,omitempty"`
	// LambdaPrimed is the initial λ certified from the per-shard score
	// sketches before any shard launched (0 when priming was off or
	// inapplicable — Avg queries, candidate restrictions, missing
	// sketches).
	LambdaPrimed float64 `json:"lambda_primed,omitempty"`
	// GrantRequests counts the demand-driven budget grant requests
	// answered mid-stream (remote workers whose slice ran dry).
	GrantRequests int64         `json:"grant_requests,omitempty"`
	PerShard      []ShardReport `json:"per_shard"`
}

// Run executes a query across every shard and merges the answer — the
// same context-aware entry-point shape as Engine.Run, Planner.Run, and
// View.Run. Results (values, ordering, tie-breaks) are identical to a
// single-engine run; Stats sum the work of every shard that executed;
// Truncated reports whether any shard's budget slice ran out.
func (c *Coordinator) Run(ctx context.Context, q core.Query) (core.Answer, error) {
	ans, _, err := c.RunDetailed(ctx, q)
	return ans, err
}

// RunDetailed is Run plus the distributed-execution breakdown.
func (c *Coordinator) RunDetailed(ctx context.Context, q core.Query) (core.Answer, Breakdown, error) {
	return c.RunOn(ctx, c.t.Snapshot(), q)
}

// RunOn executes the query against an explicit shard-set snapshot, in
// five stages: probe the shards' merge bounds, prime λ from their score
// sketches, launch the shard queries in descending bound order while
// folding their streamed batches and reaping the shards λ has cut, and
// finish by assembling the merged answer and its breakdown.
func (c *Coordinator) RunOn(ctx context.Context, view QueryView, q core.Query) (core.Answer, Breakdown, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	f, err := c.newFanOut(ctx, view, q)
	if err != nil {
		return core.Answer{}, f.bd, err
	}
	f.probe()
	f.prime()
	f.launch()
	return f.finish()
}

// fanOut is the state of one query's fan-out. The fields above mu are
// set before any shard launches. mu guards the rest: the merged list, the
// per-shard runs, and the cut, abort, and λ bookkeeping the shard
// goroutines mutate. ctrl carries the lock-free state running shard
// queries read themselves: the streamed threshold λ and the budget
// redistribution pool.
type fanOut struct {
	c       *Coordinator
	ctx     context.Context
	view    QueryView
	q       core.Query
	rec     *trace.Recorder // nil when untraced; every recording site is nil-safe
	bounds  []float64
	budgets []int
	ctrl    *StreamControl

	mu      sync.Mutex
	bd      Breakdown
	list    *topk.List
	runs    []shardRun
	aborted bool // a shard failed; the rest of the fan-out is moot
}

// shardRun is one shard's progress through a fan-out.
type shardRun struct {
	cancel   context.CancelFunc // set once the shard is claimed for launch
	ans      core.Answer
	err      error
	dur      time.Duration
	launched bool // the shard query ran (possibly to a cancellation)
	cut      bool
	batches  int // partial frames folded
	items    int // result items streamed back
	cadence  int // PartialEvery this shard query emitted at
	// stats is the shard's cumulative work: its final answer's, or — for
	// a shard cut mid-query — its last streamed batch's, which the merged
	// Stats must not lose.
	stats core.QueryStats
}

// newFanOut validates the query and sets up its fan-out state.
func (c *Coordinator) newFanOut(ctx context.Context, view QueryView, q core.Query) (*fanOut, error) {
	parts := c.t.Shards()
	f := &fanOut{c: c, ctx: ctx, view: view, q: q, rec: q.Tracer, bd: Breakdown{Shards: parts}}
	if q.K <= 0 {
		return f, fmt.Errorf("cluster: k must be positive, got %d", q.K)
	}
	if q.Budget < 0 {
		return f, fmt.Errorf("cluster: negative budget %d", q.Budget)
	}
	n := c.t.Nodes()
	for _, v := range q.Candidates {
		if v < 0 || v >= n {
			return f, fmt.Errorf("cluster: candidate node %d out of range [0,%d)", v, n)
		}
	}
	if parts <= 0 {
		return f, errors.New("cluster: transport has no shards")
	}
	// Budget slices: q.Budget splits evenly by shard index (not bound
	// order), so the split is deterministic across runs.
	f.budgets = SplitBudget(q.Budget, parts)
	f.ctrl = &StreamControl{}
	f.list = topk.New(q.K)
	f.runs = make([]shardRun, parts)
	return f, nil
}

// SplitBudget divides a query's traversal budget evenly across parts,
// deterministically by part index: total/parts each, the remainder going
// to the lowest indexes, and — when any budget is set — a floor of one
// per part, because a literal zero means "unlimited" to core's meter.
// Returns all zeros (unlimited everywhere) when total <= 0.
func SplitBudget(total, parts int) []int {
	budgets := make([]int, parts)
	if total <= 0 {
		return budgets
	}
	base, extra := total/parts, total%parts
	for i := range budgets {
		budgets[i] = base
		if i < extra {
			budgets[i]++
		}
		if budgets[i] == 0 {
			budgets[i] = 1
		}
	}
	return budgets
}

// probe fetches every shard's merge bound concurrently. A failed probe
// makes the shard uncuttable (+Inf) rather than failing the query: the
// shard query itself will surface any real transport fault.
func (f *fanOut) probe() {
	start := time.Now()
	f.bounds = make([]float64, len(f.runs))
	var wg sync.WaitGroup
	for i := range f.bounds {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, err := f.view.UpperBound(f.ctx, i, f.q.Aggregate)
			if err != nil {
				b = math.Inf(1)
			}
			f.bounds[i] = b
		}(i)
	}
	wg.Wait()
	f.bd.Messages += int64(len(f.bounds))
	f.rec.Span(trace.KindProbe, start, len(f.bounds), 0, "bound probes")
	for i, b := range f.bounds {
		f.rec.ForShard(i).Emit(trace.KindProbe, 0, b, "")
	}
}

// prime merges the per-shard score sketches into a certified lower bound
// on the global k-th value and seeds the floor with it, so cold shards
// are cut before they launch (zero stream messages) and every launched
// shard prunes against a warm floor from its first traversal. Skipped
// for aggregates where the raw-score bound is not admissible (Avg) and
// for candidate-restricted queries, whose k-th value ranges over a
// subset the sketches know nothing about.
func (f *fanOut) prime() {
	o := f.c.opts
	if o.DisableCut || o.DisablePriming || len(f.q.Candidates) > 0 || !primableAggregate(f.q.Aggregate) {
		return
	}
	sketches := make([]*Sketch, len(f.runs))
	for i := range sketches {
		sketches[i] = f.view.ScoreSketch(i)
	}
	if primed := PrimeFloor(sketches, f.q.K); primed > 0 {
		f.ctrl.Raise(primed)
		f.bd.LambdaPrimed = primed
		f.rec.Emit(trace.KindPrime, f.q.K, primed, "λ primed from score sketches")
	}
}

// launch runs the shard queries, at most Options.Parallel at a time, in
// descending bound order (ascending shard index among ties) — the shards
// most able to raise λ go first — and returns once every launched shard
// has settled.
func (f *fanOut) launch() {
	order := make([]int, len(f.runs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return f.bounds[order[a]] > f.bounds[order[b]] })

	parallel := f.c.opts.Parallel
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	sem := make(chan struct{}, min(parallel, len(order)))
	var wg sync.WaitGroup
	for _, si := range order {
		// The slot is acquired here, not inside the goroutine: goroutines
		// racing for it would launch in scheduler order, and the
		// descending-bound launch order Options.Parallel promises (the
		// shards most able to raise λ run first, trailing shards get cut
		// before they start) would hold only by luck.
		select {
		case sem <- struct{}{}:
		case <-f.ctx.Done():
		}
		if f.ctx.Err() != nil {
			break
		}
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			defer func() { <-sem }()
			f.run(si)
		}(si)
	}
	wg.Wait()
}

// run executes one shard's query, unless λ cut the shard (or a failure
// aborted the fan-out) before its slot came up.
func (f *fanOut) run(si int) {
	sctx, sq, ok := f.claim(si)
	if !ok {
		return
	}
	defer f.runs[si].cancel()
	start := time.Now()
	ans, err := f.view.QueryStream(sctx, si, sq, f.ctrl, func(b StreamBatch) { f.fold(si, b) })
	dur := time.Since(start)
	f.rec.ForShard(si).Span(trace.KindLaunch, start, sq.Budget, f.bounds[si], "")
	f.settle(si, ans, err, dur)
}

// claim (locks mu) decides whether shard si still launches and, if so,
// builds its sub-query: the shard's budget slice, its trace scope, and
// its emission cadence — the caller's own setting wins, then the pinned
// option, then the per-shard adaptive controller.
func (f *fanOut) claim(si int) (sctx context.Context, sq core.Query, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	r := &f.runs[si]
	if f.ctx.Err() != nil || f.aborted || r.cut {
		return nil, sq, false
	}
	if f.cuttable(si) {
		f.cutPrelaunch(si)
		return nil, sq, false
	}
	sctx, r.cancel = context.WithCancel(f.ctx)
	sq = f.q
	// Retag the trace scope: the shard engine's events (floor
	// observations, emissions, cuts) land under this shard's index.
	// Local shares the recorder; HTTP ships only its id.
	sq.Tracer = f.rec.ForShard(si)
	sq.Budget = f.budgets[si]
	if sq.PartialEvery == 0 {
		if f.c.opts.PartialEvery > 0 {
			sq.PartialEvery = f.c.opts.PartialEvery
		} else {
			sq.PartialEvery = f.c.cad.forShard(si, f.q.K)
		}
	}
	r.cadence = sq.PartialEvery
	return sctx, sq, true
}

// fold (locks mu) merges one streamed batch: offer the newly certified
// items, remember the shard's cumulative stats, tighten λ, and
// re-evaluate every cut — within-shard early termination instead of
// waiting for whole shards to finish.
func (f *fanOut) fold(si int, b StreamBatch) {
	f.mu.Lock()
	defer f.mu.Unlock()
	r := &f.runs[si]
	r.batches++
	r.items += len(b.Items)
	r.stats = b.Stats
	if f.aborted || f.ctx.Err() != nil {
		return
	}
	for _, it := range b.Items {
		f.list.Offer(it.Node, it.Value)
	}
	f.raise()
	f.rec.ForShard(si).Emit(trace.KindBatch, len(b.Items), f.ctrl.Floor(), "")
	f.reap()
}

// settle (locks mu) records a shard query's outcome. Every final result
// already arrived through a batch (core's streaming contract), and the
// fold of that batch already raised λ and reaped what it cuts, so only
// the bookkeeping is left: errors abort the fan-out, and an unspent
// allotment returns to the pool.
func (f *fanOut) settle(si int, ans core.Answer, err error, dur time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	r := &f.runs[si]
	r.launched, r.dur = true, dur
	if err != nil {
		// A cancellation we caused — a TA cut, or collateral of another
		// shard's fatal error — is not this shard's fault; a
		// cancellation the caller caused is reported as the caller's
		// context error by finish.
		if (r.cut || f.aborted) && isContextErr(err) && f.ctx.Err() == nil {
			return
		}
		r.err = err
		// The merged answer can no longer be produced: stop the shards
		// still running instead of letting them finish work nobody will
		// read.
		f.aborted = true
		for sj := range f.runs {
			if rj := &f.runs[sj]; !rj.launched && rj.cancel != nil {
				rj.cancel()
			}
		}
		return
	}
	r.ans, r.stats = ans, ans.Stats
	// The allotment is the launch slice plus any budget drawn mid-run
	// through the grant protocol, so over-granted chunks (a worker asks
	// in fixed chunks, not exact amounts) flow back to the pool instead
	// of stranding. A shard that finished under its allotment (it ran out
	// of owned work) returns the leftover to the pool for shards still
	// running. Budget spend is exactly the evaluation + distribution
	// count, core's one-spend-per-traversal contract.
	allot := f.budgets[si] + int(f.ctrl.GrantedTo(si))
	if spent := ans.Stats.Evaluated + ans.Stats.Distributed; allot > spent {
		f.ctrl.AddBudget(allot - spent)
		f.rec.ForShard(si).Emit(trace.KindRefund, allot-spent, 0, "unused allotment to pool")
	}
}

// cuttable (mu held) reports whether shard i cannot affect the final
// top-k: strict (<) so a shard that could still tie λ — and win the
// smaller-id tie-break — always runs to completion. The threshold is the
// floor (which starts at the sketch-primed λ, so cold shards are
// cuttable before any result arrives), tightened by the merged list's
// bound once it fills.
func (f *fanOut) cuttable(i int) bool {
	if f.c.opts.DisableCut {
		return false
	}
	th := f.ctrl.Floor()
	if f.list.Full() && f.list.Bound() > th {
		th = f.list.Bound()
	}
	return th > 0 && f.bounds[i] < th
}

// raise (mu held) tightens λ to the merged list's bound, counting and
// tracing the pushes that actually moved it.
func (f *fanOut) raise() {
	if f.list.Full() && f.ctrl.Raise(f.list.Bound()) {
		f.bd.LambdaRaises++
		f.rec.Emit(trace.KindLambda, 0, f.list.Bound(), "")
	}
}

// reap (mu held) cuts every shard that can no longer affect the final
// top-k: running shards are cancelled mid-query, shards that never
// launched are finished before they start.
func (f *fanOut) reap() {
	for sj := range f.runs {
		r := &f.runs[sj]
		if r.launched || r.cut || !f.cuttable(sj) {
			continue
		}
		if r.cancel == nil {
			f.cutPrelaunch(sj)
			continue
		}
		r.cut = true
		r.cancel()
		f.rec.ForShard(sj).Emit(trace.KindCut, 0, f.list.Bound(), "mid-query")
	}
}

// cutPrelaunch (mu held) cuts a shard that never launched; its untouched
// budget slice goes to the redistribution pool instead of stranding.
func (f *fanOut) cutPrelaunch(sj int) {
	f.runs[sj].cut = true
	f.ctrl.AddBudget(f.budgets[sj])
	srec := f.rec.ForShard(sj)
	srec.Emit(trace.KindCut, 0, f.list.Bound(), "pre-launch")
	if f.budgets[sj] > 0 {
		srec.Emit(trace.KindRefund, f.budgets[sj], 0, "stranded slice to pool")
	}
}

// finish assembles the merged answer and the breakdown once every shard
// has settled: per-shard reports, summed work (a shard cut mid-query
// counts the work its last batch reported), message accounting, and the
// folded plan.
func (f *fanOut) finish() (core.Answer, Breakdown, error) {
	bd := &f.bd
	if err := f.ctx.Err(); err != nil {
		return core.Answer{}, *bd, err
	}
	merged := core.Answer{Results: f.list.Items()}
	bd.BudgetRedistributed = f.ctrl.Redistributed()
	bd.GrantRequests = f.ctrl.GrantRequests()
	wireAcks := f.view.WireAcks()
	for si := range f.runs {
		r := &f.runs[si]
		if r.err != nil {
			return core.Answer{}, *bd, fmt.Errorf("cluster: shard %d: %w", si, r.err)
		}
		s := r.stats
		bd.PerShard = append(bd.PerShard, ShardReport{Shard: si, ElapsedUS: r.dur.Microseconds(),
			Results: len(r.ans.Results), Cut: r.cut, Launched: r.launched,
			Batches: r.batches, Evaluated: s.Evaluated, Items: r.items,
			Cadence: r.cadence, Granted: int(f.ctrl.GrantedTo(si))})
		if r.launched && f.c.opts.PartialEvery == 0 {
			// Feed the adaptive cadence controller: how fast did this
			// shard's frames actually arrive at the cadence it used.
			f.c.cad.observe(si, r.batches, r.dur, r.cadence)
		}
		note := ""
		switch {
		case r.cut && r.launched:
			note = "cut mid-query"
		case r.cut:
			note = "cut pre-launch"
		}
		f.rec.ForShard(si).Emit(trace.KindShardStats, s.Evaluated, 0, note)
		if r.cut {
			bd.ShardsCut++
		}
		bd.PartialBatches += int64(r.batches)
		if r.launched {
			// A request and a response, every streamed item and frame,
			// and the final summary frame's re-shipped result list (the
			// wire answer is self-contained).
			bd.Messages += 2 + int64(r.items) + int64(r.batches) + int64(len(r.ans.Results))
			if wireAcks {
				// λ acks ride the request stream back to remote workers,
				// at most one per folded frame (the writer coalesces to
				// latest, so this is an upper estimate).
				bd.Messages += int64(r.batches)
			}
		}
		merged.Stats.Evaluated += s.Evaluated
		merged.Stats.Pruned += s.Pruned
		merged.Stats.Distributed += s.Distributed
		merged.Stats.Visited += s.Visited
		merged.Truncated = merged.Truncated || r.ans.Truncated
	}
	if wireAcks && bd.GrantRequests > 0 {
		// Each answered grant request cost a need frame upstream and a
		// granting ack downstream.
		bd.Messages += 2 * bd.GrantRequests
	}
	// Fold per-shard planner decisions into one Plan for the merged
	// Answer: the lowest-index executed shard's choice, annotated with
	// the shard count (shards plan independently — their score
	// distributions differ — so the note keeps the reported plan honest).
	if f.q.Algorithm == core.AlgoAuto {
		for si := range f.runs {
			if p := f.runs[si].ans.Plan; p != nil {
				plan := *p
				plan.Reason = fmt.Sprintf("sharded ×%d (shard %d): %s", len(f.runs), si, plan.Reason)
				merged.Plan = &plan
				break
			}
		}
	}
	return merged, *bd, nil
}

// isContextErr reports whether err is (or wraps) a context cancellation
// or deadline error.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
