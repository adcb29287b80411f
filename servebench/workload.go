package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/graph"
	"repro/internal/server"
)

// Data every workload serves: gen.Collaboration at scale 0.5 (20,000
// nodes, 88,981 edges), mixture relevance with blacking ratio r, radius h.
// lonad derives the same data from the same flags, so the benchmark's
// in-process oracle and the daemons agree without shipping files.
const (
	dataScale = 0.5
	dataSeed  = 20100301
	dataR     = 0.01
	dataH     = 2
	maxK      = 300
)

// workload is one traffic mix. Rates are open-loop arrival rates; the
// closed-loop capacity phase ignores queryRate and keeps writeRate.
type workload struct {
	name string
	// shardWorkers > 0 serves through a coordinator lonad fanning out to
	// that many -shard-worker processes.
	shardWorkers int
	// journal runs lonad with -journal (fsync per committed batch).
	journal bool
	// queryRate is the open-loop query arrival rate in queries per second.
	queryRate float64
	// pool > 0 draws queries Zipf(zipfS) from a fixed pool of that many
	// distinct queries (see poolQueries), sent once each to warm the cache
	// before timing; 0 makes every query distinct within a server's
	// lifetime.
	pool int
	// writeRate is the mutation batch rate in batches per second. Batches
	// come on a fixed cadence at a seeded offset: the hits a cache serves
	// between two invalidations grow with the gap, so exponential gaps
	// would make throughput a matter of luck.
	writeRate float64
	// traceOps bounds how many of the open-loop phase's operations the
	// traced run replays in-process.
	traceOps int
}

const zipfS = 1.1

// coldWarmup is how many distinct queries a pool-less phase sends before
// its clock starts.
const coldWarmup = 16

var workloads = []workload{
	{
		// Distinct queries: every request misses the cache, so the time
		// goes to core planning and traversal and graph h-hop BFS.
		name:      "cold-read",
		queryRate: 24, traceOps: 96,
	},
	{
		// Zipf(1.1) repeats over a pool that fits the 16 MiB cache: the
		// time goes to HTTP decode/encode, normalize and the cache.
		name:      "hot-read",
		queryRate: 800, pool: 96, traceOps: 4000,
	},
	{
		// Hot-read's pool with score and edge batches that bump the
		// generation: prices the write path and the post-update tax.
		name:      "read-write",
		queryRate: 100, pool: 96, writeRate: 0.5, journal: true, traceOps: 500,
	},
	{
		// Cold-read's stream through a coordinator and 2 shard workers:
		// the only workload where cluster fan-out, wire and merge run.
		name:      "sharded-read",
		queryRate: 24, shardWorkers: 2, traceOps: 96,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// opKind is what one operation sends.
type opKind uint8

const (
	opQuery  opKind = iota // POST /v1/topk
	opScores               // POST /v1/scores
	opEdges                // POST /v1/edges
)

var opNames = [...]string{opQuery: "query", opScores: "scores", opEdges: "edges"}

func (k opKind) String() string { return opNames[k] }

func (k opKind) path() string {
	switch k {
	case opScores:
		return "/v1/scores"
	case opEdges:
		return "/v1/edges"
	default:
		return "/v1/topk"
	}
}

// op is one generated operation: the bytes lonad receives plus the
// decoded form the oracle and the in-process replay use.
type op struct {
	kind opKind
	// at is when the operation is due, from the start of its phase.
	at   time.Duration
	body []byte
	// key canonically names a query (k, aggregate, algorithm, options,
	// candidates); equal keys share one cache entry.
	key    string
	q      server.QueryRequest
	scores []server.ScoreUpdate
	edits  []server.EditRequest
}

// phase is the operation stream of one timed phase: warm-up operations
// sent before the clock starts, then the timed ones.
type phase struct {
	warm  []*op
	timed []*op
}

// plan is everything a run sends, derived from the workload seed alone.
type plan struct {
	open     phase // open-loop phase, on the first serving instance
	capacity phase // closed-loop phase, on a freshly booted instance
}

// phaseSeed derives an independent stream seed per phase (splitmix64).
func phaseSeed(seed int64, phase uint64) int64 {
	z := uint64(seed) + phase*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// queryGen draws the cold-read query mix: k uniform in 1..maxK, SUM:AVG
// 3:1, algorithm ¾ auto and ¼ explicit base/forward/backward, 1 request
// in 8 restricted to a candidate set. The shares hold exactly in every
// block of mixBlock queries, and each block draws k once from each of
// mixBlock equal slices of 1..maxK (every dimension's slots shuffled
// independently), so the mix does not vary with the seed. A key already
// drawn gets a new k from the same slice, or from anywhere once its
// slice is used up, so one generator never repeats a query.
type queryGen struct {
	rng   *rand.Rand
	nodes int
	// autoOnly makes every query "auto" (the Zipf pool).
	autoOnly bool
	seen     map[string]bool
	block    []server.QueryRequest
}

// mixBlock is the period over which the query mix's shares are exact.
const mixBlock = 24

func newQueryGen(seed int64, nodes int) *queryGen {
	return &queryGen{rng: rand.New(rand.NewSource(seed)), nodes: nodes, seen: map[string]bool{}}
}

// refill deals the next block: each dimension's slots are shuffled
// independently.
func (g *queryGen) refill() {
	g.block = make([]server.QueryRequest, mixBlock)
	ks := g.rng.Perm(mixBlock)
	aggs := g.rng.Perm(mixBlock)
	algos := g.rng.Perm(mixBlock)
	cands := g.rng.Perm(mixBlock)
	for i := range g.block {
		q := &g.block[i]
		q.K = ks[i] // the slice; next draws k within it
		q.Aggregate = "sum"
		if aggs[i] < mixBlock/4 {
			q.Aggregate = "avg"
		}
		q.Algorithm = "auto"
		if a := algos[i]; a < mixBlock/4 && !g.autoOnly {
			q.Algorithm = [...]string{"base", "forward", "backward"}[a%3]
		}
		if cands[i] < mixBlock/8 {
			q.Candidates = []int{} // filled when dealt
		}
	}
}

func (g *queryGen) next() *op {
	if len(g.block) == 0 {
		g.refill()
	}
	q := g.block[0]
	g.block = g.block[1:]
	if q.Candidates != nil {
		q.Candidates = g.candidates()
	}
	lo, hi := q.K*maxK/mixBlock, (q.K+1)*maxK/mixBlock
	for try := 0; ; try++ {
		// A free k survives this many uniform draws with probability
		// about e^-64, so every k of this key is taken.
		if try == 4*(hi-lo)+64*maxK {
			panic(fmt.Sprintf("servebench: no distinct %s %s query left after %d queries; run a shorter phase",
				q.Aggregate, q.Algorithm, len(g.seen)))
		}
		if try < 4*(hi-lo) {
			q.K = 1 + lo + g.rng.Intn(hi-lo)
		} else {
			q.K = 1 + g.rng.Intn(maxK)
		}
		o := newQueryOp(q)
		if !g.seen[o.key] {
			g.seen[o.key] = true
			return o
		}
	}
}

// poolQueries is the query pool of the Zipf workloads, in rank order:
// the cold mix with every query "auto", as a client that lets the planner
// choose sends it. It is drawn from the data seed, not the workload seed:
// which queries are popular, and so how much a hit or a refill costs, is
// then the same for every seed, while the seed still draws the request
// order, arrival times and batches.
func poolQueries(n, nodes int) []*op {
	qg := newQueryGen(dataSeed, nodes)
	qg.autoOnly = true
	pool := make([]*op, n)
	for i := range pool {
		pool[i] = qg.next()
	}
	return pool
}

// candidates draws 32..256 distinct nodes, sorted.
func (g *queryGen) candidates() []int {
	n := 32 + g.rng.Intn(225)
	set := make(map[int]bool, n)
	out := make([]int, 0, n)
	for len(out) < n {
		v := g.rng.Intn(g.nodes)
		if !set[v] {
			set[v] = true
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}

func newQueryOp(q server.QueryRequest) *op {
	body, err := json.Marshal(q)
	if err != nil {
		panic(err) // a QueryRequest of ints and strings always marshals
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d|%s|%s|", q.K, q.Aggregate, q.Algorithm)
	for i, v := range q.Candidates {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(v))
	}
	return &op{kind: opQuery, body: body, key: b.String(), q: q}
}

// arrivals returns round(rate·dur) arrival offsets in [0, dur), sorted:
// a Poisson process conditioned on its expected count, so the offered load
// is the same for every seed while the gaps stay exponential-like.
func arrivals(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	out := make([]time.Duration, int(math.Round(rate*dur.Seconds())))
	for i := range out {
		out[i] = time.Duration(rng.Int63n(int64(dur)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// periodic returns round(rate·dur) offsets in [0, dur) on a fixed
// cadence, starting at a random point of the first period.
func periodic(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	out := make([]time.Duration, int(math.Round(rate*dur.Seconds())))
	if len(out) == 0 {
		return nil
	}
	period := dur / time.Duration(len(out))
	at := time.Duration(rng.Int63n(int64(period)))
	for i := range out {
		out[i] = at
		at += period
	}
	return out
}

// writeGen draws mutation batches: 9 in 10 are /v1/scores batches of
// 1..64 updates, each setting a node to the boot score of another random
// node, so the relevance distribution the planner sizes its plans by
// stays the same; 1 in 10 (the 5th of every 10) is an /v1/edges batch of
// 1..8 edge inserts and deletes. An edge batch drops the differential index
// until a Forward query rebuilds it, so its place in the stream is fixed
// rather than drawn. Deletions name edges of the boot graph, so most
// remove a real edge.
type writeGen struct {
	rng    *rand.Rand
	g      *graph.Graph
	scores []float64 // boot scores
	i      int       // batches drawn
}

func (w *writeGen) next() *op {
	n := w.g.NumNodes()
	w.i++
	if w.i%10 == 5 {
		edits := make([]server.EditRequest, 1+w.rng.Intn(8))
		for i := range edits {
			if w.rng.Intn(2) == 0 {
				u := w.rng.Intn(n)
				v := w.rng.Intn(n - 1)
				if v >= u {
					v++
				}
				edits[i] = server.EditRequest{Op: "add-edge", U: u, V: v}
				continue
			}
			for {
				u := w.rng.Intn(n)
				if nb := w.g.Neighbors(u); len(nb) > 0 {
					edits[i] = server.EditRequest{Op: "remove-edge", U: u, V: int(nb[w.rng.Intn(len(nb))])}
					break
				}
			}
		}
		body, err := json.Marshal(struct {
			Edits []server.EditRequest `json:"edits"`
		}{edits})
		if err != nil {
			panic(err)
		}
		return &op{kind: opEdges, body: body, edits: edits}
	}
	ups := make([]server.ScoreUpdate, 1+w.rng.Intn(64))
	for i := range ups {
		ups[i] = server.ScoreUpdate{Node: w.rng.Intn(n), Score: w.scores[w.rng.Intn(n)]}
	}
	body, err := json.Marshal(struct {
		Updates []server.ScoreUpdate `json:"updates"`
	}{ups})
	if err != nil {
		panic(err)
	}
	return &op{kind: opScores, body: body, scores: ups}
}

// Capacity streams hold a fixed number of queries; the closed loop sends
// them back to back until the phase ends. A stream of distinct queries is
// capped so its keys stay drawable: 9 in 16 queries are auto SUM, which
// has only maxK distinct keys. A pool stream holds about twice what two
// clients complete in the phase at the seed commit; if it runs out, the
// phase ends early and capacity is still queries over the time taken.
const (
	distinctCapacityOps = 480
	poolCapacityOps     = 200000
)

// makePlan generates a run's operations; openDur and capDur are the
// timed phase lengths.
func makePlan(w workload, seed int64, ds *dataset, openDur, capDur time.Duration) plan {
	return plan{
		open:     makePhase(w, phaseSeed(seed, 1), ds, openDur, false),
		capacity: makePhase(w, phaseSeed(seed, 2), ds, capDur, true),
	}
}

// makePhase builds one phase of length dur. An open phase's queries
// arrive Poisson at the workload's queryRate; a closed phase's queries
// carry no time, since the closed loop sends each as soon as a client is
// free. Writes come at the workload's writeRate in both and are merged in
// due order.
func makePhase(w workload, seed int64, ds *dataset, dur time.Duration, closed bool) phase {
	rng := rand.New(rand.NewSource(seed))
	var ph phase
	var draw func() *op
	n := distinctCapacityOps
	if w.pool > 0 {
		pool := poolQueries(w.pool, ds.g.NumNodes())
		ph.warm = pool
		zipf := rand.NewZipf(rand.New(rand.NewSource(rng.Int63())), zipfS, 1, uint64(w.pool-1))
		draw = func() *op { return pool[zipf.Uint64()] }
		n = poolCapacityOps
	} else {
		qg := newQueryGen(rng.Int63(), ds.g.NumNodes())
		for i := 0; i < coldWarmup; i++ {
			ph.warm = append(ph.warm, qg.next())
		}
		draw = qg.next
	}
	var times []time.Duration
	if !closed {
		times = arrivals(rand.New(rand.NewSource(rng.Int63())), w.queryRate, dur)
		n = len(times)
	}
	for i := 0; i < n; i++ {
		o := draw()
		if times != nil {
			// A copy per arrival: pool entries share body and key.
			cp := *o
			cp.at = times[i]
			o = &cp
		}
		ph.timed = append(ph.timed, o)
	}
	if w.writeRate > 0 {
		wg := &writeGen{rng: rand.New(rand.NewSource(rng.Int63())), g: ds.g, scores: ds.scores}
		for _, at := range periodic(rand.New(rand.NewSource(rng.Int63())), w.writeRate, dur) {
			o := wg.next()
			o.at = at
			ph.timed = append(ph.timed, o)
		}
		sort.SliceStable(ph.timed, func(i, j int) bool { return ph.timed[i].at < ph.timed[j].at })
	}
	return ph
}

// writeProbe returns the first scores and edges batches of the seed's
// read-write batch stream: the write path the traced run times in every
// workload, so write-layer figures exist even where reads are all the
// traffic.
func writeProbe(seed int64, ds *dataset, scoreBatches, editBatches int) []*op {
	wg := &writeGen{rng: rand.New(rand.NewSource(phaseSeed(seed, 3))), g: ds.g, scores: ds.scores}
	var out []*op
	for scoreBatches > 0 || editBatches > 0 {
		o := wg.next()
		switch {
		case o.kind == opScores && scoreBatches > 0:
			scoreBatches--
		case o.kind == opEdges && editBatches > 0:
			editBatches--
		default:
			continue
		}
		out = append(out, o)
	}
	return out
}
