package cluster

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// This file holds the shared state of one streaming fan-out. Instead of
// waiting for whole shard answers, workers emit partial top-k batches
// (core.Query.OnPartial); the coordinator folds each batch into its
// global heap, tightens the running k-th value λ, and pushes it back down
// — through a shared atomic for in-process shards, piggybacked on stream
// acks for HTTP workers — so the Threshold Algorithm's stopping rule cuts
// work *inside* a running shard, not just whole shards [Fagin et al.;
// Akbarinia et al.].

// StreamBatch is one partial emission of a shard query, in global node
// ids: the results newly certified since the previous batch, plus the
// shard's cumulative work stats (so the coordinator can account the work
// of a shard it later cuts mid-query).
type StreamBatch struct {
	Items []core.Result
	Stats core.QueryStats
}

// StreamControl is the shared coordination state of one fan-out: the
// monotone merge threshold λ every shard observes, and the budget
// redistribution pool holding the slices of shards that were cut before
// using them. It is safe for concurrent use and implements both
// core.FloorProvider and core.BudgetSource.
type StreamControl struct {
	// floorBits holds math.Float64bits(λ). λ is always non-negative
	// (aggregates are), and the IEEE-754 bit patterns of non-negative
	// floats order identically to the floats themselves, so a CAS-max on
	// the bits is a CAS-max on λ.
	floorBits atomic.Uint64
	pool      atomic.Int64 // unclaimed redistributed traversals
	granted   atomic.Int64 // traversals handed back out so far

	// Demand-driven grant ledger for remote workers (see Grant). gmu
	// guards the per-shard cumulative counters; in-process shards bypass
	// the ledger entirely by calling TakeBudget directly.
	gmu     sync.Mutex
	gshards map[int]*grantLedger
	greqs   int64 // grant requests answered (stats)
}

// grantLedger is one shard's cumulative grant state. Cumulative counters
// — total budget ever requested, total ever granted — make the protocol
// robust to ack coalescing and retransmission: the latest ack always
// carries the whole truth, so dropped or merged intermediates lose
// nothing.
type grantLedger struct {
	need    int64 // cumulative budget the worker has requested
	granted int64 // cumulative budget granted to the worker
}

// Floor returns the current λ — a certified lower bound on the final
// global k-th value (core.FloorProvider).
func (c *StreamControl) Floor() float64 {
	return math.Float64frombits(c.floorBits.Load())
}

// Raise lifts λ to v if v is larger, reporting whether it actually
// tightened the floor; lower or non-finite values are ignored, keeping
// the floor monotone and admissible. The report lets the coordinator
// count (and trace) real λ-tightenings without re-reading the atomic.
func (c *StreamControl) Raise(v float64) bool {
	if math.IsNaN(v) || v <= 0 {
		return false
	}
	bits := math.Float64bits(v)
	for {
		cur := c.floorBits.Load()
		if cur >= bits {
			return false
		}
		if c.floorBits.CompareAndSwap(cur, bits) {
			return true
		}
	}
}

// AddBudget returns n unused traversals (a cut shard's stranded slice)
// to the pool.
func (c *StreamControl) AddBudget(n int) {
	if n > 0 {
		c.pool.Add(int64(n))
	}
}

// TakeBudget consumes up to want traversals from the pool
// (core.BudgetSource). In-process shard queries draw one traversal at a
// time on demand, so the pool is spent exactly where work remains.
func (c *StreamControl) TakeBudget(want int) int {
	if want <= 0 {
		return 0
	}
	for {
		cur := c.pool.Load()
		if cur <= 0 {
			return 0
		}
		take := int64(want)
		if take > cur {
			take = cur
		}
		if c.pool.CompareAndSwap(cur, cur-take) {
			c.granted.Add(take)
			return int(take)
		}
	}
}

// Redistributed reports how many traversals were handed back out of the
// pool over the fan-out's lifetime.
func (c *StreamControl) Redistributed() int {
	return int(c.granted.Load())
}

// Grant answers a remote worker's demand-driven budget request: cumNeed
// is the cumulative budget the shard has asked for over the stream's
// lifetime. Any newly requested amount (beyond what was already
// answered) is served from the pool — possibly partially, possibly with
// zero when the pool is dry, which is the same instantaneous semantics
// an in-process TakeBudget sees. Returns the shard's cumulative granted
// and answered totals, the two monotone counters the worker reconciles
// against. Replays (cumNeed ≤ already answered) return current state
// without touching the pool.
func (c *StreamControl) Grant(shard int, cumNeed int64) (granted, answered int64) {
	c.gmu.Lock()
	defer c.gmu.Unlock()
	if c.gshards == nil {
		c.gshards = make(map[int]*grantLedger)
	}
	g := c.gshards[shard]
	if g == nil {
		g = &grantLedger{}
		c.gshards[shard] = g
	}
	if cumNeed > g.need {
		delta := cumNeed - g.need
		g.need = cumNeed
		g.granted += int64(c.TakeBudget(int(delta)))
		c.greqs++
	}
	return g.granted, g.need
}

// GrantedTo reports the cumulative budget granted to a shard through the
// demand-driven protocol (0 for shards that never asked — including all
// in-process shards, which draw via TakeBudget instead).
func (c *StreamControl) GrantedTo(shard int) int64 {
	c.gmu.Lock()
	defer c.gmu.Unlock()
	if g := c.gshards[shard]; g != nil {
		return g.granted
	}
	return 0
}

// GrantRequests reports how many distinct grant requests the fan-out
// answered.
func (c *StreamControl) GrantRequests() int64 {
	c.gmu.Lock()
	defer c.gmu.Unlock()
	return c.greqs
}
