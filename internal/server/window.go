package server

import (
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the rolling-window side of the latency story. The
// cumulative latencyHist answers "since boot"; windowHist answers "right
// now": a ring of windowSlots slots, each covering windowSlotSeconds of
// wall time with the same log2 latencyHist. Observations land in the
// slot for the current epoch (unix seconds / slot length); reads sum
// only slots whose epoch is still inside the window, so old traffic ages
// out in slot-sized steps instead of accumulating forever. The per-slot
// `over` counter tracks observations past the SLO latency objective
// exactly (the threshold is applied at observe time, not estimated from
// bucket bounds), which is what the burn-rate computation divides.

const (
	// windowSlots × windowSlotSeconds = the 120s rolling window.
	windowSlots       = 12
	windowSlotSeconds = 10
)

// windowSlot is one ring entry. epoch stamps which wall-clock slot the
// counters belong to; a slot whose epoch has fallen out of the window is
// dead weight until rotation recycles it.
type windowSlot struct {
	epoch atomic.Int64
	over  atomic.Int64
	hist  latencyHist
}

func (s *windowSlot) reset(epoch int64) {
	s.hist.reset()
	s.over.Store(0)
	s.epoch.Store(epoch)
}

// windowHist is a sliding-window log2 histogram. Observations are
// lock-free atomic adds; mu serializes only slot rotation. now is the
// injectable clock (nil = time.Now) so tests can march the window
// forward without sleeping through real slot boundaries.
type windowHist struct {
	mu   sync.Mutex
	now  func() time.Time
	slot [windowSlots]windowSlot
}

func (w *windowHist) epochNow() int64 {
	clk := w.now
	if clk == nil {
		clk = time.Now
	}
	return clk().Unix() / windowSlotSeconds
}

// currentSlot returns the live slot for epoch, recycling a stale ring
// entry under the mutex when the window has moved past it.
func (w *windowHist) currentSlot(epoch int64) *windowSlot {
	s := &w.slot[epoch%windowSlots]
	if s.epoch.Load() != epoch {
		w.mu.Lock()
		if s.epoch.Load() != epoch {
			s.reset(epoch)
		}
		w.mu.Unlock()
	}
	return s
}

// observe records one latency; over marks it past the SLO objective.
func (w *windowHist) observe(d time.Duration, over bool) {
	s := w.currentSlot(w.epochNow())
	s.hist.observe(d)
	if over {
		s.over.Add(1)
	}
}

// windowSnapshot is the summed view of every slot still in the window.
type windowSnapshot struct {
	histCounts
	over int64
}

// snapshot sums the live slots. Slots with epochs outside
// (now-window, now] are skipped, which is how decay happens: nothing is
// zeroed eagerly, expired slots simply stop being counted.
func (w *windowHist) snapshot() windowSnapshot {
	cur := w.epochNow()
	oldest := cur - windowSlots + 1
	var out windowSnapshot
	for i := range w.slot {
		s := &w.slot[i]
		if e := s.epoch.Load(); e < oldest || e > cur {
			continue
		}
		out.add(s.hist.load())
		out.over += s.over.Load()
	}
	return out
}

// SLO is a latency service-level objective: Target fraction of queries
// must finish within Latency. The zero value disables SLO tracking.
type SLO struct {
	// Latency is the per-query objective (lonad -slo-latency-ms).
	Latency time.Duration
	// Target is the fraction of queries that must meet it, in (0,1) —
	// e.g. 0.99 tolerates 1% of window queries over the objective.
	Target float64
}

// enabled reports whether the objective is configured and coherent.
func (o SLO) enabled() bool {
	return o.Latency > 0 && o.Target > 0 && o.Target < 1
}

// burnRate is the window's error budget consumption rate: the fraction
// of queries over the objective divided by the fraction the target
// allows. 1.0 means the budget burns exactly as fast as it refills;
// above 1 the SLO is being violated right now. An idle window burns
// nothing.
func (o SLO) burnRate(ws windowSnapshot) float64 {
	if !o.enabled() || ws.count == 0 {
		return 0
	}
	bad := float64(ws.over) / float64(ws.count)
	return bad / (1 - o.Target)
}

// SLOStats is the SLO section of /v1/stats and /v1/health: the rolling
// window judged against the configured objective.
type SLOStats struct {
	LatencyMS     float64 `json:"latency_ms" prom:"lona_slo_objective_seconds,gauge,Configured per-query latency objective."`
	Target        float64 `json:"target" prom:"lona_slo_target,gauge,Required fraction of window queries under the objective."`
	WindowSeconds int     `json:"window_seconds"` // rolling window length
	WindowQueries int64   `json:"window_queries"` // queries in the window
	WindowOver    int64   `json:"window_over" prom:"lona_slo_window_over,gauge,Window queries over the latency objective."`
	BurnRate      float64 `json:"burn_rate" prom:"lona_slo_burn_rate,gauge,Error-budget burn rate over the rolling window (>=1 violates the SLO)."`
	Burning       bool    `json:"burning"` // burn rate >= 1: actively violating
}

// stats judges the window against the objective; nil when no SLO is
// configured.
func (o SLO) stats(ws windowSnapshot) *SLOStats {
	if !o.enabled() {
		return nil
	}
	burn := o.burnRate(ws)
	return &SLOStats{
		LatencyMS:     float64(o.Latency.Microseconds()) / 1000,
		Target:        o.Target,
		WindowSeconds: windowSlots * windowSlotSeconds,
		WindowQueries: ws.count,
		WindowOver:    ws.over,
		BurnRate:      burn,
		Burning:       burn >= 1,
	}
}
