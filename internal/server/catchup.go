package server

// Replay-based worker catch-up: a shard worker that restarted (or
// missed fan-out legs) is brought back to the coordinator's generation
// by shipping it the journal suffix it lacks — no graph re-shipment, no
// worker pool restart. The probe/replay pass runs under the write lock
// so the target generation cannot move underneath it.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/internal/trace"
	"repro/internal/wideevent"
)

// WorkerCatchUp reports one worker's catch-up outcome.
type WorkerCatchUp struct {
	Shard   int    `json:"shard"`
	From    uint64 `json:"from"`              // generation the probe found
	To      uint64 `json:"to"`                // generation after replay
	Applied int    `json:"applied"`           // journal commits replayed
	Error   string `json:"error,omitempty"`   // probe or replay failure
	Skipped string `json:"skipped,omitempty"` // why no replay was attempted
}

// CatchUpResult is the POST /v1/catchup response.
type CatchUpResult struct {
	Target    uint64          `json:"target_generation"`
	Probed    int             `json:"probed"`
	CaughtUp  int             `json:"caught_up"` // workers that applied >= 1 commit
	Commits   int             `json:"commits"`   // commits applied across all workers
	Workers   []WorkerCatchUp `json:"workers,omitempty"`
	ElapsedUS int64           `json:"elapsed_us"`
}

// CatchUpWorkers probes every HTTP shard worker and replays the journal
// suffix to any that report a generation behind the coordinator's.
// Requires a configured journal and an HTTP-sharded cluster; errors on
// any other topology (in-process shards share the coordinator's state
// and can never fall behind). Per-worker failures are findings in the
// result, not a pass failure — catching up the reachable workers is
// strictly better than catching up none.
func (s *Server) CatchUpWorkers(ctx context.Context) (*CatchUpResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	res, err := s.catchUpLocked(ctx)
	s.logCatchUp(ctx, res, err)
	return res, err
}

// catchUpLocked is the probe/replay core; the caller holds the write
// lock (CatchUpWorkers, or the fan-out failure path inside a mutation
// batch) and owns wide-event emission.
func (s *Server) catchUpLocked(ctx context.Context) (*CatchUpResult, error) {
	start := time.Now()
	j := s.opts.Journal
	if j == nil {
		return nil, errors.New("catch-up requires a journal (start lonad with -journal)")
	}
	if s.cl == nil || !s.cl.remote {
		return nil, errors.New("catch-up applies to HTTP shard workers only (in-process shards cannot fall behind)")
	}
	tr := s.cl.coord.Transport()
	prober, okP := tr.(cluster.HealthProber)
	replayer, okR := tr.(cluster.Replayer)
	if !okP || !okR {
		return nil, errors.New("transport supports neither health probes nor replay")
	}

	res := &CatchUpResult{Target: s.gen}
	for _, r := range prober.ProbeHealth(ctx) {
		res.Probed++
		wc := WorkerCatchUp{Shard: r.Shard, From: r.Generation, To: r.Generation}
		switch {
		case r.Err != nil:
			wc.Error = r.Err.Error()
		case r.Generation >= s.gen:
			wc.Skipped = "up to date"
		default:
			suffix := j.Suffix(r.Generation)
			commits := make([]cluster.ReplayCommit, len(suffix))
			for i, c := range suffix {
				commits[i] = cluster.ReplayCommit{Gen: c.Gen, Edits: c.Edits}
				if len(c.Scores) > 0 {
					ups := make([]cluster.ScoreUpdate, len(c.Scores))
					for k, u := range c.Scores {
						ups[k] = cluster.ScoreUpdate{Node: u.Node, Score: u.Score}
					}
					commits[i].Updates = ups
				}
			}
			if len(commits) == 0 || commits[0].Gen != r.Generation+1 {
				// The journal no longer holds (or never held) the commits
				// right after the worker's generation — compaction dropped
				// them, or the worker booted from an older snapshot lineage.
				wc.Error = fmt.Sprintf("journal cannot bridge generations %d..%d (oldest needed commit is gone; re-provision the worker from a newer snapshot)",
					r.Generation+1, s.gen)
				break
			}
			rr, err := replayer.Replay(ctx, r.Shard, commits)
			if err != nil {
				wc.Error = err.Error()
				break
			}
			wc.To, wc.Applied = rr.Generation, rr.Applied
			if rr.Applied > 0 {
				res.CaughtUp++
				res.Commits += rr.Applied
			}
			if rr.Generation != s.gen {
				wc.Error = fmt.Sprintf("worker landed at generation %d, coordinator is at %d", rr.Generation, s.gen)
			}
		}
		res.Workers = append(res.Workers, wc)
	}
	s.metrics.journal.Catchups.Add(1)
	s.metrics.journal.CatchupCommits.Add(int64(res.Commits))
	res.ElapsedUS = time.Since(start).Microseconds()
	return res, nil
}

// logCatchUp emits the catch-up wide event (one record per pass).
func (s *Server) logCatchUp(ctx context.Context, res *CatchUpResult, err error) {
	ev := wideevent.CatchUp{TraceID: trace.NewID(), Status: wideevent.StatusOK}
	if err != nil {
		ev.Status, ev.Err = wideevent.StatusError, err.Error()
	}
	if res != nil {
		ev.Generation = res.Target
		ev.Probed = res.Probed
		ev.CaughtUp = res.CaughtUp
		ev.Commits = res.Commits
		ev.Duration = time.Duration(res.ElapsedUS) * time.Microsecond
	}
	ev.Log(ctx, s.log)
}

// catchUpAndRetry is the fan-out failure fallback inside a mutation
// batch: when a leg fails and a journal is configured, the failure is
// often a worker that restarted and fell behind — catch it up from the
// journal, then retry the fan-out once. Returns nil when the retry
// succeeds. Caller holds the write lock.
func (s *Server) catchUpAndRetry(fanErr error, retry func(ctx context.Context) error) error {
	if s.opts.Journal == nil || s.cl == nil || !s.cl.remote {
		return fanErr
	}
	ctx := context.Background()
	res, err := s.catchUpLocked(ctx)
	s.logCatchUp(ctx, res, err)
	if err != nil {
		return fanErr
	}
	fanCtx, cancel := context.WithTimeout(ctx, shardUpdateTimeout)
	defer cancel()
	if err := retry(fanCtx); err != nil {
		return fmt.Errorf("%w (and the retry after journal catch-up also failed: %v)", fanErr, err)
	}
	return nil
}

// handleCatchUp serves POST /v1/catchup: an operator- (or monitor-)
// triggered probe-and-replay pass over the shard workers.
func (s *Server) handleCatchUp(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	res, err := s.CatchUpWorkers(r.Context())
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}
