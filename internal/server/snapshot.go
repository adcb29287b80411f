package server

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"time"

	snapfmt "repro/internal/snapshot"
)

// SnapshotSource records where a server's boot state came from when it
// was loaded from a columnar snapshot instead of built from a generator
// or edge list. It exists for observability only: /v1/stats and /metrics
// surface it so an operator can tell how stale a restarted daemon's
// state is and what the mmap boot actually cost.
type SnapshotSource struct {
	Path         string        // snapshot file the server mapped
	ModTime      time.Time     // its mtime at open
	Bytes        int64         // file size
	Generation   uint64        // score generation stamped into the file
	LoadDuration time.Duration // open+map+validate+engine-adopt time
}

// SnapshotResult reports what a persisted snapshot captured — the
// POST /v1/snapshot response body.
type SnapshotResult struct {
	Path       string `json:"path"`
	Bytes      int64  `json:"bytes"`
	Generation uint64 `json:"generation"` // score generation captured
	ElapsedUS  int64  `json:"elapsed_us"`
}

// WriteSnapshot persists the server's current generation as a
// whole-graph snapshot at path (atomically, via temp file + rename).
// The write happens outside the generation lock against an immutable
// (graph, engine, generation) triple, so queries and even concurrent
// update batches proceed untouched; a batch landing mid-write simply
// means the snapshot captures the generation that was current when the
// write began — exactly what its stamped generation says.
func (s *Server) WriteSnapshot(path string) (*SnapshotResult, error) {
	if path == "" {
		return nil, errors.New("snapshot: no path configured (start lonad with -snapshot, or pass \"path\" in the request)")
	}
	start := time.Now()
	s.mu.RLock()
	engine, gen := s.engine, s.gen
	s.mu.RUnlock()

	w, err := snapfmt.NewWriter(engine.Graph(), engine.Scores(), engine.H(),
		engine.PrepareNeighborhoodIndex(s.opts.Workers))
	if err != nil {
		return nil, err
	}
	w.SetGeneration(gen)
	if err := w.WriteFile(path); err != nil {
		return nil, err
	}
	res := &SnapshotResult{Path: path, Generation: gen, ElapsedUS: time.Since(start).Microseconds()}
	if fi, err := os.Stat(path); err == nil {
		res.Bytes = fi.Size()
	}
	if j := s.opts.Journal; j != nil {
		// Anchor the journal to the freshly persisted generation: the next
		// boot opens the anchored snapshot and replays only commits past
		// gen, and Compact may drop everything at or below it. Both writes
		// are atomic (temp file + rename), and a crash between them merely
		// leaves the previous anchor pointing at the older snapshot — still
		// a valid replay base, never a torn one.
		if err := j.WriteAnchor(path, gen); err != nil {
			return nil, fmt.Errorf("snapshot written, but anchoring the journal failed: %w", err)
		}
	}
	s.metrics.snapshot.Written.Add(1)
	return res, nil
}

// snapshotRequest is the /v1/snapshot body; the empty object (or empty
// body semantics — all fields optional) targets the server's configured
// snapshot path.
type snapshotRequest struct {
	Path string `json:"path,omitempty"`
}

// handleSnapshot serves POST /v1/snapshot: persist the current
// generation so the next boot can -snapshot straight back to it.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	req := snapshotRequest{}
	if r.ContentLength != 0 {
		if err := decodeBody(w, r, &req); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	path := req.Path
	if path == "" {
		path = s.opts.SnapshotPath
	}
	res, err := s.WriteSnapshot(path)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// SnapshotStats is the snapshot section of /v1/stats: the source the
// server booted from (absent when it built its state from scratch) and
// the snapshots it has persisted since.
type SnapshotStats struct {
	*SnapshotSourceStats
	Written int64 `json:"written" prom:"lona_snapshots_written_total,counter,Snapshots persisted via /v1/snapshot."`
}

// SnapshotSourceStats describes the snapshot file the server booted from.
type SnapshotSourceStats struct {
	Source        string `json:"source,omitempty"`
	SourceModTime string `json:"source_mtime,omitempty"` // RFC3339
	// SourceMTime is SourceModTime in Unix seconds, for /metrics.
	SourceMTime      int64   `json:"-" prom:"lona_snapshot_source_mtime_seconds,gauge,Unix mtime of the snapshot file the server booted from."`
	SourceBytes      int64   `json:"source_bytes,omitempty" prom:"lona_snapshot_source_bytes,gauge,Size of the snapshot file the server booted from."`
	SourceGeneration uint64  `json:"source_generation,omitempty" prom:"lona_snapshot_source_generation,gauge,Score generation stamped into the boot snapshot."`
	LoadMS           float64 `json:"load_ms,omitempty" prom:"lona_snapshot_load_seconds,gauge,Time to map and validate the boot snapshot."` // mmap boot cost
}
