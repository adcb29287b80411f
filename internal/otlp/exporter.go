package otlp

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ExporterOptions tunes the async exporter. The zero value is usable.
type ExporterOptions struct {
	// SampleRatio in [0,1] is the fraction of ordinary traces exported;
	// 0 means export everything (the unset default). Slow traces bypass
	// sampling — they are exactly the ones worth keeping.
	SampleRatio float64
	// QueueSize bounds the in-flight batch queue (default 256). When the
	// queue is full, Export drops and counts instead of blocking the
	// query path.
	QueueSize int
	// Client overrides the HTTP client (default: 5s-timeout client).
	Client *http.Client
	// Logger receives export-failure notices (nil = silent).
	Logger *slog.Logger
}

// ExporterStats is the exporter's accounting, surfaced in the server's
// /v1/stats and, through the prom tags, on its /metrics.
type ExporterStats struct {
	// Exported counts batches delivered to the collector (2xx).
	Exported int64 `json:"exported" prom:"lona_otlp_exported_total,counter,OTLP span batches delivered to the collector."`
	// Dropped counts batches discarded because the queue was full.
	Dropped int64 `json:"dropped" prom:"lona_otlp_dropped_total,counter,OTLP span batches dropped by the full export queue."`
	// Sampled counts batches skipped by the sampling ratio.
	Sampled int64 `json:"sampled_out" prom:"lona_otlp_sampled_out_total,counter,OTLP span batches skipped by the sampling ratio."`
	// Failed counts batches the collector refused or the POST lost.
	Failed int64 `json:"failed" prom:"lona_otlp_failed_total,counter,OTLP span batches the collector refused or the POST lost."`
	// QueueLen is the current backlog.
	QueueLen int `json:"queue_len" prom:"lona_otlp_queue_len,gauge,OTLP export queue backlog."`
}

// Exporter ships OTLP/JSON batches to a collector from a single
// background goroutine. Export never blocks the caller: a full queue
// drops the batch and counts it. Close flushes the backlog.
type Exporter struct {
	url    string
	client *http.Client
	log    *slog.Logger
	sample float64

	queue chan *Request
	done  chan struct{}

	closeOnce sync.Once
	wg        sync.WaitGroup

	rngMu sync.Mutex
	rng   *rand.Rand

	exported atomic.Int64
	dropped  atomic.Int64
	sampled  atomic.Int64
	failed   atomic.Int64
}

// NewExporter starts an exporter POSTing to <endpoint>/v1/traces (the
// suffix is appended unless already present).
func NewExporter(endpoint string, opts ExporterOptions) *Exporter {
	url := strings.TrimSuffix(endpoint, "/")
	if !strings.HasSuffix(url, "/v1/traces") {
		url += "/v1/traces"
	}
	size := opts.QueueSize
	if size <= 0 {
		size = 256
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	e := &Exporter{
		url:    url,
		client: client,
		log:    opts.Logger,
		sample: opts.SampleRatio,
		queue:  make(chan *Request, size),
		done:   make(chan struct{}),
		rng:    rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	e.wg.Add(1)
	go e.loop()
	return e
}

// Export enqueues one batch. Ordinary batches are subject to the
// sampling ratio; slow ones always ship. Returns false when the batch
// was sampled out or dropped.
func (e *Exporter) Export(req *Request, slow bool) bool {
	if e == nil || req == nil {
		return false
	}
	if !slow && e.sample > 0 && e.sample < 1 {
		e.rngMu.Lock()
		skip := e.rng.Float64() >= e.sample
		e.rngMu.Unlock()
		if skip {
			e.sampled.Add(1)
			return false
		}
	}
	select {
	case e.queue <- req:
		return true
	default:
		e.dropped.Add(1)
		return false
	}
}

// Stats returns a snapshot of the exporter's accounting. Nil-safe.
func (e *Exporter) Stats() ExporterStats {
	if e == nil {
		return ExporterStats{}
	}
	return ExporterStats{
		Exported: e.exported.Load(),
		Dropped:  e.dropped.Load(),
		Sampled:  e.sampled.Load(),
		Failed:   e.failed.Load(),
		QueueLen: len(e.queue),
	}
}

// Close stops intake, flushes the backlog, and waits for the sender
// goroutine (bounded by ctx). Safe to call twice; nil-safe.
func (e *Exporter) Close(ctx context.Context) error {
	if e == nil {
		return nil
	}
	e.closeOnce.Do(func() { close(e.done) })
	flushed := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(flushed)
	}()
	select {
	case <-flushed:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (e *Exporter) loop() {
	defer e.wg.Done()
	for {
		select {
		case req := <-e.queue:
			e.send(req)
		case <-e.done:
			// Drain what's already queued, then exit.
			for {
				select {
				case req := <-e.queue:
					e.send(req)
				default:
					return
				}
			}
		}
	}
}

func (e *Exporter) send(req *Request) {
	body, err := json.Marshal(req)
	if err != nil {
		e.fail(fmt.Errorf("marshal: %w", err))
		return
	}
	resp, err := e.client.Post(e.url, "application/json", bytes.NewReader(body))
	if err != nil {
		e.fail(err)
		return
	}
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		e.fail(fmt.Errorf("collector returned %s", resp.Status))
		return
	}
	e.exported.Add(1)
}

func (e *Exporter) fail(err error) {
	e.failed.Add(1)
	if e.log != nil {
		e.log.LogAttrs(context.Background(), slog.LevelWarn, "otlp_export_failed",
			slog.String("error", err.Error()), slog.String("endpoint", e.url))
	}
}
