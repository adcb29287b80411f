package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the number of connections the load generator opens: nproc
// of the machine the numbers were first taken on (2). Each client owns
// one keep-alive connection.
const clients = 2

// record is one sent operation as the client saw it.
type record struct {
	o *op
	// due is when the operation was due (open loop) or sent (closed loop).
	due, sent, done time.Time
	// late is how far the generator itself was behind: send time minus
	// the later of the due time and the moment a connection was free.
	late   time.Duration
	status int
	err    error
	// body is the response, interned so identical cache-hit responses
	// share one string.
	body string
}

func (r *record) ok() bool { return r.err == nil && r.status == http.StatusOK }

// latency is the operation's time from due to the last response byte,
// less the generator's own lateness: waiting for a busy connection
// counts, a late timer wake-up in the generator does not. Go sleeps in
// whole milliseconds on Linux, which is more than a cache hit takes, so
// counting the wake-up would measure the generator's timer.
func (r *record) latency() time.Duration { return r.done.Sub(r.due) - r.late }

func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// interner deduplicates response bodies for one client goroutine.
type interner map[string]string

func (in interner) intern(b []byte) string {
	if s, ok := in[string(b)]; ok {
		return s
	}
	s := string(b)
	in[s] = s
	return s
}

func send(ctx context.Context, c *http.Client, base string, o *op, in interner) (int, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+o.kind.path(), bytes.NewReader(o.body))
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, "", err
	}
	return resp.StatusCode, in.intern(body), nil
}

// runOpen sends ops on their schedule (op.at from a common start) over
// the clients, in order; an operation due while both connections are
// busy waits, and its latency still counts from its due time.
func runOpen(ctx context.Context, base string, ops []*op, cs []*http.Client) []record {
	recs := make([]record, len(ops))
	var next atomic.Int64
	start := time.Now().Add(2 * time.Millisecond)
	var wg sync.WaitGroup
	for _, c := range cs {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			in := interner{}
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) || ctx.Err() != nil {
					return
				}
				o := ops[i]
				due := start.Add(o.at)
				free := time.Now()
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				r := &recs[i]
				r.o, r.due, r.sent = o, due, time.Now()
				if due.After(free) {
					free = due
				}
				r.late = r.sent.Sub(free)
				r.status, r.body, r.err = send(ctx, c, base, o, in)
				r.done = time.Now()
			}
		}()
	}
	wg.Wait()
	return recs
}

// runClosed keeps every client busy with the next query for dur, while
// writes still go out on their schedule: a client whose next write is
// due sends it before its next query. It returns the records actually
// sent, queries first and in stream order, and the time from start to the
// last completion.
func runClosed(ctx context.Context, base string, ops []*op, dur time.Duration, cs []*http.Client) ([]record, time.Duration) {
	var queries, writes []*op
	for _, o := range ops {
		if o.kind == opQuery {
			queries = append(queries, o)
		} else {
			writes = append(writes, o)
		}
	}
	qrecs := make([]record, len(queries))
	wrecs := make([]record, len(writes))
	var nextQ, nextW atomic.Int64
	start := time.Now()
	end := start.Add(dur)
	var wg sync.WaitGroup
	for _, c := range cs {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			in := interner{}
			for ctx.Err() == nil {
				now := time.Now()
				if !now.Before(end) {
					return
				}
				var r *record
				if wi := nextW.Load(); int(wi) < len(writes) && !start.Add(writes[wi].at).After(now) &&
					nextW.CompareAndSwap(wi, wi+1) {
					r = &wrecs[wi]
					r.o, r.due = writes[wi], start.Add(writes[wi].at)
				} else {
					qi := int(nextQ.Add(1) - 1)
					if qi >= len(queries) {
						return
					}
					r = &qrecs[qi]
					r.o, r.due = queries[qi], now
				}
				r.sent = time.Now()
				r.status, r.body, r.err = send(ctx, c, base, r.o, in)
				r.done = time.Now()
			}
		}()
	}
	wg.Wait()
	var out []record
	var last time.Time
	for _, list := range [][]record{qrecs, wrecs} {
		for _, r := range list {
			if r.o == nil {
				continue
			}
			out = append(out, r)
			if r.done.After(last) {
				last = r.done
			}
		}
	}
	return out, last.Sub(start)
}
