package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
)

// TestGrantLedgerCumulative pins the coordinator half of the grant
// protocol: deltas come from the cumulative need, re-asking the same
// need is a no-op (retransmission-safe), and a dry pool still answers —
// advancing answered with no new grant is the denial.
func TestGrantLedgerCumulative(t *testing.T) {
	ctrl := &StreamControl{}
	ctrl.AddBudget(100)

	granted, answered := ctrl.Grant(0, 64)
	if granted != 64 || answered != 64 {
		t.Fatalf("first grant = (%d, %d), want (64, 64)", granted, answered)
	}
	// Replay of the same cumulative need must not double-grant.
	granted, answered = ctrl.Grant(0, 64)
	if granted != 64 || answered != 64 {
		t.Fatalf("replayed grant = (%d, %d), want unchanged (64, 64)", granted, answered)
	}
	// The next chunk drains the pool: 36 remain of 100.
	granted, answered = ctrl.Grant(0, 128)
	if granted != 100 || answered != 128 {
		t.Fatalf("second grant = (%d, %d), want (100, 128)", granted, answered)
	}
	// Pool dry: answered advances, granted does not — the denial.
	granted, answered = ctrl.Grant(0, 192)
	if granted != 100 || answered != 192 {
		t.Fatalf("dry-pool grant = (%d, %d), want (100, 192)", granted, answered)
	}
	if ctrl.GrantedTo(0) != 100 || ctrl.GrantedTo(1) != 0 {
		t.Fatalf("GrantedTo = (%d, %d), want (100, 0)", ctrl.GrantedTo(0), ctrl.GrantedTo(1))
	}
	if ctrl.GrantRequests() != 3 {
		t.Fatalf("GrantRequests = %d, want 3 (the replay is free)", ctrl.GrantRequests())
	}
}

// TestGrantClientDeniesAndCloses pins the worker half: an answer that
// grants nothing is a denial (TakeBudget returns 0, the engine
// truncates), and close unblocks a parked waiter the same way.
func TestGrantClientDeniesAndCloses(t *testing.T) {
	asked := make(chan int64, 4)
	gc := newGrantClient(func(cum int64) bool {
		asked <- cum
		return true
	})

	// Answer the first ask with a grant, the second with a denial.
	done := make(chan int, 2)
	go func() {
		done <- gc.TakeBudget(10)
		done <- gc.TakeBudget(10)
	}()
	if cum := <-asked; cum != grantChunk {
		t.Fatalf("first ask cum=%d, want %d", cum, grantChunk)
	}
	gc.update(grantChunk, grantChunk)
	if got := <-done; got != 10 {
		t.Fatalf("granted TakeBudget = %d, want 10", got)
	}
	// The chunk still holds 54; the second take is served locally.
	if got := <-done; got != 10 {
		t.Fatalf("locally served TakeBudget = %d, want 10", got)
	}

	// Drain the chunk, then deny the re-ask.
	if got := gc.TakeBudget(1000); got != grantChunk-20 {
		t.Fatalf("drain = %d, want %d", got, grantChunk-20)
	}
	go func() {
		done <- gc.TakeBudget(5)
	}()
	if cum := <-asked; cum != 2*grantChunk {
		t.Fatalf("second ask cum=%d, want %d", cum, 2*grantChunk)
	}
	gc.update(grantChunk, 2*grantChunk) // answered, nothing new granted
	if got := <-done; got != 0 {
		t.Fatalf("denied TakeBudget = %d, want 0", got)
	}

	// A waiter parked on an unanswered ask is unblocked by close.
	go func() {
		done <- gc.TakeBudget(5)
	}()
	<-asked
	gc.close()
	if got := <-done; got != 0 {
		t.Fatalf("closed TakeBudget = %d, want 0", got)
	}
	// And a nil client is a permanent denial, not a panic.
	var nilGC *grantClient
	if got := nilGC.TakeBudget(5); got != 0 {
		t.Fatalf("nil client TakeBudget = %d, want 0", got)
	}
	nilGC.update(1, 1)
	nilGC.close()
}

// TestHTTPBudgetedAtLeastSingleEngine closes the PR 5 regression through
// the real wire: the same skewed budgeted query that TestBudgetRedistribution
// runs in-process, but over HTTP workers — where budget used to be split
// at launch and stranded. With demand-driven grants the sharded run must
// evaluate at least as many candidates as the single engine.
func TestHTTPBudgetedAtLeastSingleEngine(t *testing.T) {
	g := gen.PlantedPartition(800, 2, 0.05, 0, 9)
	scores := make([]float64, 800)
	for v := 0; v < 800; v += 2 {
		scores[v] = 0.25 + 0.75*float64(v%13)/13
	}
	engine, err := core.NewEngine(g, scores, 2)
	if err != nil {
		t.Fatal(err)
	}
	urls, _ := startWorkers(t, g, scores, 2, 4)
	transport, err := NewHTTP(context.Background(), urls, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer transport.Close()

	const budget = 300
	q := core.Query{K: 10, Aggregate: core.Sum, Algorithm: core.AlgoBase, Budget: budget}
	want, err := engine.Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if want.Stats.Evaluated != budget {
		t.Fatalf("single engine evaluated %d, want the full budget %d", want.Stats.Evaluated, budget)
	}

	coord := NewCoordinator(transport, Options{Parallel: 1})
	ans, bd, err := coord.RunDetailed(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Stats.Evaluated < want.Stats.Evaluated {
		t.Fatalf("budgeted HTTP run evaluated %d, single engine %d — budget stranded on the wire",
			ans.Stats.Evaluated, want.Stats.Evaluated)
	}
	if bd.GrantRequests == 0 {
		t.Fatalf("no grant requests on a budget-starved skewed run: %+v", bd)
	}
}

// TestGrantsUnderShardCutsRace drives concurrent budgeted fan-outs over
// real workers on a skewed topology, where grants, λ acks, pre-launch
// cuts, and mid-query cuts all interleave — the shape the race detector
// watches in CI.
func TestGrantsUnderShardCutsRace(t *testing.T) {
	g := gen.PlantedPartition(400, 2, 0.05, 0, 9)
	scores := make([]float64, 400)
	for v := 0; v < 400; v += 2 {
		scores[v] = 0.25 + 0.75*float64(v%13)/13
	}
	urls, _ := startWorkers(t, g, scores, 2, 4)
	transport, err := NewHTTP(context.Background(), urls, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer transport.Close()
	coord := NewCoordinator(transport, Options{Parallel: 4})

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := core.Query{K: 5 + i, Aggregate: core.Sum, Algorithm: core.AlgoBase, Budget: 150}
			if _, err := coord.Run(context.Background(), q); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
}

// TestWorkerDeathMidGrant kills the stream right after the worker asks
// for budget: the coordinator must surface a transport error promptly —
// not hang waiting for frames that will never come — and the worker-side
// grant client must likewise unblock (covered by the ack-reader close).
func TestWorkerDeathMidGrant(t *testing.T) {
	url := fakeStreamWorker(t, 100, func(rw http.ResponseWriter, r *http.Request) {
		// Hijack and slam the connection shut right after the need frame —
		// a worker process dying with a grant in flight: no terminal
		// chunk, no final frame, no grant wait resolution.
		frame := `{"seq":1,"need":64}` + "\n"
		conn, buf, err := rw.(http.Hijacker).Hijack()
		if err != nil {
			panic(err)
		}
		defer conn.Close()
		fmt.Fprintf(buf, "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\n\r\n")
		fmt.Fprintf(buf, "%x\r\n%s\r\n", len(frame), frame)
		buf.Flush()
	})
	transport, err := NewHTTP(context.Background(), []string{url}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer transport.Close()
	coord := NewCoordinator(transport, Options{})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err = coord.Run(ctx, core.Query{K: 3, Aggregate: core.Sum, Algorithm: core.AlgoBase, Budget: 50})
	if err == nil {
		t.Fatal("coordinator succeeded against a worker that died mid-grant")
	}
	if ctx.Err() != nil {
		t.Fatalf("coordinator hung until the safety timeout: %v", err)
	}
	if !strings.Contains(err.Error(), "stream") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestAckCoalescingMonotone floods one QueryStream with frames faster
// than acks can flush and asserts what the worker observes: ack floors
// and sequence numbers only ever move forward, and the last ack seen
// reflects the freshest coordinator state — latest-wins, never stale.
// The fake worker holds its final frame until the ack for the last
// stats frame lands: while the stream is open the client's ack writer
// is live, so the coalescing mailbox must deliver the newest ack.
func TestAckCoalescingMonotone(t *testing.T) {
	const frames = 200
	var mu sync.Mutex
	var seen []wireStreamAck
	lastAcked := make(chan struct{})
	url := fakeStreamWorker(t, 100, func(rw http.ResponseWriter, r *http.Request) {
		rc := http.NewResponseController(rw)
		_ = rc.EnableFullDuplex()
		rw.Header().Set("Content-Type", "application/x-ndjson")
		rw.WriteHeader(http.StatusOK)
		_ = rc.Flush()
		go func() {
			dec := json.NewDecoder(r.Body)
			// Skip the query line, then collect every ack that survives
			// coalescing. The reader stops (and stops appending) as soon
			// as the freshest ack arrives, so the test can read `seen`
			// without racing once QueryStream returns.
			var q json.RawMessage
			if dec.Decode(&q) != nil {
				return
			}
			for {
				var a wireStreamAck
				if dec.Decode(&a) != nil {
					return
				}
				mu.Lock()
				seen = append(seen, a)
				fresh := a.Ack == frames
				mu.Unlock()
				if fresh {
					close(lastAcked)
					return
				}
			}
		}()
		enc := json.NewEncoder(rw)
		for seq := uint64(1); seq <= frames; seq++ {
			_ = enc.Encode(wireStreamFrame{Seq: seq, Stats: core.QueryStats{Evaluated: 1}})
			_ = rc.Flush()
		}
		<-lastAcked
		_ = enc.Encode(wireStreamFrame{Seq: frames + 1, Final: true, Items: []core.Result{}})
		_ = rc.Flush()
		drainBody(r)
	})
	transport, err := NewHTTP(context.Background(), []string{url}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer transport.Close()

	ctrl := &StreamControl{}
	q := core.Query{K: 3, Aggregate: core.Sum, Algorithm: core.AlgoBase}
	raised := 0
	_, err = transport.QueryStream(context.Background(), 0, q, ctrl, func(b StreamBatch) {
		// Tighten λ on every frame so coalesced acks have fresh state to
		// carry.
		raised++
		ctrl.Raise(float64(raised) / frames)
	})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) == 0 {
		t.Fatal("worker saw no acks at all")
	}
	var last wireStreamAck
	for _, a := range seen {
		if a.Ack < last.Ack || a.Floor < last.Floor || a.Granted < last.Granted || a.Answered < last.Answered {
			t.Fatalf("ack went backwards: %+v after %+v", a, last)
		}
		last = a
	}
	if last.Ack != frames || last.Floor != ctrl.Floor() {
		t.Fatalf("final coalesced ack %+v, coordinator floor %v — stale state won", last, ctrl.Floor())
	}
}
