package main

import (
	"bytes"
	"strconv"
	"testing"
	"time"
)

func testPlan(t *testing.T, name string, seed int64) []byte {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	ds := loadDataset()
	return encodePlan(makePlan(w, seed, ds, 3*time.Second, 2*time.Second))
}

// The same seed must send byte-identical requests and batches; another
// seed must send different ones.
func TestPlanIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := testPlan(t, w.name, 7), testPlan(t, w.name, 7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different streams", w.name)
		}
		if c := testPlan(t, w.name, 8); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w.name)
		}
	}
}

// sharded-read prices sharding against cold-read, so both must send the
// same stream for one seed.
func TestShardedReadSendsColdReadStream(t *testing.T) {
	if !bytes.Equal(testPlan(t, "cold-read", 3), testPlan(t, "sharded-read", 3)) {
		t.Error("cold-read and sharded-read streams differ for seed 3")
	}
}

// Cold streams never repeat a query on one serving instance, so every
// request misses the cache.
func TestColdStreamsAreDistinct(t *testing.T) {
	w, _ := workloadByName("cold-read")
	ds := loadDataset()
	p := makePlan(w, 11, ds, 12*time.Second, 8*time.Second)
	for name, ph := range map[string]phase{"open": p.open, "capacity": p.capacity} {
		seen := map[string]bool{}
		for _, o := range append(append([]*op(nil), ph.warm...), ph.timed...) {
			if seen[o.key] {
				t.Fatalf("%s phase repeats query %s", name, o.body)
			}
			seen[o.key] = true
		}
	}
}

// A generator whose keys run out stops with a panic rather than drawing
// forever: 9 in 16 queries are auto SUM, which has maxK keys.
func TestQueryGenStopsWhenKeysRunOut(t *testing.T) {
	g := newQueryGen(1, 20000)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
		if n := len(g.seen); n < maxK {
			t.Fatalf("gave up after %d queries", n)
		}
	}()
	for i := 0; i < 4*maxK; i++ {
		g.next()
	}
}

// The read-write stream carries both batch kinds, in due order.
func TestReadWriteStreamMixesBatches(t *testing.T) {
	w, _ := workloadByName("read-write")
	ds := loadDataset()
	ph := makePhase(w, 5, ds, 60*time.Second, false)
	kinds := map[opKind]int{}
	var last time.Duration
	for _, o := range ph.timed {
		kinds[o.kind]++
		if o.at < last {
			t.Fatalf("operation at %v follows one at %v", o.at, last)
		}
		last = o.at
	}
	if kinds[opScores] == 0 || kinds[opEdges] == 0 || kinds[opQuery] == 0 {
		t.Fatalf("stream kinds %v lack a kind", kinds)
	}
}

// encodePlan serializes every operation of a plan, in send order, with
// its due time: the byte stream lonad would receive.
func encodePlan(p plan) []byte {
	var b []byte
	for _, ph := range []phase{p.open, p.capacity} {
		for _, list := range [][]*op{ph.warm, ph.timed} {
			for _, o := range list {
				b = strconv.AppendInt(b, int64(o.at), 10)
				b = append(b, ' ')
				b = append(b, o.kind.path()...)
				b = append(b, ' ')
				b = append(b, o.body...)
				b = append(b, '\n')
			}
		}
	}
	return b
}
