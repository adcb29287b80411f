package main

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/server"
)

// answerBody encodes an answer the way lonad's /v1/topk does.
func answerBody(t *testing.T, gen uint64, res []core.Result) string {
	t.Helper()
	b, err := json.Marshal(server.Answer{Generation: gen, Algorithm: "Base", Results: res})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func engineResults(t *testing.T, ds *dataset, scores []float64, o *op) []core.Result {
	t.Helper()
	eng, err := core.NewEngine(ds.g, scores, dataH)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := eng.Run(context.Background(), coreQuery(o.q))
	if err != nil {
		t.Fatal(err)
	}
	return ans.Results
}

// The oracle accepts the engine's answer, flags a reordered one, and
// checks an answer stamped with a later generation against the state
// the acknowledged batches produced.
func TestVerifyChecksAnswersAtTheirGeneration(t *testing.T) {
	ds := loadDataset()
	o := newQueryOp(server.QueryRequest{K: 20, Aggregate: "sum", Algorithm: "auto"})
	res := engineResults(t, ds, ds.scores, o)
	swapped := append([]core.Result(nil), res...)
	swapped[0], swapped[1] = swapped[1], swapped[0]

	batch := &op{kind: opScores}
	updated := append([]float64(nil), ds.scores...)
	for v := 0; v < 64; v++ {
		batch.scores = append(batch.scores, server.ScoreUpdate{Node: v, Score: 1})
		updated[v] = 1
	}
	after := engineResults(t, ds, updated, o)
	if a, b := answerBody(t, 1, res), answerBody(t, 1, after); a == b {
		t.Fatal("the batch does not change the answer; pick another")
	}

	recs := []record{
		{o: o, status: 200, body: answerBody(t, 0, res)},
		{o: o, status: 200, body: answerBody(t, 0, swapped)},
		{o: batch, status: 200, body: `{"generation":1}`},
		{o: o, status: 200, body: answerBody(t, 1, after)},
		{o: o, status: 200, body: answerBody(t, 1, res)}, // stale: generation 0's answer
	}
	v, err := verify(ds, recs)
	if err != nil {
		t.Fatal(err)
	}
	if v.wrong != 2 || v.tieOrder != 0 {
		t.Fatalf("wrong %d, tie order %d; want 2 and 0", v.wrong, v.tieOrder)
	}
	for i, want := range []bool{true, false, true, true, false} {
		if got := recs[i].ok(); got != want {
			t.Errorf("record %d ok = %v, want %v", i, got, want)
		}
	}
}

// An answer that orders nodes of equal value unlike Base is counted
// apart; one that lists a node under a value it does not have is wrong.
func TestVerifyExcusesOnlyTieOrder(t *testing.T) {
	ds := loadDataset()
	o := newQueryOp(server.QueryRequest{K: maxK, Aggregate: "avg", Algorithm: "base"})
	res := engineResults(t, ds, ds.scores, o)
	tie := -1
	for i := 1; i < len(res); i++ {
		if res[i].Value == res[i-1].Value {
			tie = i
			break
		}
	}
	if tie < 0 {
		t.Fatal("no tie in the AVG top-300; pick another query")
	}
	swapped := append([]core.Result(nil), res...)
	swapped[tie-1], swapped[tie] = swapped[tie], swapped[tie-1]
	// A node from outside the top-k given the value of rank 1.
	forged := append([]core.Result(nil), res...)
	forged[0].Node = engineResults(t, ds, ds.scores,
		newQueryOp(server.QueryRequest{K: maxK + 1, Aggregate: "avg", Algorithm: "base"}))[maxK].Node

	recs := []record{
		{o: o, status: 200, body: answerBody(t, 0, swapped)},
		{o: o, status: 200, body: answerBody(t, 0, forged)},
	}
	v, err := verify(ds, recs)
	if err != nil {
		t.Fatal(err)
	}
	if v.tieOrder != 1 || v.wrong != 1 || !recs[0].ok() || recs[1].ok() {
		t.Fatalf("tie order %d, wrong %d, ok %v %v; want 1, 1, true, false",
			v.tieOrder, v.wrong, recs[0].ok(), recs[1].ok())
	}
}
