package main

import (
	"encoding/json"
	"errors"
	"os"
	"testing"
	"time"

	"github.com/garnet-middleware/garnet/internal/filtering"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// isWrong reports whether err marks a wrong program output.
func isWrong(err error) bool {
	var ce *checkError
	return errors.As(err, &ce)
}

func TestFieldCheckerRejectsCorruptOutputs(t *testing.T) {
	spec := makeFieldSpec(7)
	out, _, err := fieldRound(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkField(spec, out); err != nil {
		t.Fatalf("clean round rejected: %v", err)
	}
	// Find a consumer holding at least two messages of one stream.
	c := -1
	for i, got := range out.got {
		if len(got) >= 2 && got[0].stream == got[1].stream {
			c = i
			break
		}
	}
	if c < 0 {
		t.Fatal("no consumer with two messages of one stream")
	}
	corrupt := map[string]func(o *fieldOutcome){
		"duplicate":    func(o *fieldOutcome) { o.got[c] = append(o.got[c], o.got[c][0]) },
		"missing":      func(o *fieldOutcome) { o.got[c] = o.got[c][1:] },
		"out of order": func(o *fieldOutcome) { o.got[c][0], o.got[c][1] = o.got[c][1], o.got[c][0] },
		"wrong payload": func(o *fieldOutcome) {
			o.bad[c] = 1
		},
		"foreign message": func(o *fieldOutcome) {
			o.got[c][len(o.got[c])-1].seq += 1000
		},
		"lost reception":    func(o *fieldOutcome) { o.snap.Filter.Received-- },
		"orphan undercount": func(o *fieldOutcome) { o.snap.Orphanage.TotalSeen-- },
	}
	for name, f := range corrupt {
		o := cloneField(out)
		f(o)
		if err := checkField(spec, o); !isWrong(err) {
			t.Errorf("%s: checker returned %v, want a wrong-output error", name, err)
		}
	}
}

func cloneField(o *fieldOutcome) *fieldOutcome {
	c := *o
	c.got = make([][]msgKey, len(o.got))
	for i := range o.got {
		c.got[i] = append([]msgKey(nil), o.got[i]...)
	}
	c.bad = append([]int(nil), o.bad...)
	return &c
}

func TestTracedFieldPipelineMatchesCore(t *testing.T) {
	spec := makeFieldSpec(11)
	ref, _, err := fieldRound(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTrace()
	out, _, err := fieldRound(spec, tr.tracer())
	if err != nil {
		t.Fatal(err)
	}
	if err := sameFieldOutput(ref, out); err != nil {
		t.Fatal(err)
	}
	if tr.totals(spFilterIngest).count != ref.snap.Filter.Received {
		t.Errorf("filter spans %d, receptions %d", tr.totals(spFilterIngest).count, ref.snap.Filter.Received)
	}
	out.snap.Dispatch.Delivered++
	if err := sameFieldOutput(ref, out); !isWrong(err) {
		t.Errorf("a drifted counter was not caught: %v", err)
	}
}

func TestStormConsumerRejectsCorruptDeliveries(t *testing.T) {
	id := wire.MustStreamID(42, 0)
	deliver := func(seq uint64, storeSeq uint64, payload []byte) filtering.Delivery {
		return filtering.Delivery{Msg: wire.Message{Stream: id, Seq: wire.Seq(seq), Payload: payload}, StoreSeq: storeSeq, At: time.Now()}
	}
	good := func(seq uint64) []byte { return payloadFor(nil, 5, id, seq) }
	cases := map[string][]filtering.Delivery{
		"clean":         {deliver(0, 1, good(0)), deliver(1, 2, good(1)), deliver(2, 3, good(2))},
		"duplicate":     {deliver(0, 1, good(0)), deliver(1, 2, good(1)), deliver(1, 2, good(1))},
		"out of order":  {deliver(0, 1, good(0)), deliver(2, 3, good(2)), deliver(1, 2, good(1))},
		"wrong payload": {deliver(0, 1, good(0)), deliver(1, 2, good(2)), deliver(2, 3, good(2))},
		"gap":           {deliver(0, 1, good(0)), deliver(2, 3, good(2)), deliver(3, 4, good(3))},
	}
	for name, ds := range cases {
		c := &stormConsumer{name: name, stream: id, seed: 5}
		c.ConsumeBatch(ds)
		if (c.errs == 0) != (name == "clean") {
			t.Errorf("%s: %d errors (%s)", name, c.errs, c.firstErr)
		}
	}
}

func TestStormCheckerRejectsCorruptOutputs(t *testing.T) {
	spec := makeStormSpec(3)
	out, _, err := stormRound(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkStorm(spec, out); err != nil {
		t.Fatalf("clean round rejected: %v", err)
	}
	out.dropped = 1
	if err := checkStorm(spec, out); !isWrong(err) {
		t.Errorf("a drop was not caught: %v", err)
	}
	out.dropped = 0
	out.consumers[0].delivered.Add(-1)
	if err := checkStorm(spec, out); !isWrong(err) {
		t.Errorf("a missing delivery was not caught: %v", err)
	}
	out.consumers[0].delivered.Add(1)
	out.consumers[0].errs = 1
	if err := checkStorm(spec, out); !isWrong(err) {
		t.Errorf("a bad delivery was not caught: %v", err)
	}
}

func TestArchiveCheckerClassifiesReplays(t *testing.T) {
	seq := func(from, to uint64) []uint64 {
		var s []uint64
		for i := from; i <= to; i++ {
			s = append(s, i)
		}
		return s
	}
	cases := []struct {
		name  string
		seqs  []uint64
		bad   int
		whole int
		wrong bool
	}{
		{"whole history", seq(0, 99), 0, 1, false},
		{"lost tail, then live", append(seq(0, 59), seq(80, 99)...), 0, 0, false},
		{"duplicate", append(seq(0, 59), seq(59, 99)...), 0, 0, true},
		{"out of order", append(append(seq(0, 10), 12, 11), seq(13, 99)...), 0, 0, true},
		{"second gap", append(append(seq(0, 9), seq(20, 29)...), seq(40, 99)...), 0, 0, true},
		{"short", seq(0, 98), 0, 0, true},
		{"not from zero", seq(1, 99), 0, 0, true},
		{"wrong payload", seq(0, 99), 1, 0, true},
	}
	for _, c := range cases {
		o := &archiveOutcome{recoveredOK: true, firstRange: 1, written: []uint64{100},
			joiners: []*archiveJoiner{{name: c.name, seqs: c.seqs, bad: c.bad}}}
		whole, err := checkArchive(o)
		if isWrong(err) != c.wrong || (!c.wrong && whole != c.whole) {
			t.Errorf("%s: whole=%d err=%v", c.name, whole, err)
		}
	}
	j := &archiveJoiner{name: "j", stream: archiveStreamIDs[0]}
	j.replayed.Store(-1)
	j.Consume(filtering.Delivery{Msg: wire.Message{Stream: archiveStreamIDs[0], Seq: 3, Payload: []byte("not the writer's")}, StoreSeq: 1})
	if j.bad != 1 {
		t.Errorf("joiner accepted a foreign payload")
	}
}

func TestChurnCheckerRejectsCorruptOutputs(t *testing.T) {
	spec := makeChurnSpec(5)
	out, _, err := churnRound(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkChurn(spec, out); err != nil {
		t.Fatalf("clean round rejected: %v", err)
	}
	corrupt := map[string]func(o *churnOutcome){
		"refused demand": func(o *churnOutcome) { o.refused = 1 },
		"expired":        func(o *churnOutcome) { o.snap.Actuation.Expired = 1 },
		"unacked":        func(o *churnOutcome) { o.snap.Actuation.Acked-- },
		"wrong period":   func(o *churnOutcome) { o.periods[3] += time.Millisecond },
	}
	for name, f := range corrupt {
		o := *out
		o.periods = append([]time.Duration(nil), out.periods...)
		f(&o)
		if err := checkChurn(spec, &o); !isWrong(err) {
			t.Errorf("%s: checker returned %v, want a wrong-output error", name, err)
		}
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTrace()
	x := tr.tracer()
	x.begin(spFilterIngest)
	time.Sleep(2 * time.Millisecond)
	x.begin(spStoreAppend)
	time.Sleep(3 * time.Millisecond)
	x.end()
	x.end()
	f, s := tr.totals(spFilterIngest), tr.totals(spStoreAppend)
	if f.count != 1 || s.count != 1 {
		t.Fatalf("counts %d/%d", f.count, s.count)
	}
	if f.selfNs != f.totalNs-s.totalNs || s.selfNs != s.totalNs {
		t.Errorf("self times %+v %+v", f, s)
	}
	if len(x.kept) != 2 || x.kept[1].parent != 0 || x.kept[0].parent != -1 {
		t.Errorf("span records %+v", x.kept)
	}
	var none *tracer
	none.begin(spFilterIngest) // a nil tracer records nothing
	none.end()
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metrics the
// command prints in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s vs %s", i, w.Name, workloads[i].name)
		}
	}
	var rep report
	var e endToEnd
	e.add(roundFigures{setup: time.Millisecond, timed: phase{ops: 1, wall: time.Second}})
	e.fill(&rep)
	if len(rep.metrics) != len(b.EndToEnd) {
		t.Errorf("%d end-to-end metrics printed, %d declared", len(rep.metrics), len(b.EndToEnd))
	}
	for _, m := range b.EndToEnd {
		if got, ok := rep.metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s/%s printed as %+v", m.Name, m.Unit, got)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d in code", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: %s/%s vs %s/%s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}
