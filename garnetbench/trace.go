package main

import (
	"bufio"
	"fmt"
	"os"
	"sync/atomic"
	"time"
)

// Span names. A span covers one call the benchmark makes into a layer;
// spans nest when the call re-enters benchmark code (a sink or consumer
// callback), so a layer's self time is its span minus its children.
const (
	spSimDrive = iota
	spLocationObserve
	spFilterIngest
	spStoreAppend
	spDispatch
	spConsume
	spOrphanConsume
	spHandleAck
	spRegistryRequire
	spResourceSubmit
	spActuationIssue
	spReplicatorSend
	spCoreInject
	spWireEncode
	spWireDecode
	spSubscribeReplay
	spStoreRange
	spArchiveOpen
	spStoreRecover
	spanKinds
)

var spanNames = [spanKinds]string{
	"sim.drive", "location.observe", "filtering.ingest", "store.append",
	"dispatch.dispatch", "consumer.consume", "orphanage.consume", "actuation.handle_ack",
	"registry.require", "resource.submit", "actuation.issue", "replicator.send",
	"core.inject", "wire.encode", "wire.decode", "dispatch.subscribe_replay",
	"store.range", "archive.open", "store.recover",
}

// maxKeptSpans bounds the raw span records one traced run keeps for the
// dump (about 6 MiB); the per-name totals cover every span regardless.
const maxKeptSpans = 1 << 18

// spanRec is one recorded span. Parent indexes the same tracer's
// records, -1 for a root or a parent that was not kept.
type spanRec struct {
	name       uint8
	start, end int64 // ns since the tracer's epoch
	parent     int32
}

type openSpan struct {
	name    uint8
	start   int64
	childNs int64
	rec     int32
}

// spanTotals aggregates every span of one name.
type spanTotals struct {
	count   int64
	totalNs int64
	selfNs  int64
}

// tracer records spans for one goroutine. A nil *tracer records nothing,
// which is how the untraced runs call the same code.
type tracer struct {
	epoch  time.Time
	budget *atomic.Int64 // span records the whole trace may still keep
	stack  []openSpan
	totals [spanKinds]spanTotals
	kept   []spanRec
}

func (t *tracer) begin(name int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	rec := int32(-1)
	if t.budget.Load() > 0 && t.budget.Add(-1) >= 0 {
		parent := int32(-1)
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].rec
		}
		rec = int32(len(t.kept))
		t.kept = append(t.kept, spanRec{name: uint8(name), start: now, parent: parent})
	}
	t.stack = append(t.stack, openSpan{name: uint8(name), start: now, rec: rec})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	n := len(t.stack) - 1
	s := t.stack[n]
	t.stack = t.stack[:n]
	dur := now - s.start
	tot := &t.totals[s.name]
	tot.count++
	tot.totalNs += dur
	tot.selfNs += dur - s.childNs
	if n > 0 {
		t.stack[n-1].childNs += dur
	}
	if s.rec >= 0 {
		t.kept[s.rec].end = now
	}
}

// trace groups the tracers of one traced run.
type trace struct {
	epoch   time.Time
	budget  atomic.Int64
	tracers []*tracer
}

func newTrace() *trace {
	tr := &trace{epoch: time.Now()}
	tr.budget.Store(maxKeptSpans)
	return tr
}

// tracer returns a fresh tracer for one goroutine; nil when tr is nil.
func (tr *trace) tracer() *tracer {
	if tr == nil {
		return nil
	}
	t := &tracer{epoch: tr.epoch, budget: &tr.budget}
	tr.tracers = append(tr.tracers, t)
	return t
}

// totals sums every tracer's aggregate for one span name.
func (tr *trace) totals(name int) spanTotals {
	var s spanTotals
	for _, t := range tr.tracers {
		s.count += t.totals[name].count
		s.totalNs += t.totals[name].totalNs
		s.selfNs += t.totals[name].selfNs
	}
	return s
}

// meanNs is the mean duration of one span name's spans.
func (tr *trace) meanNs(name int) float64 {
	s := tr.totals(name)
	return ratio(float64(s.totalNs), float64(s.count))
}

// meanSelfNs is the mean self time of one span name's spans.
func (tr *trace) meanSelfNs(name int) float64 {
	s := tr.totals(name)
	return ratio(float64(s.selfNs), float64(s.count))
}

// dump writes the kept spans as tab-separated lines
// "tracer name start_ns end_ns parent" to path.
func (tr *trace) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "tracer\tname\tstart_ns\tend_ns\tparent")
	for i, t := range tr.tracers {
		for _, s := range t.kept {
			fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\n", i, spanNames[s.name], s.start, s.end, s.parent)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
