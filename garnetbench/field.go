package main

import (
	"fmt"
	"time"

	"github.com/garnet-middleware/garnet/internal/core"
	"github.com/garnet-middleware/garnet/internal/dispatch"
	"github.com/garnet-middleware/garnet/internal/field"
	"github.com/garnet-middleware/garnet/internal/geo"
	"github.com/garnet-middleware/garnet/internal/radio"
	"github.com/garnet-middleware/garnet/internal/receiver"
	"github.com/garnet-middleware/garnet/internal/registry"
	"github.com/garnet-middleware/garnet/internal/sensor"
	"github.com/garnet-middleware/garnet/internal/sim"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// sensor_field: the paper's Figure 1 data path on a virtual clock in one
// goroutine. Static sensors sit under an 8×8 grid of overlapping
// receivers (each frame is heard about five times) on a jittered,
// lossless radio; consumers subscribe with Exact, BySensor and Where
// patterns and every other stream goes unclaimed into the orphanage.
const (
	fieldSensors    = 100
	fieldReceivers  = 64
	fieldRxRadius   = 130.0
	fieldTxRange    = 200.0
	fieldDuration   = 30 * time.Second
	fieldDrain      = 50 * time.Millisecond // > radio DelayMax: every copy lands
	fieldExactSubs  = 48
	fieldSensorSubs = 24
	fieldWhereSubs  = 6 // sensor id % fieldWhereMod == k for k < fieldWhereSubs
	fieldWhereMod   = 8
)

var simEpoch = time.Date(2003, 5, 19, 0, 0, 0, 0, time.UTC)

// fieldSpec is every input of one sensor_field round.
type fieldSpec struct {
	seed      uint64
	receivers []geo.Point
	sensors   []sensorSpec
	subs      []subSpec
	radio     radio.Params
}

type sensorSpec struct {
	id      wire.SensorID
	pos     geo.Point
	periods []time.Duration // one stream per entry, index = position
}

type subSpec struct {
	name   string
	kind   dispatch.PatternKind
	stream wire.StreamID // KindExact
	sensor wire.SensorID // KindSensor
	rem    uint32        // KindWhere: sensor % fieldWhereMod == rem
}

func (s subSpec) pattern() dispatch.Pattern {
	switch s.kind {
	case dispatch.KindExact:
		return dispatch.Exact(s.stream)
	case dispatch.KindSensor:
		return dispatch.BySensor(s.sensor)
	default:
		rem := s.rem
		return dispatch.Where(func(m wire.Message) bool { return uint32(m.Stream.Sensor())%fieldWhereMod == rem })
	}
}

// matches is the reference for which streams a subscription selects,
// written apart from the dispatcher's matching.
func (s subSpec) matches(id wire.StreamID) bool {
	switch s.kind {
	case dispatch.KindExact:
		return id == s.stream
	case dispatch.KindSensor:
		return id.Sensor() == s.sensor
	default:
		return uint32(id.Sensor())%fieldWhereMod == s.rem
	}
}

func makeFieldSpec(seed uint64) fieldSpec {
	r := newRng(seed, 1)
	spec := fieldSpec{
		seed:      seed,
		receivers: field.GridPositions(geo.RectWH(0, 0, 800, 800), fieldReceivers),
		radio: radio.Params{
			DelayMin: time.Millisecond,
			DelayMax: 10 * time.Millisecond,
			Seed:     sim.SubSeed(seed, "radio"),
		},
	}
	// The seed places the sensors and picks which third of them carry a
	// second stream and which period each stream samples at; the counts
	// of each are the same for every seed, so the work per round is too.
	periods := []time.Duration{31250 * time.Microsecond, 62500 * time.Microsecond, 125 * time.Millisecond}
	twoStreams := shuffled(r, fieldSensors)[:fieldSensors/3]
	nStreams := make([]int, fieldSensors)
	for i := range nStreams {
		nStreams[i] = 1
	}
	for _, i := range twoStreams {
		nStreams[i] = 2
	}
	order := shuffled(r, fieldSensors+len(twoStreams))
	var streams []wire.StreamID
	for i := 0; i < fieldSensors; i++ {
		s := sensorSpec{
			id:  wire.SensorID(i + 1),
			pos: geo.Pt(150+500*r.float(), 150+500*r.float()),
		}
		for k := 0; k < nStreams[i]; k++ {
			s.periods = append(s.periods, periods[order[len(streams)]%len(periods)])
			streams = append(streams, wire.MustStreamID(s.id, wire.StreamIndex(k)))
		}
		spec.sensors = append(spec.sensors, s)
	}
	for i := 0; i < fieldExactSubs; i++ {
		spec.subs = append(spec.subs, subSpec{
			name: fmt.Sprintf("exact-%d", i), kind: dispatch.KindExact, stream: streams[r.intn(len(streams))],
		})
	}
	for i := 0; i < fieldSensorSubs; i++ {
		spec.subs = append(spec.subs, subSpec{
			name: fmt.Sprintf("sensor-%d", i), kind: dispatch.KindSensor, sensor: wire.SensorID(1 + r.intn(fieldSensors)),
		})
	}
	for k := 0; k < fieldWhereSubs; k++ {
		spec.subs = append(spec.subs, subSpec{name: fmt.Sprintf("where-%d", k), kind: dispatch.KindWhere, rem: uint32(k)})
	}
	return spec
}

// source plays the sensors' hardware: it produces each stream's payloads
// and counts what was sampled, independently of the middleware.
type source struct {
	seed   uint64
	sent   map[wire.StreamID]int
	broken int // samples whose sequence did not follow the previous one
}

func (s *source) sampler(id wire.StreamID) sensor.Sampler {
	return func(_ time.Time, seq wire.Seq) []byte {
		if int(seq) != s.sent[id] {
			s.broken++
		}
		s.sent[id]++
		return payloadFor(make([]byte, 0, payloadLen), s.seed, id, uint64(seq))
	}
}

// fieldOutcome is what one round produced: the program's outputs and
// the counters the checker compares against the reference.
type fieldOutcome struct {
	got    [][]msgKey // per subscription, in delivery order
	bad    []int      // per subscription: payloads that were not the sampler's
	sent   map[wire.StreamID]int
	broken int
	snap   core.Snapshot
	events int
	bcasts int64
}

func (o *fieldOutcome) ops() int {
	n := 0
	for _, v := range o.sent {
		n += v
	}
	return n
}

// buildField assembles spec on h: receivers, sensors, consumers.
func buildField(h host, spec fieldSpec, src *source, tr *tracer) ([]*recorder, []*sensor.Node, error) {
	for i, p := range spec.receivers {
		h.addReceiver(receiver.Config{Name: fmt.Sprintf("rx-%d", i), Position: p, Radius: fieldRxRadius})
	}
	nodes := make([]*sensor.Node, 0, len(spec.sensors))
	for _, s := range spec.sensors {
		cfg := sensor.Config{ID: s.id, Mobility: field.Static{P: s.pos}, TxRange: fieldTxRange}
		for k, period := range s.periods {
			id := wire.MustStreamID(s.id, wire.StreamIndex(k))
			cfg.Streams = append(cfg.Streams, sensor.StreamConfig{
				Index: wire.StreamIndex(k), Sampler: src.sampler(id), Period: period, Enabled: true,
			})
		}
		n, err := h.addSensor(cfg)
		if err != nil {
			return nil, nil, err
		}
		nodes = append(nodes, n)
	}
	recs := make([]*recorder, len(spec.subs))
	for i, sub := range spec.subs {
		tok, err := h.register(sub.name, registry.PermSubscribe|registry.PermLocation)
		if err != nil {
			return nil, nil, err
		}
		recs[i] = &recorder{name: sub.name, seed: spec.seed, tr: tr}
		if err := h.subscribe(tok, sub.pattern(), recs[i]); err != nil {
			return nil, nil, err
		}
	}
	return recs, nodes, nil
}

// fieldRound runs one round on the facade (tr == nil) or on the
// benchmark's traced pipeline.
func fieldRound(spec fieldSpec, tr *tracer) (*fieldOutcome, roundFigures, error) {
	var fig roundFigures
	src := &source{seed: spec.seed, sent: make(map[wire.StreamID]int)}
	clock := sim.NewVirtualClock(simEpoch)

	t0 := time.Now()
	var h host
	if tr == nil {
		h = newFacadeHost(clock, spec.radio, []byte("garnetbench-field"))
	} else {
		h = newPipeline(clock, spec.radio, []byte("garnetbench-field"), tr)
	}
	recs, nodes, err := buildField(h, spec, src, tr)
	if err != nil {
		return nil, fig, err
	}
	h.start()
	fig.setup = time.Since(t0)

	out := &fieldOutcome{}
	a := takeProbe()
	out.events += h.runUntil(simEpoch.Add(fieldDuration))
	for _, n := range nodes {
		n.Stop()
	}
	out.events += h.runUntil(simEpoch.Add(fieldDuration + fieldDrain))
	b := takeProbe()
	out.sent, out.broken = src.sent, src.broken
	fig.timed = phaseBetween(a, b, out.ops())
	fig.heap = liveHeap()

	h.stop()
	out.snap = h.snapshot()
	out.bcasts = h.radioMedium().Metrics().Broadcasts.Value()
	for _, r := range recs {
		out.got = append(out.got, r.got)
		out.bad = append(out.bad, r.bad)
	}
	return out, fig, nil
}

// receiversInRange is the reference reception count for a sensor: the
// receivers whose zone holds it and that its transmitter reaches.
func receiversInRange(spec fieldSpec, pos geo.Point) int {
	n := 0
	for _, rx := range spec.receivers {
		dx, dy := pos.X-rx.X, pos.Y-rx.Y
		d2 := dx*dx + dy*dy
		if d2 <= fieldRxRadius*fieldRxRadius && d2 <= fieldTxRange*fieldTxRange {
			n++
		}
	}
	return n
}

// checkField compares a round's outputs with the reference computed from
// the spec's geometry and patterns and the source's sample counts.
func checkField(spec fieldSpec, o *fieldOutcome) error {
	if o.broken != 0 {
		return wrong("sensor_field: %d samples broke their stream's sequence", o.broken)
	}
	var received, delivered, orphaned, fanout int64
	want := make([][]msgKey, len(spec.subs))
	for _, s := range spec.sensors {
		rx := int64(receiversInRange(spec, s.pos))
		for k := range s.periods {
			id := wire.MustStreamID(s.id, wire.StreamIndex(k))
			n := o.sent[id]
			received += int64(n) * rx
			delivered += int64(n)
			claimed := false
			for i, sub := range spec.subs {
				if sub.matches(id) {
					claimed = true
					for q := 0; q < n; q++ {
						want[i] = append(want[i], msgKey{id, wire.Seq(q)})
					}
					fanout += int64(n)
				}
			}
			if !claimed {
				orphaned += int64(n)
			}
		}
	}
	if delivered == 0 {
		return wrong("sensor_field: the sensors sent nothing")
	}
	for i, sub := range spec.subs {
		if err := checkDeliveries(sub.name, o.got[i], want[i]); err != nil {
			return err
		}
		if o.bad[i] != 0 {
			return wrong("sensor_field: consumer %s got %d payloads the sampler did not produce", sub.name, o.bad[i])
		}
	}
	f := o.snap.Filter
	if f.Received != received {
		return wrong("sensor_field: filter received %d receptions, geometry says %d", f.Received, received)
	}
	if f.Delivered != delivered {
		return wrong("sensor_field: filter delivered %d unique messages, sensors sent %d", f.Delivered, delivered)
	}
	if f.Received != f.Delivered+f.Duplicates+f.Stale {
		return wrong("sensor_field: filter received %d != delivered %d + duplicates %d + stale %d",
			f.Received, f.Delivered, f.Duplicates, f.Stale)
	}
	if a := o.snap.Store.Appended; a != delivered {
		return wrong("sensor_field: store appended %d, want %d", a, delivered)
	}
	if d := o.snap.Dispatch; d.Dispatched != delivered || d.Orphaned != orphaned || d.Delivered != fanout {
		return wrong("sensor_field: dispatch dispatched/orphaned/delivered %d/%d/%d, want %d/%d/%d",
			d.Dispatched, d.Orphaned, d.Delivered, delivered, orphaned, fanout)
	}
	if seen := o.snap.Orphanage.TotalSeen; seen != orphaned {
		return wrong("sensor_field: orphanage saw %d, want %d", seen, orphaned)
	}
	return nil
}

// checkDeliveries requires got to hold exactly the messages of want,
// each once, and every stream's messages in ascending order.
func checkDeliveries(name string, got, want []msgKey) error {
	last := make(map[wire.StreamID]wire.Seq)
	for _, k := range got {
		if prev, ok := last[k.stream]; ok && k.seq <= prev {
			return wrong("consumer %s: stream %v seq %d delivered after %d", name, k.stream, k.seq, prev)
		}
		last[k.stream] = k.seq
	}
	sorted := append([]msgKey(nil), got...)
	sortKeys(sorted)
	if len(sorted) != len(want) {
		return wrong("consumer %s: got %d messages, want %d", name, len(sorted), len(want))
	}
	for i := range want {
		if sorted[i] != want[i] {
			return wrong("consumer %s: message %d is %v/%d, want %v/%d",
				name, i, sorted[i].stream, sorted[i].seq, want[i].stream, want[i].seq)
		}
	}
	return nil
}

// sameFieldOutput requires the traced pipeline's round to equal core's:
// the same set of deliveries to every consumer and the same filter,
// store, dispatch and orphanage counters. Sets, not sequences: a
// sensor's streams that sample at the same instant reach the medium in
// an order that can differ from run to run even within core (the node
// arms its stream tickers in map order).
func sameFieldOutput(ref, got *fieldOutcome) error {
	for i := range ref.got {
		a := append([]msgKey(nil), ref.got[i]...)
		b := append([]msgKey(nil), got.got[i]...)
		sortKeys(a)
		sortKeys(b)
		if len(a) != len(b) {
			return wrong("traced pipeline: consumer %d got %d deliveries, core %d", i, len(b), len(a))
		}
		for j := range a {
			if a[j] != b[j] {
				return wrong("traced pipeline: consumer %d delivery %d is %v/%d, core's %v/%d",
					i, j, b[j].stream, b[j].seq, a[j].stream, a[j].seq)
			}
		}
	}
	if err := sameCounters(ref.snap, got.snap); err != nil {
		return err
	}
	if ref.events != got.events {
		return wrong("traced pipeline: %d clock events, core %d", got.events, ref.events)
	}
	return nil
}

// sameCounters compares the data-path and control-path counters two
// assemblies reported for the same inputs.
func sameCounters(a, b core.Snapshot) error {
	type pair struct {
		name string
		x, y int64
	}
	for _, p := range []pair{
		{"filter.received", a.Filter.Received, b.Filter.Received},
		{"filter.delivered", a.Filter.Delivered, b.Filter.Delivered},
		{"filter.duplicates", a.Filter.Duplicates, b.Filter.Duplicates},
		{"filter.stale", a.Filter.Stale, b.Filter.Stale},
		{"store.appended", a.Store.Appended, b.Store.Appended},
		{"store.retained", a.Store.RetainedMessages, b.Store.RetainedMessages},
		{"dispatch.dispatched", a.Dispatch.Dispatched, b.Dispatch.Dispatched},
		{"dispatch.delivered", a.Dispatch.Delivered, b.Dispatch.Delivered},
		{"dispatch.orphaned", a.Dispatch.Orphaned, b.Dispatch.Orphaned},
		{"orphanage.seen", a.Orphanage.TotalSeen, b.Orphanage.TotalSeen},
		{"orphanage.dropped", a.Orphanage.MessagesDropped, b.Orphanage.MessagesDropped},
		{"resource.submitted", a.Resource.Submitted, b.Resource.Submitted},
		{"actuation.issued", a.Actuation.Issued, b.Actuation.Issued},
		{"actuation.acked", a.Actuation.Acked, b.Actuation.Acked},
		{"actuation.retries", a.Actuation.Retries, b.Actuation.Retries},
		{"replicator.broadcasts", a.Replicator.Broadcasts, b.Replicator.Broadcasts},
	} {
		if p.x != p.y {
			return wrong("traced pipeline: %s is %d, core's is %d", p.name, p.y, p.x)
		}
	}
	return nil
}

func runSensorField(cfg config) (*report, error) {
	spec := makeFieldSpec(cfg.seed)
	rep := &report{notes: []string{hostNote()}}
	if !cfg.trace {
		var e2e endToEnd
		err := rounds(cfg, 4, func(int) error {
			out, fig, err := fieldRound(spec, nil)
			if err != nil {
				return err
			}
			rep.attempted += int64(out.ops())
			e2e.add(fig)
			return checkField(spec, out)
		})
		e2e.fill(rep)
		return rep, err
	}

	// Traced: alternate an untraced core round (the reference and the
	// overhead baseline) with a traced pipeline round on the same inputs.
	tr := newTrace()
	var plain, traced endToEnd
	var events, ops, bcasts float64
	var accept []float64
	err := rounds(cfg, 2, func(int) error {
		ref, fig, err := fieldRound(spec, nil)
		if err != nil {
			return err
		}
		rep.attempted += int64(ref.ops())
		plain.add(fig)
		if err := checkField(spec, ref); err != nil {
			return err
		}
		out, fig, err := fieldRound(spec, tr.tracer())
		if err != nil {
			return err
		}
		rep.attempted += int64(out.ops())
		traced.add(fig)
		if err := checkField(spec, out); err != nil {
			return err
		}
		events += float64(out.events)
		ops += float64(out.ops())
		bcasts += float64(out.bcasts)
		accept = append(accept, ratio(float64(out.snap.Filter.Delivered), float64(out.snap.Filter.Received)))
		return sameFieldOutput(ref, out)
	})
	fillPerLayerDefaults(rep)
	plain.fillRuntime(rep)
	rep.set("trace.overhead_ratio", "ratio", ratio(plain.opsPerSecond(), traced.opsPerSecond()))
	rep.set("sim.events_per_op", "count", ratio(events, ops))
	rep.set("sim.drive_self_ns_per_op", "ns", ratio(float64(tr.totals(spSimDrive).selfNs), ops))
	rep.set("radio.broadcasts_per_op", "count", ratio(bcasts, ops))
	rep.set("location.observe_ns", "ns", tr.meanNs(spLocationObserve))
	rep.set("filtering.ingest_self_ns", "ns", tr.meanSelfNs(spFilterIngest))
	rep.set("filtering.accept_ratio", "ratio", median(accept))
	rep.set("store.append_ns", "ns", tr.meanNs(spStoreAppend))
	rep.set("dispatch.dispatch_self_ns", "ns", tr.meanSelfNs(spDispatch))
	rep.set("orphanage.consume_ns", "ns", tr.meanNs(spOrphanConsume))
	rep.notes = append(rep.notes, traceNotes(cfg, "sensor_field", tr, plain, traced)...)
	return rep, err
}
