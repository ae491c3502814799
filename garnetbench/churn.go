package main

import (
	"fmt"
	"time"

	"github.com/garnet-middleware/garnet/internal/core"
	"github.com/garnet-middleware/garnet/internal/field"
	"github.com/garnet-middleware/garnet/internal/geo"
	"github.com/garnet-middleware/garnet/internal/radio"
	"github.com/garnet-middleware/garnet/internal/receiver"
	"github.com/garnet-middleware/garnet/internal/registry"
	"github.com/garnet-middleware/garnet/internal/resource"
	"github.com/garnet-middleware/garnet/internal/sensor"
	"github.com/garnet-middleware/garnet/internal/sim"
	"github.com/garnet-middleware/garnet/internal/transmit"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// demand_churn: the return path on a virtual clock. Consumers with
// conflicting standing demands on receive-capable sensors re-submit
// rate demands through Actuate; each demand passes the registry token
// check and resource mediation, changed settings are issued by the
// actuation service, the targeted replicator hands them to the
// transmitters, the downlink carries them, the sensor applies them and
// its ack rides back piggybacked on the next data message. A sensor is
// re-targeted only every churnSpacing steps, long after its previous
// request was acked, so the ack path keeps up.
const (
	churnSensors    = 100
	churnReceivers  = 16
	churnTxs        = 9
	churnConsumers  = 3
	churnSteps      = 48
	churnStep       = 5 * time.Second
	churnSpacing    = 4 // a sensor is targeted every churnSpacing steps
	churnDrainLimit = 60 * time.Second
	churnLocateStep = 100 * time.Millisecond
)

// churnRates are the demanded sampling rates in mHz. Every period they
// give is shorter than the actuation retry interval (2 s): a sensor
// restarts its sampling timer on each copy of a rate change it hears,
// so a period of 2 s or more is pushed out by every retry and the
// request can never be acked (see README, "Known costs and faults").
var churnRates = []uint32{1000, 1250, 2000, 2500}

// churnSpec is every input of one demand_churn round.
type churnSpec struct {
	seed    uint64
	sensors []geo.Point
	demands [][]churnDemand // per step
	radio   radio.Params
	rxPos   []geo.Point
	txPos   []geo.Point
}

type churnDemand struct {
	consumer int
	sensor   int
	rate     uint32
}

func makeChurnSpec(seed uint64) churnSpec {
	r := newRng(seed, 4)
	bounds := geo.RectWH(0, 0, 500, 500)
	spec := churnSpec{
		seed:  seed,
		rxPos: field.GridPositions(bounds, churnReceivers),
		txPos: field.GridPositions(bounds, churnTxs),
		radio: radio.Params{DelayMin: time.Millisecond, DelayMax: 10 * time.Millisecond, Seed: sim.SubSeed(seed, "radio")},
	}
	for i := 0; i < churnSensors; i++ {
		spec.sensors = append(spec.sensors, geo.Pt(50+400*r.float(), 50+400*r.float()))
	}
	// Each step demands every rate equally often; the seed picks which
	// sensor gets which rate and which consumer asks.
	for s := 0; s < churnSteps; s++ {
		var step []churnDemand
		rates := shuffled(r, churnSensors/churnSpacing)
		for i := s % churnSpacing; i < churnSensors; i += churnSpacing {
			rate := churnRates[rates[len(step)]%len(churnRates)]
			step = append(step, churnDemand{consumer: r.intn(churnConsumers), sensor: i, rate: rate})
		}
		spec.demands = append(spec.demands, step)
	}
	return spec
}

func churnStream(i int) wire.StreamID { return wire.MustStreamID(wire.SensorID(i+1), 0) }

// churnOutcome is what one round produced.
type churnOutcome struct {
	demands    int
	refused    int // demands that errored or were denied
	snap       core.Snapshot
	periods    []time.Duration // final sampling period per sensor
	ackMsP50   float64
	events     int
	bcasts     int64
	deliveries int64 // radio copies delivered, both bands
	uplink     int64 // copies heard by receivers
	drained    bool
}

func churnRound(spec churnSpec, tr *tracer) (*churnOutcome, roundFigures, error) {
	var fig roundFigures
	src := &source{seed: spec.seed, sent: make(map[wire.StreamID]int)}
	clock := sim.NewVirtualClock(simEpoch)
	secret := []byte("garnetbench-churn")

	t0 := time.Now()
	var h host
	if tr == nil {
		h = newFacadeHost(clock, spec.radio, secret)
	} else {
		h = newPipeline(clock, spec.radio, secret, tr)
	}
	for i, p := range spec.rxPos {
		h.addReceiver(receiver.Config{Name: fmt.Sprintf("rx-%d", i), Position: p, Radius: 200})
	}
	for i, p := range spec.txPos {
		h.addTransmitter(transmit.Config{Name: fmt.Sprintf("tx-%d", i), Position: p, Range: 250})
	}
	nodes := make([]*sensor.Node, churnSensors)
	for i, p := range spec.sensors {
		id := churnStream(i)
		n, err := h.addSensor(sensor.Config{
			ID: id.Sensor(), Capabilities: sensor.CapReceive, Mobility: field.Static{P: p}, TxRange: 250,
			Streams: []sensor.StreamConfig{{Index: 0, Sampler: src.sampler(id), Period: time.Second, Enabled: true}},
		})
		if err != nil {
			return nil, fig, err
		}
		nodes[i] = n
	}
	toks := make([]registry.Token, churnConsumers)
	for c := range toks {
		tok, err := h.register(fmt.Sprintf("app-%d", c), registry.PermSubscribe|registry.PermActuate)
		if err != nil {
			return nil, fig, err
		}
		toks[c] = tok
	}
	h.start()
	// The field is ready to actuate once the location service has placed
	// every sensor, so that the replicator can target it.
	out := &churnOutcome{}
	now := simEpoch
	loc := h.location()
	for i := 0; i < churnSensors; {
		if _, err := loc.Locate(churnStream(i).Sensor()); err == nil {
			i++
			continue
		}
		if now.Sub(simEpoch) > churnDrainLimit {
			return nil, fig, fmt.Errorf("demand_churn: sensor %d never located", i+1)
		}
		now = now.Add(churnLocateStep)
		out.events += h.runUntil(now)
	}
	fig.setup = time.Since(t0)

	a := takeProbe()
	for _, step := range spec.demands {
		for _, d := range step {
			dec, err := h.actuate(toks[d.consumer], resource.Demand{Target: churnStream(d.sensor), Op: wire.OpSetRate, Value: d.rate})
			out.demands++
			if err != nil || dec.Verdict == resource.VerdictDenied {
				out.refused++
			}
		}
		now = now.Add(churnStep)
		out.events += h.runUntil(now)
	}
	acts := h.actuation()
	for limit := now.Add(churnDrainLimit); acts.Outstanding() > 0 && now.Before(limit); {
		now = now.Add(time.Second)
		out.events += h.runUntil(now)
	}
	out.drained = acts.Outstanding() == 0
	b := takeProbe()
	fig.timed = phaseBetween(a, b, out.demands)
	fig.heap = liveHeap()

	for _, n := range nodes {
		p, _ := n.StreamPeriod(0)
		out.periods = append(out.periods, p)
	}
	out.ackMsP50 = acts.Latency().Percentile(50)
	h.stop()
	out.snap = h.snapshot()
	m := h.radioMedium().Metrics()
	out.bcasts, out.deliveries = m.Broadcasts.Value(), m.Deliveries.Value()
	if p, ok := h.(*pipeline); ok {
		for _, rx := range p.receivers {
			out.uplink += rx.Stats().FramesHeard
		}
	}
	return out, fig, nil
}

// checkChurn requires every demand accepted, every issued request acked
// and none expired, and each sensor's final period to be the
// most-demanding merge of the demands last submitted on it.
func checkChurn(spec churnSpec, o *churnOutcome) error {
	if o.refused != 0 {
		return wrong("demand_churn: %d of %d demands refused", o.refused, o.demands)
	}
	a := o.snap.Actuation
	if !o.drained || a.Issued == 0 || a.Acked != a.Issued || a.Expired != 0 || a.Cancelled != 0 {
		return wrong("demand_churn: issued %d, acked %d, expired %d, cancelled %d, drained %v",
			a.Issued, a.Acked, a.Expired, a.Cancelled, o.drained)
	}
	last := make([][churnConsumers]uint32, churnSensors)
	for _, step := range spec.demands {
		for _, d := range step {
			last[d.sensor][d.consumer] = d.rate
		}
	}
	for i, standing := range last {
		var top uint32
		for _, r := range standing {
			top = max(top, r)
		}
		want := time.Second // never demanded: the configured period
		if top > 0 {
			want = time.Duration(1e12 / float64(top))
		}
		if o.periods[i] != want {
			return wrong("demand_churn: sensor %d samples every %v, the merged demands ask for %v", i+1, o.periods[i], want)
		}
	}
	return nil
}

func runDemandChurn(cfg config) (*report, error) {
	spec := makeChurnSpec(cfg.seed)
	rep := &report{notes: []string{hostNote()}}
	if !cfg.trace {
		var e2e endToEnd
		err := rounds(cfg, 4, func(int) error {
			out, fig, err := churnRound(spec, nil)
			if err != nil {
				return err
			}
			rep.attempted += int64(out.demands)
			e2e.add(fig)
			return checkChurn(spec, out)
		})
		e2e.fill(rep)
		return rep, err
	}

	tr := newTrace()
	var plain, traced endToEnd
	var events, ops, bcasts, downlink, controls float64
	var ackMs []float64
	var last core.Snapshot
	err := rounds(cfg, 2, func(int) error {
		ref, fig, err := churnRound(spec, nil)
		if err != nil {
			return err
		}
		rep.attempted += int64(ref.demands)
		plain.add(fig)
		if err := checkChurn(spec, ref); err != nil {
			return err
		}
		out, fig, err := churnRound(spec, tr.tracer())
		if err != nil {
			return err
		}
		rep.attempted += int64(out.demands)
		traced.add(fig)
		if err := checkChurn(spec, out); err != nil {
			return err
		}
		events += float64(out.events)
		ops += float64(out.demands)
		bcasts += float64(out.bcasts)
		downlink += float64(out.deliveries - out.uplink)
		controls += float64(out.snap.Replicator.Requests)
		ackMs = append(ackMs, out.ackMsP50)
		last = out.snap
		if err := sameCounters(ref.snap, out.snap); err != nil {
			return err
		}
		for i := range ref.periods {
			if ref.periods[i] != out.periods[i] {
				return wrong("traced pipeline: sensor %d period %v, core's %v", i+1, out.periods[i], ref.periods[i])
			}
		}
		if ref.events != out.events {
			return wrong("traced pipeline: %d clock events, core %d", out.events, ref.events)
		}
		return nil
	})
	fillPerLayerDefaults(rep)
	plain.fillRuntime(rep)
	a, rp := last.Actuation, last.Replicator
	rep.set("trace.overhead_ratio", "ratio", ratio(plain.opsPerSecond(), traced.opsPerSecond()))
	rep.set("sim.events_per_op", "count", ratio(events, ops))
	rep.set("sim.drive_self_ns_per_op", "ns", ratio(float64(tr.totals(spSimDrive).selfNs), ops))
	rep.set("radio.broadcasts_per_op", "count", ratio(bcasts, ops))
	rep.set("radio.downlink_copies_per_control", "count", ratio(downlink, controls))
	rep.set("registry.require_ns", "ns", tr.meanNs(spRegistryRequire))
	rep.set("resource.submit_ns", "ns", tr.meanNs(spResourceSubmit))
	rep.set("actuation.issue_ns", "ns", tr.meanSelfNs(spActuationIssue))
	rep.set("actuation.attempts_per_request", "ratio", ratio(float64(a.Issued+a.Retries), float64(a.Issued)))
	rep.set("actuation.ack_sim_ms_p50", "ms", median(ackMs))
	rep.set("replicator.tx_per_control", "count", ratio(float64(rp.Broadcasts), float64(rp.Requests)))
	rep.set("replicator.targeted_ratio", "ratio", ratio(float64(rp.Targeted), float64(rp.Requests)))
	rep.notes = append(rep.notes, traceNotes(cfg, "demand_churn", tr, plain, traced)...)
	return rep, err
}
