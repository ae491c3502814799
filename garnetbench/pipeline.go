package main

import (
	"time"

	"github.com/garnet-middleware/garnet/internal/actuation"
	"github.com/garnet-middleware/garnet/internal/core"
	"github.com/garnet-middleware/garnet/internal/dispatch"
	"github.com/garnet-middleware/garnet/internal/filtering"
	"github.com/garnet-middleware/garnet/internal/location"
	"github.com/garnet-middleware/garnet/internal/orphanage"
	"github.com/garnet-middleware/garnet/internal/radio"
	"github.com/garnet-middleware/garnet/internal/receiver"
	"github.com/garnet-middleware/garnet/internal/registry"
	"github.com/garnet-middleware/garnet/internal/replicator"
	"github.com/garnet-middleware/garnet/internal/resource"
	"github.com/garnet-middleware/garnet/internal/sensor"
	"github.com/garnet-middleware/garnet/internal/sim"
	"github.com/garnet-middleware/garnet/internal/store"
	"github.com/garnet-middleware/garnet/internal/transmit"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// pipeline is the serial Figure 1 assembly built from the same public
// constructors core.New uses, with the defaults the facade selects
// (targeted replicator, synchronous dispatch, serial ingest). The traced
// runs of sensor_field and demand_churn drive it instead of
// core.Deployment so that every hand-off between layers is a call the
// benchmark makes and can wrap in a span:
//
//	receiver sink → location.ObserveReception + filtering.Ingest →
//	store.Append + dispatch.Dispatch → consumer | orphanage
//	registry.Require → resource.Submit → actuation.Issue → replicator.Send
//
// Its outputs must equal core's on the same inputs; the traced runs
// check that, so the copy cannot silently drift from internal/core.
type pipeline struct {
	tr     *tracer
	clock  *sim.VirtualClock
	medium *radio.Medium
	filter *filtering.Filter
	st     *store.Store
	disp   *dispatch.Dispatcher
	orph   *orphanage.Orphanage
	loc    *location.Service
	reg    *registry.Registry
	rm     *resource.Manager
	acts   *actuation.Service
	repl   *replicator.Replicator

	receivers []*receiver.Receiver
	sensors   []*sensor.Node
}

func newPipeline(clock *sim.VirtualClock, rp radio.Params, secret []byte, tr *tracer) *pipeline {
	p := &pipeline{tr: tr, clock: clock}
	p.medium = radio.NewMedium(clock, rp)
	storeOpts := store.Options{MaxMessages: store.DefaultMaxMessages}
	if storeOpts.MaxMessages < orphanage.DefaultPerStreamCapacity {
		storeOpts.MaxMessages = orphanage.DefaultPerStreamCapacity
	}
	p.st = store.New(storeOpts)
	p.orph = orphanage.NewWithStore(orphanage.Options{}, p.st)
	p.disp = dispatch.New(dispatch.Options{})
	p.disp.SetOrphanSink(func(d filtering.Delivery) {
		p.tr.begin(spOrphanConsume)
		p.orph.Consume(d)
		p.tr.end()
	})
	p.filter = filtering.New(p.onFiltered, filtering.Options{})
	p.loc = location.New(clock, location.Options{})
	p.reg = registry.New(secret, clock)
	p.rm = resource.NewWithOptions(resource.Options{})
	p.repl = replicator.New(p.loc, replicator.Options{Targeted: true})
	p.acts = actuation.NewService(clock, func(c wire.ControlMessage) {
		p.tr.begin(spReplicatorSend)
		_, _ = p.repl.Send(c) // as in core: emptiness shows in replicator stats
		p.tr.end()
	}, actuation.Options{})
	return p
}

func (p *pipeline) onFiltered(del filtering.Delivery) {
	if del.Msg.Flags.Has(wire.FlagUpdateAck) {
		p.tr.begin(spHandleAck)
		p.acts.HandleAck(del.Msg.AckID, del.At)
		p.tr.end()
	}
	p.tr.begin(spStoreAppend)
	del.StoreSeq = p.st.Append(del)
	p.tr.end()
	p.tr.begin(spDispatch)
	p.disp.Dispatch(del)
	p.tr.end()
}

func (p *pipeline) onReception(rc receiver.Reception) {
	if !rc.Msg.Flags.Has(wire.FlagRelayed) {
		p.tr.begin(spLocationObserve)
		_ = p.loc.ObserveReception(rc) // receiver registered in addReceiver; cannot fail
		p.tr.end()
	}
	p.tr.begin(spFilterIngest)
	p.filter.Ingest(rc)
	p.tr.end()
}

func (p *pipeline) addReceiver(cfg receiver.Config) {
	rx := receiver.New(p.medium, cfg, p.onReception)
	p.loc.RegisterReceiver(rx.Name(), rx.Position(), rx.Radius())
	p.receivers = append(p.receivers, rx)
}

func (p *pipeline) addTransmitter(cfg transmit.Config) {
	p.repl.AddTransmitter(transmit.New(p.medium, cfg))
}

func (p *pipeline) addSensor(cfg sensor.Config) (*sensor.Node, error) {
	n, err := sensor.New(p.clock, p.medium, cfg)
	if err != nil {
		return nil, err
	}
	p.sensors = append(p.sensors, n)
	return n, nil
}

// subscribe mirrors the facade's Subscribe for a consumer holding
// PermLocation, whose patterns the facade passes through unchanged.
func (p *pipeline) subscribe(tok registry.Token, pat dispatch.Pattern, c dispatch.Consumer) error {
	if err := p.require(tok, registry.PermSubscribe); err != nil {
		return err
	}
	_, err := p.disp.Subscribe(c, pat)
	return err
}

func (p *pipeline) require(tok registry.Token, perm registry.Permission) error {
	p.tr.begin(spRegistryRequire)
	_, err := p.reg.Require(tok, perm)
	p.tr.end()
	return err
}

// actuate mirrors the facade's Actuate and core's SubmitDemand.
func (p *pipeline) actuate(tok registry.Token, d resource.Demand) (resource.Decision, error) {
	p.tr.begin(spRegistryRequire)
	id, err := p.reg.Require(tok, registry.PermActuate)
	p.tr.end()
	if err != nil {
		return resource.Decision{}, err
	}
	d.Consumer = id.Name
	p.tr.begin(spResourceSubmit)
	dec, err := p.rm.Submit(d)
	p.tr.end()
	if err != nil {
		return dec, err
	}
	if dec.Changed && dec.Action != nil {
		p.tr.begin(spActuationIssue)
		_, _ = p.acts.Issue(actuation.Request{
			Target: dec.Action.Target, Op: dec.Action.Op, Value: dec.Action.Value, Consumer: d.Consumer,
		}, nil)
		p.tr.end()
	}
	return dec, nil
}

func (p *pipeline) start() {
	p.disp.Start()
	for _, rx := range p.receivers {
		rx.Start()
	}
	for _, n := range p.sensors {
		n.Start()
	}
}

// runUntil advances the virtual clock, one sim.drive span around it.
func (p *pipeline) runUntil(t time.Time) int {
	p.tr.begin(spSimDrive)
	n := p.clock.RunUntil(t)
	p.tr.end()
	return n
}

func (p *pipeline) stop() {
	for _, n := range p.sensors {
		n.Stop()
	}
	for _, rx := range p.receivers {
		rx.Stop()
	}
	p.filter.Flush()
	p.acts.Stop()
	p.disp.Stop()
	p.st.Close()
}

// snapshot reports the counters core.Deployment.Stats reports.
func (p *pipeline) snapshot() core.Snapshot {
	return core.Snapshot{
		Filter:     p.filter.Stats(),
		Dispatch:   p.disp.Stats(),
		Store:      p.st.Stats(),
		Orphanage:  p.orph.Stats(),
		Resource:   p.rm.Stats(),
		Actuation:  p.acts.Stats(),
		Replicator: p.repl.Stats(),
	}
}
