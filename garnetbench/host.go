package main

import (
	"time"

	garnet "github.com/garnet-middleware/garnet"
	"github.com/garnet-middleware/garnet/internal/actuation"
	"github.com/garnet-middleware/garnet/internal/core"
	"github.com/garnet-middleware/garnet/internal/dispatch"
	"github.com/garnet-middleware/garnet/internal/location"
	"github.com/garnet-middleware/garnet/internal/radio"
	"github.com/garnet-middleware/garnet/internal/receiver"
	"github.com/garnet-middleware/garnet/internal/registry"
	"github.com/garnet-middleware/garnet/internal/resource"
	"github.com/garnet-middleware/garnet/internal/sensor"
	"github.com/garnet-middleware/garnet/internal/sim"
	"github.com/garnet-middleware/garnet/internal/transmit"
)

// host is a virtual-clock Garnet assembly the field workloads drive:
// the facade over core.Deployment in the untraced runs, the benchmark's
// own pipeline in the traced ones.
type host interface {
	addReceiver(receiver.Config)
	addTransmitter(transmit.Config)
	addSensor(sensor.Config) (*sensor.Node, error)
	register(name string, perms registry.Permission) (registry.Token, error)
	subscribe(tok registry.Token, pat dispatch.Pattern, c dispatch.Consumer) error
	actuate(tok registry.Token, d resource.Demand) (resource.Decision, error)
	start()
	runUntil(t time.Time) int
	stop()
	snapshot() core.Snapshot
	radioMedium() *radio.Medium
	location() *location.Service
	actuation() *actuation.Service
}

// facadeHost is the product as a user assembles it.
type facadeHost struct {
	g     *garnet.Deployment
	clock *sim.VirtualClock
}

func newFacadeHost(clock *sim.VirtualClock, rp radio.Params, secret []byte) *facadeHost {
	return &facadeHost{
		g:     garnet.New(garnet.WithClock(clock), garnet.WithSecret(secret), garnet.WithRadio(rp)),
		clock: clock,
	}
}

func (h *facadeHost) addReceiver(c receiver.Config)    { h.g.AddReceiver(c) }
func (h *facadeHost) addTransmitter(c transmit.Config) { h.g.AddTransmitter(c) }
func (h *facadeHost) addSensor(c sensor.Config) (*sensor.Node, error) {
	return h.g.AddSensor(c)
}
func (h *facadeHost) register(name string, perms registry.Permission) (registry.Token, error) {
	return h.g.Register(name, perms)
}
func (h *facadeHost) subscribe(tok registry.Token, pat dispatch.Pattern, c dispatch.Consumer) error {
	_, err := h.g.Subscribe(tok, pat, c)
	return err
}
func (h *facadeHost) actuate(tok registry.Token, d resource.Demand) (resource.Decision, error) {
	return h.g.Actuate(tok, d)
}
func (h *facadeHost) start()                     { h.g.Start() }
func (h *facadeHost) runUntil(t time.Time) int   { return h.clock.RunUntil(t) }
func (h *facadeHost) stop()                      { h.g.Stop() }
func (h *facadeHost) snapshot() core.Snapshot    { return h.g.Stats() }
func (h *facadeHost) radioMedium() *radio.Medium { return h.g.Core().Medium() }
func (h *facadeHost) location() *location.Service {
	return h.g.Core().Location()
}
func (h *facadeHost) actuation() *actuation.Service {
	return h.g.Core().ActuationService()
}

func (p *pipeline) register(name string, perms registry.Permission) (registry.Token, error) {
	return p.reg.Register(name, perms)
}
func (p *pipeline) radioMedium() *radio.Medium    { return p.medium }
func (p *pipeline) location() *location.Service   { return p.loc }
func (p *pipeline) actuation() *actuation.Service { return p.acts }
