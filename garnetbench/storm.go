package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	garnet "github.com/garnet-middleware/garnet"
	"github.com/garnet-middleware/garnet/internal/filtering"
	"github.com/garnet-middleware/garnet/internal/receiver"
	"github.com/garnet-middleware/garnet/internal/registry"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// fanout_storm: the async fan-out storm on the real clock. Publishers
// inject receptions stamped with the deployment clock's time of arrival
// through batched ingest into asynchronous consumer ports; standing
// batch consumers take every stream, late joiners replay the hot window
// mid-run. The closed-loop phase keeps the in-flight window below the
// port capacity so no delivery is ever dropped; the paced phase that
// follows is an open loop at a fixed rate and gives the latency figures.
const (
	stormStreams      = 8
	stormPerStream    = 2     // standing consumers per stream
	stormJoiners      = 4     // late joiners, one per stream
	stormPrefill      = 4096  // per stream, in set-up: fills the retained window
	stormClosed       = 16000 // per stream, closed-loop phase
	stormPaced        = 1250  // per stream, paced phase
	stormRate         = 20000 // paced messages per second, all streams together
	stormWindow       = 2048  // closed-loop in-flight bound per consumer
	stormPortCapacity = 8192  // > retained window + in-flight window: nothing drops
	stormRetain       = 4096  // store hot window per stream
	stormIngestBatch  = 64
)

// stormSpec is every input of one fanout_storm round.
type stormSpec struct {
	seed    uint64
	streams []wire.StreamID
	pubs    int
}

func makeStormSpec(seed uint64) stormSpec {
	r := newRng(seed, 2)
	spec := stormSpec{seed: seed, pubs: min(2, runtime.NumCPU())}
	seen := make(map[wire.SensorID]bool)
	for len(spec.streams) < stormStreams {
		id := wire.SensorID(1 + r.intn(int(wire.MaxSensorID)-1))
		if !seen[id] {
			seen[id] = true
			spec.streams = append(spec.streams, wire.MustStreamID(id, 0))
		}
	}
	return spec
}

// stormConsumer is one batch consumer bound to one stream. It checks
// every delivery as it arrives: the stream's next sequence, ascending
// store sequence, the generator's payload bytes.
type stormConsumer struct {
	name   string
	stream wire.StreamID
	seed   uint64
	joiner bool
	tr     *tracer
	sched  *stormSchedule // paced-phase send times, for latency

	mu        sync.Mutex
	next      uint64 // next expected sequence; joiners learn it from their first delivery
	started   bool
	lastStore uint64
	errs      int
	firstErr  string
	calls     int64
	lat       []float64 // µs, scheduled send → consume, paced phase
	wait      []float64 // µs, reception stamp → consume, paced phase

	pos       atomic.Int64 // sequence after the last one consumed
	replayed  atomic.Int64 // joiners: messages SubscribeWithReplay placed, -1 until known
	caughtUp  atomic.Int64 // joiners: unix ns at which the replay was consumed
	delivered atomic.Int64
}

func (c *stormConsumer) Name() string { return c.name }

func (c *stormConsumer) Consume(d filtering.Delivery) {
	c.ConsumeBatch([]filtering.Delivery{d})
}

func (c *stormConsumer) ConsumeBatch(ds []filtering.Delivery) {
	c.tr.begin(spConsume)
	now := time.Now()
	c.mu.Lock()
	c.calls++
	for i := range ds {
		d := &ds[i]
		seq := uint64(d.Msg.Seq)
		if !c.started {
			c.started = true
			if c.joiner {
				c.next = seq
			}
		}
		switch {
		case d.Msg.Stream != c.stream:
			c.fail("stream %v, want %v", d.Msg.Stream, c.stream)
		case seq != c.next:
			c.fail("seq %d, want %d", seq, c.next)
		case d.StoreSeq <= c.lastStore:
			c.fail("store seq %d after %d", d.StoreSeq, c.lastStore)
		case !payloadOK(d.Msg.Payload, c.seed, c.stream, seq):
			c.fail("seq %d: payload is not the generator's", seq)
		}
		c.next = seq + 1
		c.lastStore = d.StoreSeq
		if c.sched != nil && !c.joiner {
			if sent, ok := c.sched.at(c.stream, seq); ok {
				c.lat = append(c.lat, float64(now.Sub(sent))/1e3)
				c.wait = append(c.wait, float64(now.Sub(d.At))/1e3)
			}
		}
	}
	next := c.next
	c.mu.Unlock()
	c.pos.Store(int64(next))
	n := c.delivered.Add(int64(len(ds)))
	c.noteCaughtUp(n)
	c.tr.end()
}

func (c *stormConsumer) fail(format string, args ...any) {
	if c.errs == 0 {
		c.firstErr = fmt.Sprintf(format, args...)
	}
	c.errs++
}

// noteCaughtUp stamps the moment a joiner has consumed its replay.
func (c *stormConsumer) noteCaughtUp(delivered int64) {
	if r := c.replayed.Load(); c.joiner && r >= 0 && delivered >= r {
		c.caughtUp.CompareAndSwap(0, time.Now().UnixNano())
	}
}

// stormSchedule maps paced-phase messages to their scheduled send time.
type stormSchedule struct {
	base  uint64 // first paced sequence
	index map[wire.StreamID]int
	at0   time.Time
	slots [][]int64 // per stream: ns after at0, written before the message is injected
}

func (s *stormSchedule) at(id wire.StreamID, seq uint64) (time.Time, bool) {
	if seq < s.base {
		return time.Time{}, false
	}
	k := s.index[id]
	return s.at0.Add(time.Duration(s.slots[k][seq-s.base])), true
}

// stormOutcome is what one round produced.
type stormOutcome struct {
	consumers []*stormConsumer
	published []uint64 // per stream
	dropped   int64
	replayed  int64
	replayDur time.Duration
	rangeMsgs int64
	lags      []float64 // µs, paced generator
}

// stormRun is one live round.
type stormRun struct {
	spec      stormSpec
	g         *garnet.Deployment
	published []atomic.Uint64 // per stream: messages injected so far

	mu       sync.Mutex // guards byStream: joiners are added while publishers read it
	byStream [][]*stormConsumer
}

func (r *stormRun) addConsumer(k int, c *stormConsumer) {
	r.mu.Lock()
	r.byStream[k] = append(r.byStream[k], c)
	r.mu.Unlock()
}

// publish injects the next message of stream k.
func (r *stormRun) publish(t *tracer, k int, buf []byte) []byte {
	seq := r.published[k].Load()
	buf = injectEncoded(r.g, t, r.spec.streams[k], seq, r.spec.seed, buf)
	r.published[k].Store(seq + 1)
	return buf
}

// flushIngest injects one reception on a stream nobody subscribes to, so
// the ingest buffer, which holds its newest reception until a later
// timestamp arrives, hands everything before it on.
func (r *stormRun) flushIngest(n *uint64) {
	id := wire.MustStreamID(wire.MaxSensorID, 1)
	r.g.Core().InjectReception(receiver.Reception{
		Msg: wire.Message{Stream: id, Seq: wire.Seq(*n)}, Receiver: "rx-bench", RSSI: 1, At: r.g.Clock().Now(),
	})
	*n++
}

// inFlight is the largest number of stream k's messages some consumer
// of the stream has not consumed yet.
func (r *stormRun) inFlight(k int) int64 {
	pub := int64(r.published[k].Load())
	worst := int64(0)
	r.mu.Lock()
	for _, c := range r.byStream[k] {
		if d := pub - c.pos.Load(); d > worst {
			worst = d
		}
	}
	r.mu.Unlock()
	return worst
}

// waitFor spins politely until cond holds.
func waitFor(cond func() bool) {
	for i := 0; !cond(); i++ {
		if i < 64 {
			runtime.Gosched()
		} else {
			time.Sleep(20 * time.Microsecond)
		}
	}
}

// allConsumed waits until every consumer has consumed each stream up to
// its published count.
func (r *stormRun) allConsumed() {
	for k := range r.spec.streams {
		want := int64(r.published[k].Load())
		for _, c := range r.byStream[k] {
			waitFor(func() bool { return c.pos.Load() >= want })
		}
	}
}

// stormRound runs one round; tr is nil for an untraced round.
func stormRound(spec stormSpec, tr *trace) (*stormOutcome, roundFigures, error) {
	var fig roundFigures
	out := &stormOutcome{}
	sched := &stormSchedule{base: stormPrefill + stormClosed, index: make(map[wire.StreamID]int)}
	for k, id := range spec.streams {
		sched.index[id] = k
		sched.slots = append(sched.slots, make([]int64, stormPaced))
	}

	t0 := time.Now()
	r := &stormRun{
		spec: spec,
		g: garnet.New(
			garnet.WithSecret([]byte("garnetbench-storm")),
			garnet.WithIngestBatch(stormIngestBatch),
			garnet.WithAsyncDispatch(stormPortCapacity),
			garnet.WithStoreRetention(stormRetain, 0, 0),
		),
		published: make([]atomic.Uint64, len(spec.streams)),
		byStream:  make([][]*stormConsumer, len(spec.streams)),
	}
	defer r.g.Stop()
	tok, err := r.g.Register("storm", registry.PermSubscribe)
	if err != nil {
		return nil, fig, err
	}
	for k, id := range spec.streams {
		for j := 0; j < stormPerStream; j++ {
			c := &stormConsumer{name: fmt.Sprintf("standing-%d-%d", k, j), stream: id, seed: spec.seed, sched: sched, tr: tr.tracer()}
			c.replayed.Store(-1)
			if _, err := r.g.Subscribe(tok, garnet.Exact(id), c); err != nil {
				return nil, fig, err
			}
			r.addConsumer(k, c)
			out.consumers = append(out.consumers, c)
		}
	}
	r.g.Start()
	var marker uint64
	pt := tr.tracer()
	var buf []byte
	for i := 0; i < stormPrefill; i++ {
		for k := range spec.streams {
			buf = r.publish(pt, k, buf)
		}
	}
	r.flushIngest(&marker)
	r.allConsumed()
	fig.setup = time.Since(t0)

	// Closed loop: each publisher owns every pubs-th stream; a late
	// joiner per stream subscribes once half the phase is published.
	a := takeProbe()
	var wg sync.WaitGroup
	var half sync.WaitGroup
	half.Add(spec.pubs)
	for p := 0; p < spec.pubs; p++ {
		wg.Add(1)
		t := tr.tracer()
		go func(p int) {
			defer wg.Done()
			var buf []byte
			for i := 0; i < stormClosed; i++ {
				if i == stormClosed/2 {
					half.Done()
				}
				for k := p; k < len(spec.streams); k += spec.pubs {
					if i%64 == 0 {
						waitFor(func() bool { return r.inFlight(k) <= stormWindow })
					}
					buf = r.publish(t, k, buf)
				}
			}
		}(p)
	}
	half.Wait()
	jt := tr.tracer()
	joinStart := time.Now()
	for j := 0; j < stormJoiners; j++ {
		k := j % len(spec.streams)
		id := spec.streams[k]
		c := &stormConsumer{name: fmt.Sprintf("joiner-%d", j), stream: id, seed: spec.seed, joiner: true, tr: tr.tracer()}
		c.replayed.Store(-1)
		jt.begin(spStoreRange)
		out.rangeMsgs += int64(len(r.g.Core().Store().Range(id, 0, ^uint64(0))))
		jt.end()
		jt.begin(spSubscribeReplay)
		_, n, err := r.g.SubscribeWithReplay(tok, id, 0, c)
		jt.end()
		if err != nil {
			wg.Wait()
			return nil, fig, err
		}
		c.replayed.Store(int64(n))
		c.noteCaughtUp(c.delivered.Load())
		out.replayed += int64(n)
		r.addConsumer(k, c)
		out.consumers = append(out.consumers, c)
	}
	wg.Wait()
	r.flushIngest(&marker)
	r.allConsumed()
	b := takeProbe()
	fig.timed = phaseBetween(a, b, len(spec.streams)*stormClosed)
	fig.heap = liveHeap()
	var lastCaught int64
	for _, c := range out.consumers {
		if c.joiner {
			lastCaught = max(lastCaught, c.caughtUp.Load())
		}
	}
	out.replayDur = time.Unix(0, lastCaught).Sub(joinStart)

	// Paced open loop: message i of publisher p is due at
	// at0 + (i*pubs + p) / rate, sent then or as soon after as it can.
	sched.at0 = time.Now().Add(time.Millisecond)
	lags := make([][]float64, spec.pubs)
	for p := 0; p < spec.pubs; p++ {
		wg.Add(1)
		t := tr.tracer()
		go func(p int) {
			defer wg.Done()
			var buf []byte
			i := 0
			for n := 0; n < stormPaced; n++ {
				for k := p; k < len(spec.streams); k += spec.pubs {
					due := time.Duration(int64(i*spec.pubs+p) * int64(time.Second) / stormRate)
					sched.slots[k][n] = int64(due)
					at := sched.at0.Add(due)
					// A sleep overshoots by up to a timer slack, so sleep
					// only well ahead of time and yield the rest.
					if ahead := time.Until(at); ahead > 2*time.Millisecond {
						time.Sleep(ahead - time.Millisecond)
					}
					for time.Now().Before(at) {
						runtime.Gosched()
					}
					lags[p] = append(lags[p], float64(time.Since(at))/1e3)
					buf = r.publish(t, k, buf)
					i++
				}
			}
		}(p)
	}
	wg.Wait()
	r.flushIngest(&marker)
	r.allConsumed()
	for _, l := range lags {
		out.lags = append(out.lags, l...)
	}

	r.g.Stop()
	out.dropped = r.g.Stats().Dispatch.Dropped
	for k := range spec.streams {
		out.published = append(out.published, r.published[k].Load())
	}
	return out, fig, nil
}

// checkStorm requires every standing consumer to have the whole published
// sequence of its stream, in order and byte-exact, every joiner a
// contiguous run ending at the last published message, and no drops.
func checkStorm(spec stormSpec, o *stormOutcome) error {
	if o.dropped != 0 {
		return wrong("fanout_storm: dispatcher dropped %d deliveries", o.dropped)
	}
	want := uint64(stormPrefill + stormClosed + stormPaced)
	for k, n := range o.published {
		if n != want {
			return wrong("fanout_storm: stream %d published %d, want %d", k, n, want)
		}
	}
	for _, c := range o.consumers {
		if c.errs != 0 {
			return wrong("fanout_storm: consumer %s: %d bad deliveries, first: %s", c.name, c.errs, c.firstErr)
		}
		got := c.delivered.Load()
		if !c.joiner && got != int64(want) {
			return wrong("fanout_storm: consumer %s got %d messages, want %d", c.name, got, want)
		}
		if c.joiner && (c.next != want || got == 0 || got > int64(want)) {
			return wrong("fanout_storm: joiner %s ended at seq %d after %d messages, want a run ending at %d",
				c.name, c.next, got, want-1)
		}
		if c.joiner && c.caughtUp.Load() == 0 {
			return wrong("fanout_storm: joiner %s never consumed its replay", c.name)
		}
	}
	return nil
}

func runFanoutStorm(cfg config) (*report, error) {
	spec := makeStormSpec(cfg.seed)
	rep := &report{notes: []string{hostNote()}}
	perRound := int64(len(spec.streams) * (stormPrefill + stormClosed + stormPaced))
	if !cfg.trace {
		var e2e endToEnd
		err := rounds(cfg, 4, func(int) error {
			out, fig, err := stormRound(spec, nil)
			if err != nil {
				return err
			}
			rep.attempted += perRound
			e2e.add(fig)
			return checkStorm(spec, out)
		})
		e2e.fill(rep)
		return rep, err
	}

	tr := newTrace()
	var plain, traced endToEnd
	var lat, wait, lags, replayRate []float64
	var calls, deliveries, dropped, rangeMsgs float64
	err := rounds(cfg, 2, func(int) error {
		ref, fig, err := stormRound(spec, nil)
		if err != nil {
			return err
		}
		rep.attempted += perRound
		plain.add(fig)
		if err := checkStorm(spec, ref); err != nil {
			return err
		}
		// Latency and lag come from the untraced rounds: spans would
		// add their own cost to every hop they time.
		for _, c := range ref.consumers {
			lat = append(lat, c.lat...)
			wait = append(wait, c.wait...)
		}
		lags = append(lags, ref.lags...)
		replayRate = append(replayRate, float64(ref.replayed)/ref.replayDur.Seconds())

		out, fig, err := stormRound(spec, tr)
		if err != nil {
			return err
		}
		rep.attempted += perRound
		traced.add(fig)
		for _, c := range out.consumers {
			calls += float64(c.calls)
			deliveries += float64(c.delivered.Load())
		}
		dropped += float64(out.dropped)
		rangeMsgs += float64(out.rangeMsgs)
		return checkStorm(spec, out)
	})
	fillPerLayerDefaults(rep)
	plain.fillRuntime(rep)
	rep.set("trace.overhead_ratio", "ratio", ratio(plain.opsPerSecond(), traced.opsPerSecond()))
	rep.set("core.latency_us_p50", "us", quantile(lat, 0.5))
	rep.set("core.latency_us_p99", "us", quantile(lat, 0.99))
	rep.set("dispatch.queue_wait_us_p50", "us", quantile(wait, 0.5))
	rep.set("generator.lag_us_p99", "us", quantile(lags, 0.99))
	rep.set("dispatch.replay_msgs_per_s", "msg/s", median(replayRate))
	rep.set("dispatch.subscribe_replay_ms", "ms", tr.meanNs(spSubscribeReplay)/1e6)
	rep.set("dispatch.dropped", "count", dropped)
	rep.set("store.range_ns_per_msg", "ns", ratio(float64(tr.totals(spStoreRange).totalNs), rangeMsgs))
	rep.set("consumer.deliveries_per_call", "count", ratio(deliveries, calls))
	rep.set("core.inject_ns", "ns", tr.meanNs(spCoreInject))
	rep.set("wire.encode_ns", "ns", tr.meanNs(spWireEncode))
	rep.set("wire.decode_ns", "ns", tr.meanNs(spWireDecode))
	rep.notes = append(rep.notes, fmt.Sprintf("fanout_storm: %d latency samples, %d generator lag samples", len(lat), len(lags)))
	rep.notes = append(rep.notes, traceNotes(cfg, "fanout_storm", tr, plain, traced)...)
	return rep, err
}
