package main

import (
	"encoding/binary"
	"sort"

	garnet "github.com/garnet-middleware/garnet"
	"github.com/garnet-middleware/garnet/internal/filtering"
	"github.com/garnet-middleware/garnet/internal/receiver"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// mix is splitmix64's finaliser: a cheap, well-spread hash of one word.
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// rng is a small deterministic generator for the workloads' inputs.
type rng struct{ s uint64 }

func newRng(seed uint64, label uint64) *rng { return &rng{s: mix(seed ^ mix(label))} }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	return mix(r.s)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// shuffled returns a random permutation of 0..n-1.
func shuffled(r *rng, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		k := r.intn(i + 1)
		p[i], p[k] = p[k], p[i]
	}
	return p
}

// payloadLen is the size of every generated sensor payload.
const payloadLen = 16

// payloadFor is the payload a stream's sampler produces for one
// sequence number: a function of the seed, the stream and the
// (extended) sequence, so every checker can recompute it.
func payloadFor(dst []byte, seed uint64, stream wire.StreamID, seq uint64) []byte {
	h := mix(seed ^ uint64(stream)<<20 ^ seq)
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	return binary.LittleEndian.AppendUint64(dst, h)
}

// payloadOK reports whether p is the payload of (stream, seq).
func payloadOK(p []byte, seed uint64, stream wire.StreamID, seq uint64) bool {
	if len(p) != payloadLen {
		return false
	}
	var want [payloadLen]byte
	payloadFor(want[:0], seed, stream, seq)
	return string(p) == string(want[:])
}

// injectEncoded encodes one generated message, decodes it borrowed and
// injects the reception, stamped with the deployment clock's time of
// arrival, the way a receiver hands a frame to the pipeline.
func injectEncoded(g *garnet.Deployment, t *tracer, id wire.StreamID, seq, seed uint64, buf []byte) []byte {
	var payload [payloadLen]byte
	out := wire.Message{Stream: id, Seq: wire.Seq(seq), Payload: payloadFor(payload[:0], seed, id, seq)}
	t.begin(spWireEncode)
	buf, err := out.AppendEncode(buf[:0])
	t.end()
	if err != nil {
		panic(err) // a 16-byte payload always encodes
	}
	var msg wire.Message
	t.begin(spWireDecode)
	_, err = wire.DecodeMessageBorrowed(buf, &msg)
	t.end()
	if err != nil {
		panic(err) // decoding what was just encoded cannot fail
	}
	t.begin(spCoreInject)
	g.Core().InjectReception(receiver.Reception{Msg: msg, Receiver: "rx-bench", RSSI: 1, At: g.Clock().Now(), Borrowed: true})
	t.end()
	return buf
}

// msgKey names one message of one stream.
type msgKey struct {
	stream wire.StreamID
	seq    wire.Seq
}

func sortKeys(ks []msgKey) {
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].stream != ks[j].stream {
			return ks[i].stream < ks[j].stream
		}
		return ks[i].seq < ks[j].seq
	})
}

// recorder is a synchronous consumer that keeps what it was handed and
// screens every payload against the generator.
type recorder struct {
	name string
	seed uint64
	tr   *tracer
	got  []msgKey
	bad  int // deliveries whose payload is not the sampler's
}

func (c *recorder) Name() string { return c.name }

func (c *recorder) Consume(d filtering.Delivery) {
	c.tr.begin(spConsume)
	if !payloadOK(d.Msg.Payload, c.seed, d.Msg.Stream, uint64(d.Msg.Seq)) {
		c.bad++
	}
	c.got = append(c.got, msgKey{d.Msg.Stream, d.Msg.Seq})
	c.tr.end()
}
