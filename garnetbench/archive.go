package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	garnet "github.com/garnet-middleware/garnet"
	"github.com/garnet-middleware/garnet/internal/filtering"
	"github.com/garnet-middleware/garnet/internal/registry"
	"github.com/garnet-middleware/garnet/internal/store"
	"github.com/garnet-middleware/garnet/internal/store/archive"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// archive_restart: the store's spill, recovery and archive-read side.
// Streams are written far past the in-memory window into a filesystem
// archive with a tiny cold budget, so almost all history spills through
// the async archivers; the deployment is stopped cleanly and a new one
// opened over the same directory; joiners then replay every stream from
// sequence 0 while the publishers resume.
//
// Each stream's post-restart replay of its whole pre-shutdown history is
// one operation. It fails today on every stream: Store.Close archives
// only the spills still pending, not the hot ring, the seal stage or the
// cold blocks within budget, so a clean restart serves only a prefix of
// the history. The checker still requires what is served to be an exact
// prefix of the written log, and counts the operation as failed.
//
// The written history does not depend on the seed (the failing
// operations must not); the seed orders the joiners' subscriptions.
const (
	archiveStreams    = 16
	archivePerStream  = 60000 // per stream before the restart
	archiveResume     = 4000  // per stream after it
	archiveHot        = 256   // store hot window per stream
	archiveColdBudget = 1024  // compressed cold bytes per stream
	archiveFirstRange = 256   // messages in the first served Range
	archiveInputSeed  = 0x617263686976652f
)

var archiveStreamIDs = func() []wire.StreamID {
	ids := make([]wire.StreamID, archiveStreams)
	for i := range ids {
		ids[i] = wire.MustStreamID(wire.SensorID(i+1), 0)
	}
	return ids
}()

func archiveOptions(b archive.Backend) []garnet.Option {
	return []garnet.Option{
		garnet.WithSecret([]byte("garnetbench-archive")),
		garnet.WithStoreRetention(archiveHot, 0, 0),
		garnet.WithStoreCompression("auto", archiveColdBudget),
		garnet.WithArchive(b),
	}
}

// archiveJoiner replays one stream after the restart and keeps what it
// was handed.
type archiveJoiner struct {
	name   string
	index  int // of the stream in archiveStreamIDs
	stream wire.StreamID
	tr     *tracer

	mu   sync.Mutex
	seqs []uint64
	bad  int // deliveries that are not the writer's bytes for their seq
	last uint64

	outOfOrder int
	replayed   atomic.Int64 // -1 until SubscribeWithReplay returns
	delivered  atomic.Int64
	caughtUp   atomic.Int64 // unix ns
}

func (j *archiveJoiner) Name() string { return j.name }

func (j *archiveJoiner) Consume(d filtering.Delivery) {
	j.tr.begin(spConsume)
	seq := uint64(d.Msg.Seq)
	j.mu.Lock()
	if d.Msg.Stream != j.stream || !payloadOK(d.Msg.Payload, archiveInputSeed, j.stream, seq) {
		j.bad++
	}
	if len(j.seqs) > 0 && d.StoreSeq <= j.last {
		j.outOfOrder++
	}
	j.last = d.StoreSeq
	j.seqs = append(j.seqs, seq)
	j.mu.Unlock()
	j.noteCaughtUp(j.delivered.Add(1))
	j.tr.end()
}

func (j *archiveJoiner) noteCaughtUp(delivered int64) {
	if r := j.replayed.Load(); r >= 0 && delivered >= r {
		j.caughtUp.CompareAndSwap(0, time.Now().UnixNano())
	}
}

// archiveOutcome is what one round produced.
type archiveOutcome struct {
	joiners     []*archiveJoiner
	written     []uint64 // per stream: messages written before and after the restart
	before      store.Stats
	after       store.Stats
	diskBytes   int64
	openDur     time.Duration
	recoverDur  time.Duration
	firstRange  int
	replayed    int64
	replayDur   time.Duration
	recoveredOK bool // the first post-restart append was accepted
}

// writeStreams publishes n more messages on every stream, the streams
// split between two publisher goroutines.
func writeStreams(g *garnet.Deployment, published []uint64, n int, tracers [2]*tracer) {
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int, t *tracer) {
			defer wg.Done()
			var buf []byte
			for i := 0; i < n; i++ {
				for k := p; k < archiveStreams; k += 2 {
					buf = injectEncoded(g, t, archiveStreamIDs[k], published[k], archiveInputSeed, buf)
					published[k]++
				}
			}
		}(p, tracers[p])
	}
	wg.Wait()
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// archiveRound runs one round in a fresh directory; tr is nil for an
// untraced round.
func archiveRound(cfg config, round int, tr *trace) (*archiveOutcome, roundFigures, error) {
	var fig roundFigures
	out := &archiveOutcome{}
	dir := filepath.Join(cfg.workdir, fmt.Sprintf("archive-%d-%d", os.Getpid(), round))
	if err := os.RemoveAll(dir); err != nil {
		return nil, fig, err
	}
	defer os.RemoveAll(dir)
	pubs := [2]*tracer{tr.tracer(), tr.tracer()}
	mt := tr.tracer()

	// Write far past the in-memory window, then stop cleanly.
	backend, err := archive.OpenFS(dir)
	if err != nil {
		return nil, fig, err
	}
	g := garnet.New(archiveOptions(backend)...)
	g.Start()
	published := make([]uint64, archiveStreams)
	a := takeProbe()
	writeStreams(g, published, archivePerStream, pubs)
	g.Stop()
	b := takeProbe()
	fig.timed = phaseBetween(a, b, archiveStreams*archivePerStream)
	out.before = g.Core().Store().Stats()
	if err := backend.Close(); err != nil {
		return nil, fig, err
	}
	if out.diskBytes, err = dirBytes(dir); err != nil {
		return nil, fig, err
	}

	// Restart: open the directory, recover, serve the first Range and
	// accept the first append.
	t0 := time.Now()
	mt.begin(spArchiveOpen)
	backend, err = archive.OpenFS(dir)
	mt.end()
	out.openDur = time.Since(t0)
	if err != nil {
		return nil, fig, err
	}
	defer backend.Close()
	t1 := time.Now()
	mt.begin(spStoreRecover)
	g = garnet.New(archiveOptions(backend)...)
	mt.end()
	out.recoverDur = time.Since(t1)
	defer g.Stop()
	g.Start()
	first, _ := g.Core().Store().FirstSeq(archiveStreamIDs[0])
	mt.begin(spStoreRange)
	out.firstRange = len(g.Core().Store().Range(archiveStreamIDs[0], first, first+archiveFirstRange-1))
	mt.end()
	before, _ := g.Core().Store().LastSeq(archiveStreamIDs[0])
	injectEncoded(g, mt, archiveStreamIDs[0], published[0], archiveInputSeed, nil)
	published[0]++
	after, _ := g.Core().Store().LastSeq(archiveStreamIDs[0])
	out.recoveredOK = after > before
	fig.setup = time.Since(t0)
	fig.heap = liveHeap()

	// Joiners replay every stream from sequence 0 while the publishers
	// resume.
	tok, err := g.Register("joiners", registry.PermSubscribe)
	if err != nil {
		return nil, fig, err
	}
	done := make(chan struct{})
	resume := append([]uint64(nil), published...)
	go func() {
		defer close(done)
		writeStreams(g, resume, archiveResume, pubs)
	}()
	joinStart := time.Now()
	for _, k := range shuffled(newRng(cfg.seed, 3), archiveStreams) {
		j := &archiveJoiner{name: fmt.Sprintf("joiner-%d", k), index: k, stream: archiveStreamIDs[k], tr: tr.tracer()}
		j.replayed.Store(-1)
		mt.begin(spSubscribeReplay)
		_, n, err := g.SubscribeWithReplay(tok, j.stream, 0, j)
		mt.end()
		if err != nil {
			<-done
			return nil, fig, err
		}
		j.replayed.Store(int64(n))
		j.noteCaughtUp(j.delivered.Load())
		out.replayed += int64(n)
		out.joiners = append(out.joiners, j)
	}
	<-done
	var lastCaught int64
	for _, j := range out.joiners {
		lastCaught = max(lastCaught, j.caughtUp.Load())
	}
	out.replayDur = time.Unix(0, lastCaught).Sub(joinStart)
	g.Stop()
	out.after = g.Core().Store().Stats()
	out.written = resume
	return out, fig, nil
}

// checkArchive requires every joiner to have received an exact prefix
// of its stream's log followed by a contiguous run to the last message
// written, in order and byte-exact. It returns how many streams were
// served their whole pre-shutdown history.
func checkArchive(o *archiveOutcome) (whole int, err error) {
	if !o.recoveredOK {
		return 0, wrong("archive_restart: the first append after the restart was not accepted")
	}
	if o.firstRange == 0 {
		return 0, wrong("archive_restart: the first Range after the restart served nothing")
	}
	if o.before.ArchiveFailed != 0 || o.after.ArchiveFailed != 0 {
		return 0, wrong("archive_restart: %d archive writes failed", o.before.ArchiveFailed+o.after.ArchiveFailed)
	}
	for _, j := range o.joiners {
		if j.bad != 0 || j.outOfOrder != 0 {
			return 0, wrong("archive_restart: %s: %d deliveries with wrong bytes, %d out of store order",
				j.name, j.bad, j.outOfOrder)
		}
		s := j.seqs
		if len(s) == 0 || s[0] != 0 {
			return 0, wrong("archive_restart: %s: replay does not start at sequence 0", j.name)
		}
		k := 1 // the served prefix is s[:k]
		for k < len(s) && s[k] == s[k-1]+1 {
			k++
		}
		if k < len(s) {
			// A gap: what follows must be the newest messages, contiguous
			// to the end. The lost run is s[k-1]+1 .. s[k]-1.
			if s[k] <= s[k-1] {
				return 0, wrong("archive_restart: %s: %d delivered after %d", j.name, s[k], s[k-1])
			}
			for i := k + 1; i < len(s); i++ {
				if s[i] != s[i-1]+1 {
					return 0, wrong("archive_restart: %s: second gap at position %d (%d after %d)", j.name, i, s[i], s[i-1])
				}
			}
		}
		if last, want := s[len(s)-1], o.written[j.index]-1; last != want {
			return 0, wrong("archive_restart: %s: ends at %d, want %d", j.name, last, want)
		}
		if k == len(s) {
			whole++
		}
	}
	return whole, nil
}

func runArchiveRestart(cfg config) (*report, error) {
	rep := &report{notes: []string{hostNote()}}
	perRound := int64(archiveStreams*(archivePerStream+archiveResume) + 1 + archiveStreams)
	round := func(i int, tr *trace) (*archiveOutcome, roundFigures, error) {
		out, fig, err := archiveRound(cfg, i, tr)
		if err != nil {
			return nil, fig, err
		}
		whole, err := checkArchive(out)
		rep.attempted += perRound
		rep.failed += int64(archiveStreams - whole)
		return out, fig, err
	}
	if !cfg.trace {
		var e2e endToEnd
		err := rounds(cfg, 4, func(i int) error {
			_, fig, err := round(i, nil)
			e2e.add(fig)
			return err
		})
		e2e.fill(rep)
		return rep, err
	}

	tr := newTrace()
	var plain, traced endToEnd
	var readAmp, syncSpills, writeMs, recoverMs, openMs, perBlock, compress, perMsg, replayRate []float64
	var firstRange float64
	n := 0
	err := rounds(cfg, 2, func(int) error {
		ref, fig, err := round(n, nil)
		n++
		if err != nil {
			return err
		}
		plain.add(fig)
		s := ref.before
		readAmp = append(readAmp, ratio(float64(ref.after.ArchiveReadMessages), float64(ref.replayed)))
		syncSpills = append(syncSpills, float64(s.ArchiveSyncSpills))
		writeMs = append(writeMs, s.ArchiveWriteP50Ms)
		recoverMs = append(recoverMs, float64(ref.recoverDur)/1e6)
		openMs = append(openMs, float64(ref.openDur)/1e6)
		perBlock = append(perBlock, ratio(float64(ref.diskBytes), float64(s.ArchivedBlocks)))
		compress = append(compress, ratio(float64(s.ArchivedRawBytes), float64(s.ArchivedBytes)))
		perMsg = append(perMsg, float64(ref.diskBytes)/float64(archiveStreams*archivePerStream))
		replayRate = append(replayRate, float64(ref.replayed)/ref.replayDur.Seconds())

		out, fig, err := round(n, tr)
		n++
		if err != nil {
			return err
		}
		traced.add(fig)
		firstRange += float64(out.firstRange)
		return nil
	})
	fillPerLayerDefaults(rep)
	plain.fillRuntime(rep)
	rep.set("trace.overhead_ratio", "ratio", ratio(plain.opsPerSecond(), traced.opsPerSecond()))
	rep.set("store.archive_read_amp", "ratio", median(readAmp))
	rep.set("store.archive_sync_spills", "count", median(syncSpills))
	rep.set("store.archive_write_ms_p50", "ms", median(writeMs))
	rep.set("store.recover_ms", "ms", median(recoverMs))
	rep.set("archive.open_ms", "ms", median(openMs))
	rep.set("archive.disk_bytes_per_block", "B", median(perBlock))
	rep.set("archive.compression_ratio", "ratio", median(compress))
	rep.set("archive.disk_bytes_per_msg", "B", median(perMsg))
	rep.set("dispatch.replay_msgs_per_s", "msg/s", median(replayRate))
	rep.set("dispatch.subscribe_replay_ms", "ms", tr.meanNs(spSubscribeReplay)/1e6)
	rep.set("store.range_ns_per_msg", "ns", ratio(float64(tr.totals(spStoreRange).totalNs), firstRange))
	rep.set("core.inject_ns", "ns", tr.meanNs(spCoreInject))
	rep.set("wire.encode_ns", "ns", tr.meanNs(spWireEncode))
	rep.set("wire.decode_ns", "ns", tr.meanNs(spWireDecode))
	rep.notes = append(rep.notes, traceNotes(cfg, "archive_restart", tr, plain, traced)...)
	return rep, err
}
