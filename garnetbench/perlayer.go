package main

import (
	"fmt"
	"os"
	"path/filepath"
)

// perLayer lists every per-layer metric a traced run prints, with its
// unit. A workload that does not reach a layer reports 0 for it; the
// README names the workloads each metric is measured on.
var perLayer = []struct{ name, unit string }{
	{"sim.events_per_op", "count"},
	{"sim.drive_self_ns_per_op", "ns"},
	{"radio.broadcasts_per_op", "count"},
	{"radio.downlink_copies_per_control", "count"},
	{"location.observe_ns", "ns"},
	{"filtering.ingest_self_ns", "ns"},
	{"filtering.accept_ratio", "ratio"},
	{"store.append_ns", "ns"},
	{"store.range_ns_per_msg", "ns"},
	{"store.archive_read_amp", "ratio"},
	{"store.archive_sync_spills", "count"},
	{"store.archive_write_ms_p50", "ms"},
	{"store.recover_ms", "ms"},
	{"archive.open_ms", "ms"},
	{"archive.disk_bytes_per_block", "B"},
	{"archive.compression_ratio", "ratio"},
	{"archive.disk_bytes_per_msg", "B"},
	{"dispatch.dispatch_self_ns", "ns"},
	{"dispatch.subscribe_replay_ms", "ms"},
	{"dispatch.replay_msgs_per_s", "msg/s"},
	{"dispatch.queue_wait_us_p50", "us"},
	{"dispatch.dropped", "count"},
	{"consumer.deliveries_per_call", "count"},
	{"orphanage.consume_ns", "ns"},
	{"core.inject_ns", "ns"},
	{"core.latency_us_p50", "us"},
	{"core.latency_us_p99", "us"},
	{"wire.encode_ns", "ns"},
	{"wire.decode_ns", "ns"},
	{"registry.require_ns", "ns"},
	{"resource.submit_ns", "ns"},
	{"actuation.issue_ns", "ns"},
	{"actuation.attempts_per_request", "ratio"},
	{"actuation.ack_sim_ms_p50", "ms"},
	{"replicator.tx_per_control", "count"},
	{"replicator.targeted_ratio", "ratio"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"generator.lag_us_p99", "us"},
	{"trace.overhead_ratio", "ratio"},
}

// fillPerLayerDefaults sets every per-layer metric to 0 so a traced run
// prints the full set whichever layers its workload reaches.
func fillPerLayerDefaults(rep *report) {
	for _, m := range perLayer {
		rep.set(m.name, m.unit, 0)
	}
}

// traceNotes writes the kept spans to the workdir and returns the lines
// a traced run prints ahead of its JSON: where the spans went and the
// tracing overhead against the untraced rounds of the same run.
func traceNotes(cfg config, name string, tr *trace, plain, traced endToEnd) []string {
	path := filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-seed%d.tsv", name, cfg.seed))
	notes := []string{fmt.Sprintf("trace: overhead %.3fx (untraced %.0f ops/s, traced %.0f ops/s)",
		ratio(plain.opsPerSecond(), traced.opsPerSecond()), plain.opsPerSecond(), traced.opsPerSecond())}
	if err := tr.dump(path); err != nil {
		fmt.Fprintf(os.Stderr, "garnetbench: span dump: %v\n", err)
	} else {
		notes = append(notes, "trace: spans written to "+path)
	}
	for i, n := range spanNames {
		if s := tr.totals(i); s.count > 0 {
			notes = append(notes, fmt.Sprintf("trace: %-26s calls=%-9d mean=%9.0fns self=%9.0fns",
				n, s.count, tr.meanNs(i), tr.meanSelfNs(i)))
		}
	}
	return notes
}
