// Command garnetbench is the Garnet benchmark. It runs one named workload
// with a seed for a fixed wall time, checks every output of the program
// against a reference it computes itself, and prints one JSON line:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run records spans around the benchmark's own calls into each layer and
// prints the per-layer metrics instead. See README.md for the workloads,
// the metrics and the layer each one belongs to.
//
// Build and run it from the repository root with
//
//	bash garnetbench/run.sh --workload sensor_field --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is what every workload receives.
type config struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	workdir string // scratch space inside the checkout (archive directories, span dumps)
}

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload hands back to main.
type report struct {
	attempted int64
	failed    int64
	metrics   map[string]metric
	notes     []string // human-readable lines printed before the JSON
}

func (r *report) set(name, unit string, v float64) {
	if r.metrics == nil {
		r.metrics = make(map[string]metric)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// checkError marks a wrong program output, as opposed to a benchmark
// that could not run at all.
type checkError struct{ msg string }

func (e *checkError) Error() string { return e.msg }

func wrong(format string, args ...any) error {
	return &checkError{msg: fmt.Sprintf(format, args...)}
}

type workload struct {
	name string
	run  func(cfg config) (*report, error)
}

var workloads = []workload{
	{"sensor_field", runSensorField},
	{"fanout_storm", runFanoutStorm},
	{"archive_restart", runArchiveRestart},
	{"demand_churn", runDemandChurn},
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name    = flag.String("workload", "", "workload to run: "+workloadNames())
		seed    = flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds = flag.Int("seconds", 10, "wall seconds to measure")
		trace   = flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
		workdir = flag.String("workdir", ".bench_build", "scratch directory for archives and span dumps")
	)
	flag.Parse()
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fmt.Fprintf(os.Stderr, "garnetbench: unknown workload %q (want one of %s)\n", *name, workloadNames())
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "garnetbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	dir, err := filepath.Abs(*workdir)
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "garnetbench: workdir: %v\n", err)
		return 2
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, workdir: dir}

	rep, err := wl.run(cfg)
	correct := true
	if err != nil {
		if _, ok := err.(*checkError); !ok {
			fmt.Fprintf(os.Stderr, "garnetbench: %s: %v\n", wl.name, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "garnetbench: %s: WRONG OUTPUT: %v\n", wl.name, err)
		correct = false
	}
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, rep.attempted, rep.failed, rep.metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "garnetbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// rounds repeats one round of fixed work until the run's wall budget is
// spent. The first round warms caches and the heap and is left out of
// the timings; at least minRounds more follow whatever the budget.
func rounds(cfg config, minRounds int, round func(i int) error) error {
	start := time.Now()
	for i := 0; i <= minRounds || time.Since(start) < cfg.seconds; i++ {
		if err := round(i); err != nil {
			return err
		}
	}
	return nil
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not reach).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// hostNote describes the host; every run prints it.
func hostNote() string {
	return fmt.Sprintf("host_cpus=%d gomaxprocs=%d go=%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}
