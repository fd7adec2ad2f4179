// Command perfbench is the repository's benchmark. It builds the
// system in-process from its public constructors, drives one workload
// for a fixed time from a seed, checks every output, and prints the
// workload's metrics as one JSON object on the last line of standard
// output:
//
//	bash perfbench/run.sh --workload cold-sweep --seed 1 --seconds 40 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs the workload again with spans recorded around every call into
// the system, measures each layer on its own, and prints the per-layer
// metrics. See README.md in this directory for the workloads, the
// metrics and which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports each of them (README.md defines them per workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"lat_p50_ms", "ms"},
	{"lat_p99_ms", "ms"},
	{"ops_per_s", "req/s"},
	{"alloc_bytes_per_op", "B"},
	{"ok_ratio", "ok/attempted"},
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"cold-sweep": runColdSweep,
	"byom-fill":  runByomFill,
}

// maxFailNotes bounds how many failure descriptions are kept for the
// standard-error report.
const maxFailNotes = 20

// bench is one run: its arguments, the tracer, the tally of checked
// operations and the metrics recorded so far.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	out      string // scratch space under the checkout's .bench_build
	env      envStamp
	tr       *tracer

	attempted atomic.Int64
	failed    atomic.Int64

	mu       sync.Mutex
	notes    []string
	metrics  map[string]float64
	fixtures []*fixture
}

// op tallies one checked operation; a non-nil err marks it failed.
func (b *bench) op(err error) {
	b.attempted.Add(1)
	if err == nil {
		return
	}
	b.failed.Add(1)
	b.mu.Lock()
	if len(b.notes) < maxFailNotes {
		b.notes = append(b.notes, err.Error())
	}
	b.mu.Unlock()
}

// set records a metric value.
func (b *bench) set(name string, v float64) {
	b.mu.Lock()
	b.metrics[name] = v
	b.mu.Unlock()
}

// note records a fact needed to read a metric (its base, its
// percentile) in the environment line.
func (b *bench) note(key, format string, args ...any) {
	b.mu.Lock()
	b.env.Notes[key] = fmt.Sprintf(format, args...)
	b.mu.Unlock()
}

// track remembers a fixture so the traced run can total its router's
// counters.
func (b *bench) track(f *fixture) {
	b.mu.Lock()
	b.fixtures = append(b.fixtures, f)
	b.mu.Unlock()
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload to run: cold-sweep or byom-fill")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 40, "how long the measured phase runs")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	flag.Parse()
	drive, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload cold-sweep|byom-fill --seed N --seconds N --trace 0|1\n")
		return 2
	}
	out := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(out)
	b := &bench{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		out:      out,
		tr:       &tracer{on: *trace == 1},
		metrics:  map[string]float64{},
	}
	b.env = newEnvStamp(*workload, *seed, *seconds, b.traced, out)
	// Goldens live in the repository; reading them also proves the run
	// sits at the root of a checkout.
	if _, err := loadGoldens(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}

	var err error
	if b.traced {
		err = b.runTraced(drive)
	} else {
		err = drive(b)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.workload, err)
		return 1
	}
	defs := endToEnd
	if b.traced {
		defs = layerMetrics()
	}
	return b.report(defs)
}

// runTraced is the traced run: the workload's own traced phase, two
// cold passes for the core metrics, then every layer on its own. The
// spans are written out when it ends.
func (b *bench) runTraced(drive func(*bench) error) error {
	if err := drive(b); err != nil {
		return err
	}
	if b.workload != "cold-sweep" {
		if err := b.coldTraced(); err != nil {
			return err
		}
	}
	if err := b.probeLayers(); err != nil {
		return err
	}
	var routed, failovers int64
	for _, f := range b.fixtures {
		failovers += f.router.Stats().Failovers
		routed += f.routedOK()
	}
	b.set("shard.routed", float64(routed))
	b.set("shard.failovers", float64(failovers))
	dir := filepath.Join(".bench_build", "perfbench", "traces")
	path, err := b.tr.write(dir, fmt.Sprintf("%s-seed%d", b.workload, b.seed))
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	return nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the environment line and the result line. A metric the
// run failed to produce is an error of the benchmark, not a zero.
func (b *bench) report(defs []metricDef) int {
	res := result{
		Correct:   b.failed.Load() == 0,
		Attempted: b.attempted.Load(),
		Failed:    b.failed.Load(),
		Metrics:   map[string]metricValue{},
	}
	var missing []string
	for _, d := range defs {
		v, ok := b.metrics[d.name]
		if !ok || v != v { // absent or NaN
			missing = append(missing, d.name)
			continue
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		fmt.Fprintf(os.Stderr, "perfbench: %s produced no value for %v\n", b.workload, missing)
		return 1
	}
	if res.Attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %s attempted nothing\n", b.workload)
		return 1
	}
	for _, n := range b.notes {
		fmt.Fprintf(os.Stderr, "perfbench: failed: %s\n", n)
	}
	b.env.HostRef = append(b.env.HostRef, hostRef())
	env, _ := json.Marshal(map[string]any{"env": b.env})
	line, _ := json.Marshal(res)
	fmt.Printf("%s\n%s\n", env, line)
	return 0
}
