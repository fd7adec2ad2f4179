package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
)

// goldenIDs are the experiments whose default quick output is pinned in
// internal/core/testdata/golden.
var goldenIDs = []string{"T1", "M3", "M4", "M5", "M6"}

// sweepPlatform is the preset of the second pass: everything it can
// answer. ib-64n is left out because F14 on it alone takes seconds.
const sweepPlatform = "bgp-64n"

// setupReps is how many times cold-sweep builds its plan to time it.
const setupReps = 101

// minPasses is the fewest passes a run makes; sweepTailPct is the
// highest percentile of run times that many passes support, reported
// whatever the pass count so that it always names the same rank.
const (
	minPasses    = 2
	sweepTailPct = 90.0
)

// loadGoldens reads the pinned default outputs (never writes them).
func loadGoldens() (map[string][]byte, error) {
	g := map[string][]byte{}
	for _, id := range goldenIDs {
		b, err := os.ReadFile(filepath.Join("internal", "core", "testdata", "golden", id+"_quick.txt"))
		if err != nil {
			return nil, fmt.Errorf("read golden: %w", err)
		}
		g[id] = b
	}
	return g, nil
}

// sweepItem is one run of a pass.
type sweepItem struct {
	e   core.Experiment
	req core.Request
}

// name is the item's metric suffix: "F6" or "F6.bgp-64n".
func (it sweepItem) name() string {
	if it.req.Platform == "" {
		return it.e.ID
	}
	return it.e.ID + "." + it.req.Platform
}

// sweepPlan is one pass: the whole registry at quick scale (charhpc's
// default), then everything bgp-64n can answer (charhpc -platform
// bgp-64n), serially in registry order.
func sweepPlan() []sweepItem {
	var plan []sweepItem
	for _, e := range core.All() {
		plan = append(plan, sweepItem{e, core.Request{Scale: core.Quick}})
	}
	for _, e := range core.All() {
		if e.CheckPlatform(sweepPlatform) == nil {
			plan = append(plan, sweepItem{e, core.Request{Scale: core.Quick, Platform: sweepPlatform}})
		}
	}
	return plan
}

// passResult is one timed pass.
type passResult struct {
	wall    time.Duration
	alloc   uint64          // whole-process bytes allocated during the pass
	runs    []time.Duration // per item, in plan order
	allocs  []uint64        // per item; traced passes only
	outputs [][]byte
}

// sweep runs one pass and checks every output: no error, non-empty
// text, and the pinned bytes for the golden experiments.
func (b *bench) sweep(plan []sweepItem, goldens map[string][]byte, traced bool) passResult {
	pr := passResult{runs: make([]time.Duration, len(plan)), outputs: make([][]byte, len(plan))}
	if traced {
		pr.allocs = make([]uint64, len(plan))
	}
	var before, ms runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i, it := range plan {
		var a0 uint64
		if traced {
			runtime.ReadMemStats(&ms)
			a0 = ms.TotalAlloc
		}
		s := time.Now()
		res := core.Run(it.e, it.req)
		pr.runs[i] = time.Since(s)
		if traced {
			runtime.ReadMemStats(&ms)
			pr.allocs[i] = ms.TotalAlloc - a0
			b.tr.add(res.Rec.Span())
		}
		pr.outputs[i] = res.Rec.Bytes()
		b.op(checkRun(it, res, goldens))
	}
	pr.wall = time.Since(t0)
	runtime.ReadMemStats(&ms)
	pr.alloc = ms.TotalAlloc - before.TotalAlloc
	return pr
}

// checkRun validates one cold run's output.
func checkRun(it sweepItem, res core.Result, goldens map[string][]byte) error {
	if res.Err != nil {
		return fmt.Errorf("%s: %v", it.name(), res.Err)
	}
	out := res.Rec.Bytes()
	if len(out) == 0 {
		return fmt.Errorf("%s: empty output", it.name())
	}
	if want, ok := goldens[it.e.ID]; ok && it.req.Platform == "" && !bytes.Equal(out, want) {
		return fmt.Errorf("%s: output differs from its golden", it.name())
	}
	return nil
}

// runColdSweep measures whole passes, at least minPasses, until the
// next one would overrun --seconds by more than half a pass. The seed
// has nothing to draw here: a pass is the fixed registry. The set-up is
// what charhpc does before its first run: list the registry and check
// which experiments the platform can answer. It takes microseconds, so
// it is timed setupReps times before the first pass and again after
// every pass, and setup_s is the median of all of them: one burst of
// host contention cannot then decide it. Reading the goldens is the
// benchmark's own work and is left out of it.
func runColdSweep(b *bench) error {
	goldens, err := loadGoldens()
	if err != nil {
		return err
	}
	var setups []float64
	var plan []sweepItem
	setUp := func() {
		for i := 0; i < setupReps; i++ {
			t0 := time.Now()
			plan = sweepPlan()
			setups = append(setups, time.Since(t0).Seconds())
		}
	}
	setUp()
	if b.traced {
		plain, traced := b.coldTracedPasses(plan, goldens)
		b.set("obs.trace_overhead_ratio", traced.wall.Seconds()/plain.wall.Seconds())
		b.note("obs.trace_overhead_ratio", "traced / untraced pass wall_s (%.3fs / %.3fs)", traced.wall.Seconds(), plain.wall.Seconds())
		b.set("loadgen.sent", float64(2*len(plan)))
		b.set("loadgen.failed", float64(b.failed.Load()))
		b.set("serve.runs", 0)
		b.set("serve.mem_hit_ratio", 0)
		b.note("serve.mem_hit_ratio", "cold-sweep sends no GETs")
		return nil
	}

	var passes []passResult
	start := time.Now()
	for {
		passes = append(passes, b.sweep(plan, goldens, false))
		setUp()
		last := passes[len(passes)-1].wall
		if len(passes) >= minPasses && time.Since(start) >= b.seconds-last/2 {
			break
		}
	}
	b.set("setup_s", median(setups))
	var walls, allocs []float64
	var runs []time.Duration
	total := 0.0
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
		allocs = append(allocs, float64(p.alloc))
		total += p.wall.Seconds()
		runs = append(runs, p.runs...)
	}
	d := newDist(runs)
	b.set("wall_s", median(walls))
	b.set("lat_p50_ms", d.p50())
	b.set("lat_p99_ms", quantile(d.ms, sweepTailPct))
	b.note("lat_p99_ms", "p%g of %d experiment runs (p99 would need %d)", sweepTailPct, d.n(), 100*minBeyond)
	b.set("ops_per_s", float64(len(runs))/total)
	b.set("alloc_bytes_per_op", median(allocs))
	b.note("alloc_bytes_per_op", "bytes allocated per pass of %d runs, median of %d passes", len(plan), len(passes))
	b.set("ok_ratio", b.okRatio())
	return nil
}

// coldTraced is the cold part of a traced run for the workloads that
// are not cold-sweep: the per-run core metrics still come from two
// cold passes.
func (b *bench) coldTraced() error {
	g, err := loadGoldens()
	if err != nil {
		return err
	}
	b.coldTracedPasses(sweepPlan(), g)
	return nil
}

// coldTracedPasses runs an untraced and a traced pass, compares their
// outputs byte for byte, records the core metrics and returns both
// passes. The differing outputs are the known nondeterminism of the sim
// fabric and the host-measured experiments: reported, never failed,
// never skipped.
func (b *bench) coldTracedPasses(plan []sweepItem, goldens map[string][]byte) (passResult, passResult) {
	plain := b.sweep(plan, goldens, false)
	sp := b.tr.start("cold-sweep.pass")
	traced := b.sweep(plan, goldens, true)
	sp.End()
	var unstable []string
	for i, it := range plan {
		b.set("core.run_ms."+it.name(), float64(traced.runs[i])/float64(time.Millisecond))
		if _, ok := coreAllocMetrics[it.name()]; ok {
			b.set("core.alloc_mb."+it.name(), float64(traced.allocs[i])/1e6)
		}
		if !bytes.Equal(plain.outputs[i], traced.outputs[i]) {
			unstable = append(unstable, it.name())
		}
	}
	sort.Strings(unstable)
	b.set("core.unstable_outputs", float64(len(unstable)))
	b.note("core.unstable_outputs", "%s", strings.Join(unstable, ","))
	fmt.Fprintf(os.Stderr, "perfbench: outputs that differed between two passes: %v\n", unstable)
	return plain, traced
}

// okRatio is the share of checked operations that succeeded.
func (b *bench) okRatio() float64 {
	a := b.attempted.Load()
	if a == 0 {
		return 0
	}
	return float64(a-b.failed.Load()) / float64(a)
}
