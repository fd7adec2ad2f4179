package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/diskcache"
	"repro/internal/fft"
	"repro/internal/linalg"
	"repro/internal/mp"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/sparse"
	"repro/internal/stencil"
)

// coreAllocMetrics are the runs that allocate at least 100 MB per quick
// run on the seed code; each gets a core.alloc_mb metric.
var coreAllocMetrics = map[string]struct{}{
	"F1": {}, "F2": {}, "F3": {}, "F5": {}, "F6": {}, "F12": {}, "F13": {}, "T4": {},
	"F1.bgp-64n": {}, "F2.bgp-64n": {}, "F3.bgp-64n": {}, "F5.bgp-64n": {}, "F6.bgp-64n": {},
	"F12.bgp-64n": {}, "F13.bgp-64n": {}, "F14.bgp-64n": {},
}

// allreduceAlgos are the algorithms the mp probe times.
var allreduceAlgos = []struct {
	name string
	algo mp.AllreduceAlgo
}{
	{"recursive_doubling", mp.AllreduceRecursiveDoubling},
	{"rabenseifner", mp.AllreduceRabenseifner},
	{"ring", mp.AllreduceRing},
}

// fftSizes are the transform lengths the fft probe times.
var fftSizes = []int{4096, 65536}

// simSetupPresets are the presets whose NewSim set-up is timed.
var simSetupPresets = []string{"bgp-64n", "ib-64n"}

// layerMetrics lists every per-layer metric of the traced run, in the
// order README.md's table gives them.
func layerMetrics() []metricDef {
	defs := []metricDef{
		{"shard.hop_us.p50", "us"},
		{"shard.hop_allocs", "count"},
		{"shard.register_ms.p50", "ms"},
		{"shard.ring_owner_ns", "ns"},
		{"shard.routed", "count"},
		{"shard.failovers", "count"},
		{"http.get_us.p50", "us"},
		{"http.get_allocs", "count"},
		{"serve.get_us.p50", "us"},
		{"serve.get_allocs", "count"},
		{"serve.get_bytes", "B"},
		{"serve.revalidate_us.p50", "us"},
		{"serve.fill_ms.p50", "ms"},
		{"serve.fill_ms.p99", "ms"},
		{"serve.mem_hit_ratio", "ratio"},
		{"serve.runs", "count"},
		{"diskcache.put_us.p50", "us"},
		{"diskcache.get_us.p50", "us"},
		{"diskcache.open_ms", "ms"},
		{"diskcache.entries", "count"},
		{"jobs.submit_to_done_ms.p50", "ms"},
		{"jobs.events_per_run", "count"},
		{"cluster.parse_register_us.p50", "us"},
	}
	for _, it := range sweepPlan() {
		defs = append(defs, metricDef{"core.run_ms." + it.name(), "ms"})
	}
	for _, it := range sweepPlan() {
		if _, ok := coreAllocMetrics[it.name()]; ok {
			defs = append(defs, metricDef{"core.alloc_mb." + it.name(), "MB"})
		}
	}
	defs = append(defs, metricDef{"core.unstable_outputs", "count"})
	for _, p := range simSetupPresets {
		defs = append(defs, metricDef{"mp.sim_setup_ms." + p, "ms"})
	}
	defs = append(defs, metricDef{"mp.sim_send_ns.64KiB", "ns"}, metricDef{"mp.sim_send_bytes.64KiB", "B"})
	for _, a := range allreduceAlgos {
		defs = append(defs, metricDef{"mp.allreduce_ms." + a.name, "ms"}, metricDef{"mp.allreduce_alloc_mb." + a.name, "MB"})
	}
	defs = append(defs,
		metricDef{"mp.sends", "count"},
		metricDef{"mp.bytes_sent", "B"},
		metricDef{"linalg.gemm_gflops.256", "GFLOP/s"},
	)
	for _, n := range fftSizes {
		defs = append(defs, metricDef{fmt.Sprintf("fft.forward_us.%d", n), "us"})
	}
	return append(defs,
		metricDef{"sparse.cg_ms", "ms"},
		metricDef{"stencil.serial_ms", "ms"},
		metricDef{"loadgen.sent", "count"},
		metricDef{"loadgen.failed", "count"},
		metricDef{"obs.trace_overhead_ratio", "ratio"},
	)
}

// probeLayers measures every layer on its own, timing calls into its
// public functions, and records the per-layer metrics.
func (b *bench) probeLayers() error {
	steps := []struct {
		name string
		fn   func() error
	}{
		{"probe.http", b.probeHTTP},
		{"probe.serve", b.probeServe},
		{"probe.diskcache", b.probeDiskcache},
		{"probe.mp", b.probeMP},
		{"probe.kernels", b.probeKernels},
	}
	for _, s := range steps {
		sp := b.tr.start(s.name)
		err := s.fn()
		sp.End()
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return nil
}

// warmProbeKeys are cheap keys the HTTP probes read warm: the golden
// experiments on the default set and on every compatible preset.
func warmProbeKeys() [][2]string {
	var keys [][2]string
	for _, id := range goldenIDs {
		keys = append(keys, [2]string{id, ""})
	}
	for _, id := range goldenIDs {
		e, _ := core.Get(id)
		for _, p := range cluster.Names() {
			if e.CheckPlatform(p) == nil {
				keys = append(keys, [2]string{id, p})
			}
		}
	}
	return keys
}

// mallocs returns the process's cumulative heap allocation count and
// bytes.
func mallocs() (uint64, uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// probeHTTP measures the router hop against a direct shard GET on the
// same warm keys (interleaved), the loopback GET itself, the ring
// lookup, platform registration through the router and async jobs.
func (b *bench) probeHTTP() error {
	f, err := newFixture()
	if err != nil {
		return err
	}
	defer f.close()
	b.track(f)
	keys := warmProbeKeys()
	if n := f.router.Warm(context.Background(), goldenIDs, append([]string{""}, cluster.Names()...), 2); n != len(keys) {
		return fmt.Errorf("warmed %d of %d probe keys", n, len(keys))
	}
	ring := shard.NewRing(0)
	for _, ts := range f.shardSrv {
		ring.Add(ts.URL)
	}
	type target struct{ path, owner string }
	var targets []target
	var ringKeys []string
	for _, k := range keys {
		path := "/experiments/" + k[0] + "?scale=quick"
		if k[1] != "" {
			path += "&platform=" + k[1]
		}
		key := shard.Key(k[0], "quick", k[1])
		owner, _ := ring.Owner(key)
		targets = append(targets, target{path, owner})
		ringKeys = append(ringKeys, key)
	}

	// Ring lookup.
	const ringN = 200000
	t0 := time.Now()
	for i := 0; i < ringN; i++ {
		ring.Owner(ringKeys[i%len(ringKeys)])
	}
	b.set("shard.ring_owner_ns", float64(time.Since(t0).Nanoseconds())/ringN)

	// Router GET vs direct shard GET, interleaved on the same keys.
	c := newClient()
	defer c.CloseIdleConnections()
	cd := newClient()
	defer cd.CloseIdleConnections()
	const pairs = 3000
	timeGet := func(c *http.Client, u string) time.Duration {
		t := time.Now()
		resp, _, err := do(c, http.MethodGet, u, "text/plain", "", nil)
		d := time.Since(t)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("GET %s: %s", u, resp.Status)
		}
		b.op(err)
		return d
	}
	var direct, routed []time.Duration
	for i := 0; i < pairs; i++ {
		tg := targets[i%len(targets)]
		direct = append(direct, timeGet(cd, tg.owner+tg.path))
		routed = append(routed, timeGet(c, f.url()+tg.path))
	}
	dp, rp := newDist(direct).p50(), newDist(routed).p50()
	b.set("http.get_us.p50", dp*1e3)
	b.set("shard.hop_us.p50", (rp-dp)*1e3)
	// Allocations per GET, whole process (client, router and shard).
	perGet := func(c *http.Client, viaRouter bool) float64 {
		const n = 500
		m0, _ := mallocs()
		for i := 0; i < n; i++ {
			tg := targets[i%len(targets)]
			base := tg.owner
			if viaRouter {
				base = f.url()
			}
			do(c, http.MethodGet, base+tg.path, "text/plain", "", nil)
		}
		m1, _ := mallocs()
		return float64(m1-m0) / n
	}
	da := perGet(cd, false)
	ra := perGet(c, true)
	b.set("http.get_allocs", da)
	b.set("shard.hop_allocs", ra-da)
	b.note("shard.hop_allocs", "whole-process allocations per router GET %.1f minus per direct GET %.1f", ra, da)

	// Registration through the router (fan-out included), then an async
	// M6 job on each fresh platform, followed to its terminal event.
	r := rand.New(rand.NewSource(b.seed))
	const regs = 60
	var regTimes, jobTimes []time.Duration
	var events []float64
	for i := 0; i < regs; i++ {
		spec := genSpec(r, fmt.Sprintf("perfbench probe seed %d platform %d", b.seed, i))
		t := time.Now()
		resp, _, err := do(c, http.MethodPost, f.url()+"/platforms", "", "", spec)
		regTimes = append(regTimes, time.Since(t))
		if err == nil && resp.StatusCode != http.StatusCreated {
			err = fmt.Errorf("POST /platforms: %s", resp.Status)
		}
		b.op(err)
		if err != nil || i%2 == 1 {
			continue
		}
		s, _ := cluster.ParseSpec(spec)
		t = time.Now()
		n, err := runJob(c, f.url(), byomJobID, s.Name())
		jobTimes = append(jobTimes, time.Since(t))
		events = append(events, float64(n))
		b.op(err)
	}
	b.set("shard.register_ms.p50", newDist(regTimes).p50())
	b.set("jobs.submit_to_done_ms.p50", newDist(jobTimes).p50())
	b.set("jobs.events_per_run", median(events))
	return nil
}

// runJob submits one async run and reads its event stream to the end;
// it returns the number of events.
func runJob(c *http.Client, base, id, platform string) (int, error) {
	resp, rb, err := do(c, http.MethodPost, base+"/runs?id="+id+"&scale=quick&platform="+platform, "", "", nil)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return 0, fmt.Errorf("POST /runs: %s", resp.Status)
	}
	var sub struct {
		EventsURL string `json:"events_url"`
	}
	if err := json.Unmarshal(rb, &sub); err != nil {
		return 0, err
	}
	_, sse, err := do(c, http.MethodGet, base+sub.EventsURL, "text/event-stream", "", nil)
	if err != nil {
		return 0, err
	}
	evs, err := parseSSE(sse)
	if err != nil {
		return 0, err
	}
	if t := evs[len(evs)-1]; t.Type != "done" {
		return len(evs), fmt.Errorf("job ended %q", t.Type)
	}
	return len(evs), nil
}

// wantCode is nil when a recorded status is the expected one.
func wantCode(what string, got, want int) error {
	if got != want {
		return fmt.Errorf("%s: %d, want %d", what, got, want)
	}
	return nil
}

// probeServe calls Server.ServeHTTP into a recorder, with no network:
// warm GETs and revalidations on a memory-only server, then cold fills
// of fresh custom platforms on a server with a store.
func (b *bench) probeServe() error {
	s := serve.New(serve.Config{})
	s.Warm(context.Background(), goldenIDs, append([]string{""}, cluster.Names()...), 2)
	keys := warmProbeKeys()
	var etags []string // per (key, media) slot, learned below
	// Slot i is key i/len(mediaTypes) in media type i%len(mediaTypes).
	serveOne := func(i int, inm bool) (int, string) {
		k := keys[i/len(mediaTypes)]
		req := httptest.NewRequest(http.MethodGet, "/experiments/"+k[0]+"?scale=quick&platform="+k[1], nil)
		req.Header.Set("Accept", mediaTypes[i%len(mediaTypes)])
		if inm {
			req.Header.Set("If-None-Match", etags[i%len(etags)])
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		return rec.Code, rec.Header().Get("ETag")
	}
	// Learn every (key, media) ETag once so revalidations can match.
	etags = make([]string, len(keys)*len(mediaTypes))
	for i := range etags {
		code, et := serveOne(i, false)
		if code != http.StatusOK {
			return fmt.Errorf("warm ServeHTTP: %d", code)
		}
		etags[i] = et
	}
	time1 := func(inm bool, want int) ([]time.Duration, float64, float64) {
		const n = 6000
		lat := make([]time.Duration, 0, n)
		m0, a0 := mallocs()
		for i := 0; i < n; i++ {
			t := time.Now()
			code, _ := serveOne(i%len(etags), inm)
			lat = append(lat, time.Since(t))
			b.op(wantCode("ServeHTTP", code, want))
		}
		m1, a1 := mallocs()
		return lat, float64(m1-m0) / n, float64(a1-a0) / n
	}
	lat, allocs, bytes := time1(false, http.StatusOK)
	b.set("serve.get_us.p50", newDist(lat).p50()*1e3)
	b.set("serve.get_allocs", allocs)
	b.set("serve.get_bytes", bytes)
	b.note("serve.get_allocs", "per ServeHTTP call, request and recorder construction included")
	lat, _, _ = time1(true, http.StatusNotModified)
	b.set("serve.revalidate_us.p50", newDist(lat).p50()*1e3)

	// Cold fills on fresh customs with a store, and the parse+register
	// cost of each spec.
	dir := filepath.Join(b.out, "probe-fill")
	st, err := openStore(filepath.Join(dir, "shard0"))
	if err != nil {
		return err
	}
	sf := serve.New(serve.Config{Store: st})
	r := rand.New(rand.NewSource(b.seed + 1))
	const specs = 260 // 4 fills each: enough samples to support a p99
	var fills, regs []time.Duration
	for i := 0; i < specs; i++ {
		raw := genSpec(r, fmt.Sprintf("perfbench fill probe seed %d platform %d", b.seed, i))
		t := time.Now()
		spec, err := cluster.ParseSpec(raw)
		if err != nil {
			return err
		}
		name, _ := cluster.RegisterCustom(spec)
		regs = append(regs, time.Since(t))
		for _, id := range byomIDs {
			req := httptest.NewRequest(http.MethodGet, "/experiments/"+id+"?scale=quick&platform="+name, nil)
			rec := httptest.NewRecorder()
			t := time.Now()
			sf.ServeHTTP(rec, req)
			fills = append(fills, time.Since(t))
			b.op(wantCode("cold ServeHTTP "+id+" on "+name, rec.Code, http.StatusOK))
		}
	}
	fd := newDist(fills)
	p99, pct := fd.tail(99)
	if pct != 99 {
		return fmt.Errorf("%d fills cannot support a p99", fd.n())
	}
	b.set("serve.fill_ms.p50", fd.p50())
	b.set("serve.fill_ms.p99", p99)
	b.set("cluster.parse_register_us.p50", newDist(regs).p50()*1e3)
	return b.reopenStores(dir)
}

// probeDiskcache times Store.Put and Store.Get directly on a fresh
// store, with bodies the size of a typical representation.
func (b *bench) probeDiskcache() error {
	st, err := openStore(filepath.Join(b.out, "probe-store"))
	if err != nil {
		return err
	}
	r := rand.New(rand.NewSource(b.seed + 2))
	const n = 400
	body := make([]byte, 4096)
	r.Read(body)
	var puts, gets []time.Duration
	keys := make([]diskcache.Key, n)
	for i := range keys {
		keys[i] = diskcache.Key{ID: byomIDs[i%len(byomIDs)], Scale: "quick",
			Platform: fmt.Sprintf("custom-%012x", i), ContentType: "text/plain"}
		t := time.Now()
		err := st.Put(keys[i], diskcache.Entry{ETag: fmt.Sprintf("%q", fmt.Sprint(i)), Body: body})
		puts = append(puts, time.Since(t))
		b.op(err)
	}
	for _, k := range keys {
		t := time.Now()
		_, ok := st.Get(k)
		gets = append(gets, time.Since(t))
		var err error
		if !ok {
			err = fmt.Errorf("diskcache Get %v: miss after Put", k)
		}
		b.op(err)
	}
	b.set("diskcache.put_us.p50", newDist(puts).p50()*1e3)
	b.set("diskcache.get_us.p50", newDist(gets).p50()*1e3)
	return nil
}

// probeMP times the simulated fabric: NewSim set-up on the big presets,
// a 64 KiB ping-pong, and 64-rank allreduces of 64 KiB per algorithm.
func (b *bench) probeMP() error {
	for _, p := range simSetupPresets {
		m, _ := cluster.Lookup(p)
		t := time.Now()
		if err := mp.Run(m.Topo.TotalCores(), mp.Config{Fabric: mp.Sim, Model: m}, func(*mp.Comm) error { return nil }); err != nil {
			return err
		}
		b.set("mp.sim_setup_ms."+p, float64(time.Since(t))/float64(time.Millisecond))
	}

	m, _ := cluster.Lookup("ib-8n")
	const iters = 2000
	msg := 64 << 10
	var wall time.Duration
	_, a0 := mallocs()
	err := mp.Run(2, mp.Config{Fabric: mp.Sim, Model: m}, func(c *mp.Comm) error {
		buf := make([]byte, msg)
		t := time.Now()
		for i := 0; i < iters; i++ {
			if c.Rank() == 0 {
				if err := c.Send(1, 0, buf); err != nil {
					return err
				}
				if _, err := c.Recv(1, 0, buf); err != nil {
					return err
				}
			} else {
				if _, err := c.Recv(0, 0, buf); err != nil {
					return err
				}
				if err := c.Send(0, 0, buf); err != nil {
					return err
				}
			}
		}
		if c.Rank() == 0 {
			wall = time.Since(t)
		}
		return nil
	})
	if err != nil {
		return err
	}
	_, a1 := mallocs()
	b.set("mp.sim_send_ns.64KiB", float64(wall.Nanoseconds())/(2*iters))
	b.set("mp.sim_send_bytes.64KiB", float64(a1-a0)/(2*iters))

	big, _ := cluster.Lookup("bgp-64n")
	const ranks, reps = 64, 8
	var sends, sent uint64
	for _, a := range allreduceAlgos {
		run := func(k int) (time.Duration, uint64, error) {
			var dt time.Duration
			stats := make([]mp.OpStats, ranks)
			_, a0 := mallocs()
			err := mp.Run(ranks, mp.Config{Fabric: mp.Sim, Model: big, Allreduce: a.algo}, func(c *mp.Comm) error {
				x := make([]float64, msg/8)
				y := make([]float64, msg/8)
				for i := range x {
					x[i] = float64(c.Rank() + i)
				}
				if err := c.Barrier(); err != nil {
					return err
				}
				c.ResetStats()
				t := time.Now()
				for i := 0; i < k; i++ {
					if err := c.Allreduce(mp.OpSum, x, y); err != nil {
						return err
					}
				}
				stats[c.Rank()] = c.Stats()
				if err := c.Barrier(); err != nil {
					return err
				}
				if c.Rank() == 0 {
					dt = time.Since(t)
					want := float64(ranks*(ranks-1)/2) + float64(ranks)*1
					if k > 0 && y[1] != want {
						return fmt.Errorf("allreduce %s: y[1] = %g, want %g", a.name, y[1], want)
					}
				}
				return nil
			})
			_, a1 := mallocs()
			if k > 0 {
				for _, s := range stats {
					sends += s.SendsEager + s.SendsRndv
					sent += s.BytesSent
				}
			}
			return dt, a1 - a0, err
		}
		_, base, err := run(0)
		if err != nil {
			return err
		}
		dt, alloc, err := run(reps)
		if err != nil {
			return err
		}
		b.set("mp.allreduce_ms."+a.name, float64(dt)/float64(time.Millisecond)/reps)
		b.set("mp.allreduce_alloc_mb."+a.name, (float64(alloc)-float64(base))/1e6/reps)
	}
	b.set("mp.sends", float64(sends))
	b.set("mp.bytes_sent", float64(sent))
	b.note("mp.sends", "sends over all ranks of %d allreduces of 64 KiB on %d ranks per algorithm", reps, ranks)
	return nil
}

// probeKernels times the compute kernels the experiments run.
func (b *bench) probeKernels() error {
	r := rand.New(rand.NewSource(b.seed + 3))
	const n = 256
	a, x, c := linalg.New(n, n), linalg.New(n, n), linalg.New(n, n)
	for i := range a.Data {
		a.Data[i], x.Data[i] = r.Float64(), r.Float64()
	}
	var gemm []float64
	for i := 0; i < 5; i++ {
		t := time.Now()
		if err := linalg.Gemm(1, a, x, 0, c, 1); err != nil {
			return err
		}
		gemm = append(gemm, linalg.GemmFlops(n, n, n)/time.Since(t).Seconds()/1e9)
	}
	b.set("linalg.gemm_gflops.256", median(gemm))

	for _, size := range fftSizes {
		v := make([]complex128, size)
		var us []float64
		for i := 0; i < 15; i++ {
			for j := range v {
				v[j] = complex(r.Float64(), 0)
			}
			t := time.Now()
			if err := fft.Forward(v); err != nil {
				return err
			}
			us = append(us, float64(time.Since(t))/float64(time.Microsecond))
		}
		b.set(fmt.Sprintf("fft.forward_us.%d", size), median(us))
	}

	sp, err := sparse.RandomSPD(20000, 7, uint64(b.seed))
	if err != nil {
		return err
	}
	rhs := make([]float64, 20000)
	for i := range rhs {
		rhs[i] = 1
	}
	var cg []float64
	for i := 0; i < 3; i++ {
		sol := make([]float64, len(rhs))
		t := time.Now()
		if _, err := sparse.CG(sp, rhs, sol, 200, 1e-8); err != nil {
			return err
		}
		cg = append(cg, float64(time.Since(t))/float64(time.Millisecond))
	}
	b.set("sparse.cg_ms", median(cg))

	var st []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		stencil.Serial(256, 256, 200)
		st = append(st, float64(time.Since(t))/float64(time.Millisecond))
	}
	b.set("stencil.serial_ms", median(st))
	return nil
}

// reopenStores times reopening the shard stores a run left behind and
// counts their entries.
func (b *bench) reopenStores(dir string) error {
	var open []float64
	entries := 0
	subs, err := filepath.Glob(filepath.Join(dir, "shard*"))
	if err != nil || len(subs) == 0 {
		return fmt.Errorf("no stores under %s", dir)
	}
	for _, sub := range subs {
		t0 := time.Now()
		st, err := openStore(sub)
		if err != nil {
			return err
		}
		open = append(open, float64(time.Since(t0))/float64(time.Millisecond))
		entries += st.Len()
	}
	b.set("diskcache.open_ms", median(open))
	b.set("diskcache.entries", float64(entries))
	b.note("diskcache.entries", "entry files in %d reopened stores", len(subs))
	return nil
}
