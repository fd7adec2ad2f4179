package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
)

const (
	// byomClients is the closed loop's client count (nproc here).
	byomClients = 2
	// byomSetups is how many times byom-fill builds its fixture to time
	// the set-up.
	byomSetups = 51
)

// failedLatency stands in for the latency of a failed request, so that
// a failure always lands in the tail.
const failedLatency = time.Hour

// specState is what one registered spec's first user filled: the name,
// and per byomIDs entry the media type, ETag and bytes it was served.
type specState struct {
	name   string
	spec   []byte
	media  [4]int
	etags  [4]string
	bodies [4][]byte
}

// byomRun is one measured phase of byom-fill.
type byomRun struct {
	b    *bench
	base string

	mu    sync.Mutex
	hist  map[int]*specState // user index -> the spec that user used
	lat   []time.Duration    // every request
	fills []time.Duration    // the cold GETs of new users
	gets  int                // blocking GETs sent, the base of the memory hit ratio
}

// timed performs one request, records its latency from the moment it
// was sent to the end of its body, and tallies the check's outcome.
func (r *byomRun) timed(parent *obs.Span, name string, c *http.Client, method, u, accept, inm string, body []byte, check func(*http.Response, []byte) error) ([]byte, *http.Response, error) {
	sp := parent.StartChild(name)
	t0 := time.Now()
	resp, rb, err := do(c, method, u, accept, inm, body)
	if err == nil {
		err = check(resp, rb)
	}
	d := time.Since(t0)
	sp.End()
	if err != nil {
		d = failedLatency
	}
	r.mu.Lock()
	r.lat = append(r.lat, d)
	if name == "byom.fill" {
		r.fills = append(r.fills, d)
	}
	if method == http.MethodGet && accept != "text/event-stream" {
		r.gets++
	}
	r.mu.Unlock()
	r.b.op(err)
	return rb, resp, err
}

// do performs one request and reads the whole body.
func do(c *http.Client, method, u, accept, inm string, body []byte) (*http.Response, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, u, rd)
	if err != nil {
		return nil, nil, err
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, nil, err
	}
	rb, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, rb, err
}

// want returns a check that the response has the given status.
func want(status int, what string) func(*http.Response, []byte) error {
	return func(resp *http.Response, _ []byte) error {
		if resp.StatusCode != status {
			return fmt.Errorf("%s: %s, want %d", what, resp.Status, status)
		}
		return nil
	}
}

// expURL is the blocking GET of one experiment on a platform.
func expURL(base, id, platform string) string {
	return base + "/experiments/" + id + "?scale=quick&platform=" + url.QueryEscape(platform)
}

// register POSTs a spec and checks the status and the returned name.
func (r *byomRun) register(sp *obs.Span, c *http.Client, spec []byte, name string, status int, existed bool) error {
	_, _, err := r.timed(sp, "byom.register", c, http.MethodPost, r.base+"/platforms", "", "", spec, func(resp *http.Response, rb []byte) error {
		if resp.StatusCode != status {
			return fmt.Errorf("POST /platforms: %s, want %d", resp.Status, status)
		}
		var reg struct {
			Name    string `json:"name"`
			Existed bool   `json:"existed"`
		}
		if err := json.Unmarshal(rb, &reg); err != nil {
			return fmt.Errorf("POST /platforms: %v", err)
		}
		if reg.Name != name || reg.Existed != existed {
			return fmt.Errorf("POST /platforms: name %s existed %v, want %s %v", reg.Name, reg.Existed, name, existed)
		}
		return nil
	})
	return err
}

// newUser runs a first-time user: register, cold GETs, an async M6 job
// followed to its terminal event, the blocking GET that event points
// at, and one conditional re-read.
func (r *byomRun) newUser(c *http.Client, u byomUser, name string) {
	sp := r.b.tr.start("byom.user")
	defer sp.End()
	if r.register(sp, c, u.spec, name, http.StatusCreated, false) != nil {
		return
	}
	st := &specState{name: name, spec: u.spec, media: u.media}
	for k, id := range byomIDs {
		mt := mediaTypes[u.media[k]]
		rb, resp, err := r.timed(sp, "byom.fill", c, http.MethodGet, expURL(r.base, id, name), mt, "", nil, want(http.StatusOK, "GET "+id))
		if err != nil {
			return
		}
		st.etags[k], st.bodies[k] = resp.Header.Get("ETag"), rb
	}

	var sub struct {
		EventsURL string `json:"events_url"`
	}
	submit := r.base + "/runs?id=" + byomJobID + "&scale=quick&platform=" + url.QueryEscape(name)
	if _, _, err := r.timed(sp, "byom.submit", c, http.MethodPost, submit, "", "", nil, func(resp *http.Response, rb []byte) error {
		if resp.StatusCode != http.StatusAccepted {
			return fmt.Errorf("POST /runs: %s", resp.Status)
		}
		return json.Unmarshal(rb, &sub)
	}); err != nil {
		return
	}
	var term jobEvent
	if _, _, err := r.timed(sp, "byom.events", c, http.MethodGet, r.base+sub.EventsURL, "text/event-stream", "", nil, func(resp *http.Response, rb []byte) error {
		evs, err := parseSSE(rb)
		if err != nil {
			return err
		}
		term = evs[len(evs)-1]
		if term.Type != "done" || term.Data["etag"] == "" {
			return fmt.Errorf("job %s ended %q", sub.EventsURL, term.Type)
		}
		return nil
	}); err != nil {
		return
	}
	r.timed(sp, "byom.get", c, http.MethodGet, expURL(r.base, byomJobID, name), "text/plain", "", nil, func(resp *http.Response, _ []byte) error {
		if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") != term.Data["etag"] {
			return fmt.Errorf("GET %s after its job: %s ETag %s, job said %s", byomJobID, resp.Status, resp.Header.Get("ETag"), term.Data["etag"])
		}
		return nil
	})
	k := u.cond
	r.timed(sp, "byom.reget", c, http.MethodGet, expURL(r.base, byomIDs[k], name), mediaTypes[u.media[k]], st.etags[k], nil, func(resp *http.Response, _ []byte) error {
		if resp.StatusCode != http.StatusNotModified || resp.Header.Get("ETag") != st.etags[k] {
			return fmt.Errorf("conditional GET %s: %s, want 304", byomIDs[k], resp.Status)
		}
		return nil
	})
	if u.check {
		r.checkDirect(sp, c, name)
	}
	r.mu.Lock()
	r.hist[u.idx] = st
	r.mu.Unlock()
}

// checkDirect compares the served M3 text on a custom with a direct
// core.Run of the same request.
func (r *byomRun) checkDirect(sp *obs.Span, c *http.Client, name string) {
	e, _ := core.Get("M3")
	direct := core.Run(e, core.Request{Scale: core.Quick, Platform: name})
	r.timed(sp, "byom.get", c, http.MethodGet, expURL(r.base, "M3", name), "text/plain", "", nil, func(resp *http.Response, rb []byte) error {
		if direct.Err != nil {
			return fmt.Errorf("direct M3 on %s: %v", name, direct.Err)
		}
		if resp.StatusCode != http.StatusOK || !bytes.Equal(rb, direct.Rec.Bytes()) {
			return fmt.Errorf("M3 on %s: served bytes differ from a direct core.Run", name)
		}
		return nil
	})
}

// reuseUser re-posts an earlier user's spec (expect 200, same name) and
// reads the keys that user filled. A key still in the memory cache must
// come back with the same ETag and bytes; one the custom namespace has
// evicted since is run again, and must carry the same results.
func (r *byomRun) reuseUser(c *http.Client, u byomUser) {
	sp := r.b.tr.start("byom.reuse")
	defer sp.End()
	r.mu.Lock()
	st := r.hist[u.reuse]
	r.mu.Unlock()
	if st == nil {
		r.b.op(fmt.Errorf("user %d: the user %d it reuses did not finish", u.idx, u.reuse))
		return
	}
	if r.register(sp, c, st.spec, st.name, http.StatusOK, true) != nil {
		return
	}
	for k, id := range byomIDs {
		r.timed(sp, "byom.get", c, http.MethodGet, expURL(r.base, id, st.name), mediaTypes[st.media[k]], "", nil, func(resp *http.Response, rb []byte) error {
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("re-read %s on %s: %s", id, st.name, resp.Status)
			}
			if resp.Header.Get("ETag") == st.etags[k] && bytes.Equal(rb, st.bodies[k]) {
				return nil
			}
			if !sameResults(rb, st.bodies[k]) {
				return fmt.Errorf("re-read %s on %s (%s): results differ from the first fill", id, st.name, mediaTypes[st.media[k]])
			}
			return nil
		})
	}
	r.mu.Lock()
	r.hist[u.idx] = st
	r.mu.Unlock()
}

// sameResults reports whether two renderings of one modeled request
// carry the same results. Text and CSV must be byte-identical; a JSON
// envelope also stamps the run's elapsed time, which is left out.
func sameResults(a, b []byte) bool {
	if bytes.Equal(a, b) {
		return true
	}
	var ja, jb map[string]any
	if json.Unmarshal(a, &ja) != nil || json.Unmarshal(b, &jb) != nil {
		return false
	}
	delete(ja, "elapsed_seconds")
	delete(jb, "elapsed_seconds")
	return reflect.DeepEqual(ja, jb)
}

// jobEvent is one SSE frame's payload.
type jobEvent struct {
	Type string            `json:"type"`
	Data map[string]string `json:"data"`
}

// parseSSE decodes a complete event stream; it must end in a terminal
// event.
func parseSSE(b []byte) ([]jobEvent, error) {
	var evs []jobEvent
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev jobEvent
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return nil, fmt.Errorf("SSE frame: %v", err)
		}
		evs = append(evs, ev)
	}
	if len(evs) == 0 {
		return nil, fmt.Errorf("empty event stream")
	}
	switch evs[len(evs)-1].Type {
	case "done", "failed", "canceled":
		return evs, nil
	}
	return nil, fmt.Errorf("event stream ended without a terminal event")
}

// batch runs one batch of users on the clients, user j on client j mod
// byomClients, and returns its wall time.
func (r *byomRun) batch(clients []*http.Client, users []byomUser, names []string) time.Duration {
	t0 := time.Now()
	var wg sync.WaitGroup
	for k, c := range clients {
		wg.Add(1)
		go func(k int, c *http.Client) {
			defer wg.Done()
			for j := k; j < len(users); j += len(clients) {
				if users[j].reuse >= 0 {
					r.reuseUser(c, users[j])
				} else {
					r.newUser(c, users[j], names[j])
				}
			}
		}(k, c)
	}
	wg.Wait()
	return time.Since(t0)
}

// phaseResult is one measured byom-fill phase.
type phaseResult struct {
	walls   []float64
	lat     []time.Duration
	fills   []time.Duration
	gets    int
	elapsed time.Duration
	alloc   uint64
}

// phase runs batches from batch number first until d has passed, and
// returns the next unused batch number with the phase's numbers. The
// user scripts and expected names are drawn before each batch starts.
func (r *byomRun) phase(clients []*http.Client, first int, d time.Duration) (int, phaseResult, error) {
	var pr phaseResult
	r.lat, r.fills, r.gets = nil, nil, 0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	a0 := ms.TotalAlloc
	var busy time.Duration
	b := first
	for ; busy < d; b++ {
		users := byomUsers(r.b.seed, b)
		names := make([]string, len(users))
		for i, u := range users {
			if u.reuse >= 0 {
				continue
			}
			spec, err := cluster.ParseSpec(u.spec)
			if err != nil {
				return b, pr, fmt.Errorf("generated spec of user %d: %w", u.idx, err)
			}
			names[i] = spec.Name()
		}
		w := r.batch(clients, users, names)
		busy += w
		pr.walls = append(pr.walls, w.Seconds())
	}
	pr.elapsed = busy
	runtime.ReadMemStats(&ms)
	pr.alloc = ms.TotalAlloc - a0
	r.mu.Lock()
	pr.lat, pr.fills, pr.gets = r.lat, r.fills, r.gets
	r.mu.Unlock()
	return b, pr, nil
}

// runByomFill times byomSetups set-ups, then runs batches of users on
// the last fixture for --seconds. The traced run splits that time into
// an untraced and a traced half-length phase. The shards run without a
// disk store: the store fsyncs every entry, and on a shared disk that
// wait swings several-fold from second to second, which would drown
// every other layer (the diskcache layer is measured on its own in the
// traced run).
func runByomFill(b *bench) error {
	setups := byomSetups
	if b.traced {
		setups = 1
	}
	var f *fixture
	var times []float64
	for i := 0; i < setups; i++ {
		if f != nil {
			f.close()
		}
		sp := b.tr.start("byom.setup")
		t0 := time.Now()
		var err error
		f, err = newFixture()
		times = append(times, time.Since(t0).Seconds())
		sp.End()
		if err != nil {
			return err
		}
	}
	defer f.close()
	b.track(f)
	clients := make([]*http.Client, byomClients)
	for i := range clients {
		clients[i] = newClient()
		defer clients[i].CloseIdleConnections()
	}
	r := &byomRun{b: b, base: f.url(), hist: map[int]*specState{}}
	if b.traced {
		return b.byomTraced(f, r, clients)
	}
	b.set("setup_s", median(times))
	_, pr, err := r.phase(clients, 0, b.seconds)
	if err != nil {
		return err
	}
	d, fills := newDist(pr.lat), newDist(pr.fills)
	p99, pct := d.tail(99)
	if pct != 99 {
		return fmt.Errorf("%d requests cannot support a p99", d.n())
	}
	chunks := newDistMS(chunkTails(pr.lat))
	b.set("wall_s", median(pr.walls))
	b.note("wall_s", "one batch of %d users on %d clients, median of %d batches", byomBatch, byomClients, len(pr.walls))
	b.set("lat_p50_ms", d.p50())
	b.set("lat_p99_ms", p99)
	b.note("lat_p99_ms", "all %d requests of the run (p99s of %d chunks of %d requests: median %.3f, lower quartile %.3f ms; %d cold fills: p50 %.3f, p99 %.3f ms)",
		d.n(), chunks.n(), tailChunk, chunks.p50(), quantile(chunks.ms, 25), fills.n(), fills.p50(), quantile(fills.ms, 99))
	b.set("ops_per_s", float64(len(pr.lat))/pr.elapsed.Seconds())
	b.set("alloc_bytes_per_op", float64(pr.alloc)/float64(len(pr.lat)))
	b.set("ok_ratio", b.okRatio())
	return nil
}

// byomTraced runs the untraced and traced phases back to back.
func (b *bench) byomTraced(f *fixture, r *byomRun, clients []*http.Client) error {
	half := b.seconds / 4
	st0 := f.stats()
	b.tr.on = false
	next, plain, err := r.phase(clients, 0, half)
	if err != nil {
		return err
	}
	b.tr.on = true
	_, traced, err := r.phase(clients, next, half)
	if err != nil {
		return err
	}
	st1 := f.stats()
	p, t := newDist(plain.lat).p50(), newDist(traced.lat).p50()
	b.set("obs.trace_overhead_ratio", t/p)
	b.note("obs.trace_overhead_ratio", "traced / untraced lat_p50_ms (%.4f / %.4f)", t, p)
	b.set("loadgen.sent", float64(len(plain.lat)+len(traced.lat)))
	b.set("loadgen.failed", float64(b.failed.Load()))
	gets := plain.gets + traced.gets
	b.set("serve.runs", float64(st1.Runs-st0.Runs))
	b.set("serve.mem_hit_ratio", float64(st1.MemHits-st0.MemHits)/float64(gets))
	b.note("serve.mem_hit_ratio", "memory hits %d / blocking GETs %d", st1.MemHits-st0.MemHits, gets)
	return nil
}
