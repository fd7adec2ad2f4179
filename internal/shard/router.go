// The Router: an http.Handler that fronts a pool of charhpcd shards
// behind the single-daemon API. Requests for one cache key always
// land on the same shard (consistent hashing on (id, scale,
// platform)), so each shard's memory/disk cache stays hot for its
// slice. Every proxied request goes through one standard-library
// httputil.ReverseProxy whose Transport is the failover walk: a
// request whose shard fails at the transport is re-routed to the next
// ring successor and re-run there (the failover counter records it),
// always before any response byte reaches the client. Responses are
// proxied byte-for-byte — body, status, ETags — so a client cannot
// tell the router from a single daemon. Hop-by-hop headers
// (Connection and the headers it names, Keep-Alive, TE,
// Proxy-Authorization, …) stay on their own hop in both directions,
// as RFC 7230 §6.1 requires, and SSE streams are flushed per chunk.
package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Router-side envelope codes, extending internal/serve's vocabulary
// for failures only a fronting tier can have. Documented in the serve
// README's code table alongside the shard codes.
const (
	codeNoLiveShard    = "no_live_shard"
	codeUpstreamFailed = "upstream_failed"
	codeBadRequest     = "bad_request"
)

// DefaultMaxJobRoutes bounds the router's job→shard routing table.
// Entries past it evict oldest-first; an evicted (or never-seen) job
// is re-located by probing the live shards, so the bound trades a
// little lookup latency for memory, not correctness.
const DefaultMaxJobRoutes = 4096

// maxRunBody bounds a POST /runs body (the run parameters travel in
// the query string or a small form body; anything larger is abuse).
const maxRunBody = 64 << 10

// Config parameterizes a Router.
type Config struct {
	// Shards are the base URLs of the charhpcd workers, e.g.
	// "http://10.0.0.1:8080". A bare host:port gets http://. At least
	// one is required.
	Shards []string

	// VNodes is the virtual-node count per shard on the hash ring;
	// 0 means DefaultVNodes.
	VNodes int

	// ScaleLimit mirrors the shards' -scale-limit so the router
	// rejects over-limit requests without a round trip. The zero
	// value limits to Quick, matching charhpcd's default.
	ScaleLimit core.Scale

	// HealthInterval and HealthTimeout parameterize the periodic
	// /healthz probes; zero means the Default* constants.
	HealthInterval time.Duration
	HealthTimeout  time.Duration

	// AccessLog, when non-nil, receives one structured line per
	// routed request. A nil *obs.Logger is also safe.
	AccessLog *obs.Logger
}

// Router fronts the shard pool. It implements http.Handler.
type Router struct {
	cfg    Config
	ring   *Ring
	hc     *health
	client *http.Client
	rp     *httputil.ReverseProxy
	mux    *http.ServeMux
	jobs   *jobTable
	log    *obs.Logger
	start  time.Time

	reg           *obs.Registry
	failovers     *obs.Counter
	warmPlanned   *obs.Gauge
	warmCompleted *obs.Gauge
	warmRunning   *obs.Gauge
}

// Stats is a snapshot of the router's own counters, for embedding
// binaries and tests; /metrics exposes the same numbers.
type Stats struct {
	ShardsUp    int
	ShardsTotal int
	Failovers   int64
}

// Stats returns the current snapshot.
func (rt *Router) Stats() Stats {
	return Stats{
		ShardsUp:    rt.hc.upCount(),
		ShardsTotal: len(rt.ring.Shards()),
		Failovers:   rt.failovers.Value(),
	}
}

// Registry returns the router's metric registry (private to the
// router; GET /metrics serves it).
func (rt *Router) Registry() *obs.Registry { return rt.reg }

// New builds a Router over the given shard pool and starts its health
// loop; Close stops it.
func New(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("shard: no shards configured")
	}
	var shards []string
	seen := map[string]bool{}
	for _, s := range cfg.Shards {
		s = strings.TrimRight(strings.TrimSpace(s), "/")
		if s == "" {
			continue
		}
		if !strings.Contains(s, "://") {
			s = "http://" + s
		}
		u, err := url.Parse(s)
		if err != nil || u.Host == "" {
			return nil, fmt.Errorf("shard: bad shard URL %q", s)
		}
		if !seen[s] {
			seen[s] = true
			shards = append(shards, s)
		}
	}
	if len(shards) == 0 {
		return nil, fmt.Errorf("shard: no shards configured")
	}

	// No global timeout: blocking GETs and SSE streams legitimately
	// run long. Enough idle connections per shard keep a hot pool's
	// connections alive.
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 64,
		IdleConnTimeout:     90 * time.Second,
	}}
	reg := obs.NewRegistry()
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = DefaultHealthInterval
	}
	if cfg.HealthTimeout <= 0 {
		cfg.HealthTimeout = DefaultHealthTimeout
	}
	rt := &Router{
		cfg:    cfg,
		ring:   NewRing(cfg.VNodes),
		client: client,
		mux:    http.NewServeMux(),
		jobs:   newJobTable(DefaultMaxJobRoutes),
		log:    cfg.AccessLog,
		start:  time.Now(),
		reg:    reg,
		failovers: reg.Counter("charhpc_router_failovers_total",
			"requests re-routed to a ring successor after their shard failed"),
		warmPlanned: reg.Gauge("charhpc_router_warm_planned",
			"fan-out warm-up keys planned across the shard pool"),
		warmCompleted: reg.Gauge("charhpc_router_warm_completed",
			"fan-out warm-up keys resolved (warmed or failed)"),
		warmRunning: reg.Gauge("charhpc_router_warm_running",
			"1 while a fan-out warm-up is in flight"),
	}
	rt.rp = &httputil.ReverseProxy{
		// The failover transport picks the shard per attempt; path and
		// query go through untouched.
		Rewrite:        func(*httputil.ProxyRequest) {},
		Transport:      failover{rt},
		ModifyResponse: rt.modifyResponse,
		ErrorHandler:   rt.proxyError,
		BufferPool:     proxyBuffers,
	}
	for _, s := range shards {
		rt.ring.Add(s)
	}
	rt.hc = newHealth(shards, client, cfg.HealthInterval, cfg.HealthTimeout, func(shard string, up bool) {
		rt.log.Info("shard health change", "shard", shard, "up", up)
	})
	for _, s := range shards {
		s := s
		reg.GaugeFunc("charhpc_router_shard_up",
			"1 while the labeled shard answers health probes",
			func() float64 {
				if rt.hc.isUp(s) {
					return 1
				}
				return 0
			}, obs.L("shard", s))
	}
	reg.GaugeFunc("charhpc_router_uptime_seconds", "seconds since the router was built",
		func() float64 { return time.Since(rt.start).Seconds() })

	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	rt.mux.HandleFunc("GET /experiments", rt.handleAny)
	rt.mux.HandleFunc("GET /experiments/{id}", rt.handleExperiment)
	rt.mux.HandleFunc("GET /platforms", rt.handleAny)
	rt.mux.HandleFunc("GET /platforms/{name}", rt.handleAny)
	rt.mux.HandleFunc("POST /platforms", rt.handlePlatformRegister)
	rt.mux.HandleFunc("POST /runs", rt.handleSubmitRun)
	rt.mux.HandleFunc("GET /runs", rt.handleJobList)
	rt.mux.HandleFunc("GET /runs/{job}", rt.handleJob)
	rt.mux.HandleFunc("DELETE /runs/{job}", rt.handleJob)
	rt.mux.HandleFunc("GET /runs/{job}/events", rt.handleJob)
	rt.mux.HandleFunc("GET /debug/traces", rt.handleAny)
	rt.hc.start()
	return rt, nil
}

// Close stops the health loop.
func (rt *Router) Close() { rt.hc.close() }

// ServeHTTP implements http.Handler: request-ID handling (an inbound
// X-Request-ID is reused on the shard hop — never re-minted — so one
// ID greps across both the router's and the shard's access logs),
// then the routed handler, then metrics and one access-log line.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	rid := r.Header.Get("X-Request-ID")
	if rid == "" {
		rid = obs.NewRequestID()
		// Stamped onto the inbound request so the proxy's header copy
		// carries it to the shard — the one place the ID is minted.
		r.Header.Set("X-Request-ID", rid)
	}
	w.Header().Set("X-Request-ID", rid)
	sw := &serve.StatusWriter{ResponseWriter: w, Code: http.StatusOK}
	// Deferred: the proxy aborts a stream whose client went away with
	// a panic, and that request still gets its metrics and log line.
	defer rt.observe(r, sw, rid, t0)
	rt.mux.ServeHTTP(sw, r)
}

// observe records one finished request into the router's metrics and
// access log.
func (rt *Router) observe(r *http.Request, sw *serve.StatusWriter, rid string, t0 time.Time) {
	handler := serve.HandlerLabel(r.URL.Path)
	elapsed := time.Since(t0)
	rt.reg.Counter("charhpc_router_requests_total", "requests routed, by handler and status code",
		obs.L("handler", handler), obs.L("code", strconv.Itoa(sw.Code))).Inc()
	rt.reg.Histogram("charhpc_router_proxy_seconds", "routed request latency, shard hop included", nil,
		obs.L("handler", handler)).Observe(elapsed.Seconds())
	rt.log.Info("routed",
		"request_id", rid,
		"method", r.Method,
		"path", r.URL.RequestURI(),
		"status", sw.Code,
		"bytes", sw.Bytes,
		"elapsed_ms", float64(elapsed.Microseconds())/1e3,
		"remote", r.RemoteAddr,
	)
}

// handleHealthz aggregates the pool's health on one line: first token
// "ok" while at least one shard is up, then counters (the CI smoke
// parses shards_up/shards_total), then one token per shard.
func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	shards := rt.ring.Shards()
	up := rt.hc.upCount()
	status := "ok"
	if up == 0 {
		status = "down"
	}
	fmt.Fprintf(w, "%s shards_up=%d shards_total=%d failovers=%d uptime_seconds=%d",
		status, up, len(shards), rt.failovers.Value(), int(time.Since(rt.start).Seconds()))
	for _, s := range shards {
		state := "down"
		if rt.hc.isUp(s) {
			state = "up"
		}
		fmt.Fprintf(w, " shard[%s]=%s", s, state)
	}
	fmt.Fprintln(w)
}

// handleMetrics serves the router's own Prometheus exposition (the
// shards keep their own /metrics; scrape both).
func (rt *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	rt.reg.WritePrometheus(w)
}

// candidates returns the shards to try for a key: every shard in ring
// order from the owner, live ones first (ring order preserved within
// each group). Down shards stay as last-resort candidates — the
// health view can be stale, and a request that could succeed should
// never 503 on a guess.
func (rt *Router) candidates(key string) []string {
	order := rt.ring.Successors(key, len(rt.ring.Shards()))
	live := make([]string, 0, len(order))
	var down []string
	for _, s := range order {
		if rt.hc.isUp(s) {
			live = append(live, s)
		} else {
			down = append(down, s)
		}
	}
	return append(live, down...)
}

// anyTargets returns the candidate order for requests with no cache
// key (listings, platform reads): every shard, live first, starting
// at a stable point.
func (rt *Router) anyTargets() []string {
	return rt.candidates("")
}

// handleAny proxies a keyless read to any live shard.
func (rt *Router) handleAny(w http.ResponseWriter, r *http.Request) {
	rt.proxy(w, r, &route{targets: rt.anyTargets()})
}

// handleExperiment validates the blocking GET locally — 404/400/403
// without a shard round trip, byte-identical envelopes via
// serve.CheckRunRequest — then routes it by its cache key.
func (rt *Router) handleExperiment(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	q := r.URL.Query()
	_, req, apiErr := serve.CheckRunRequest(id, q.Get("scale"), q.Get("platform"), rt.cfg.ScaleLimit)
	if apiErr != nil && !rt.deferToShard(apiErr, q.Get("platform")) {
		serve.WriteAPIError(w, r, apiErr)
		return
	}
	key := Key(id, req.Scale.String(), req.Platform)
	rt.proxy(w, r, &route{targets: rt.candidates(key)})
}

// deferToShard reports whether a local validation failure should be
// proxied instead of answered: a custom-<hash> platform this router
// process has not seen may still be registered on the shards
// (registered before the router started, or directly on a shard).
// Routing needs only the name, so the owner gets to rule on it — and
// its envelope proxies back byte-identical if it agrees the name is
// unknown.
func (rt *Router) deferToShard(apiErr *serve.APIError, platform string) bool {
	return apiErr.Code == serve.CodeUnknownPlatform && cluster.IsCustomName(platform)
}

// handleSubmitRun validates like the blocking GET, routes the job to
// the key's shard, and records which shard got it so the job's
// status/cancel/events requests follow it there.
func (rt *Router) handleSubmitRun(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRunBody))
	if err != nil {
		serve.WriteAPIError(w, r, &serve.APIError{
			Status: http.StatusBadRequest, Code: codeBadRequest,
			Message: fmt.Sprintf("reading request body: %v", err)})
		return
	}
	id := runParam(r, body, "id")
	_, req, apiErr := serve.CheckRunRequest(id, runParam(r, body, "scale"), runParam(r, body, "platform"), rt.cfg.ScaleLimit)
	if apiErr != nil && !rt.deferToShard(apiErr, runParam(r, body, "platform")) {
		serve.WriteAPIError(w, r, apiErr)
		return
	}
	key := Key(id, req.Scale.String(), req.Platform)
	rt.proxy(w, r, &route{targets: rt.candidates(key), body: body, onResponse: func(target string, resp *http.Response) error {
		if resp.StatusCode != http.StatusAccepted {
			return nil
		}
		respBody, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		resp.Body = io.NopCloser(bytes.NewReader(respBody))
		var sub struct {
			Job string `json:"job"`
		}
		if json.Unmarshal(respBody, &sub) == nil && sub.Job != "" {
			rt.jobs.put(sub.Job, target)
		}
		return nil
	}})
}

// runParam reads one POST /runs parameter the way the shard's
// FormValue does: query first, then an urlencoded form body.
func runParam(r *http.Request, body []byte, name string) string {
	if v := r.URL.Query().Get(name); v != "" {
		return v
	}
	if strings.Contains(r.Header.Get("Content-Type"), "application/x-www-form-urlencoded") {
		if vals, err := url.ParseQuery(string(body)); err == nil {
			return vals.Get(name)
		}
	}
	return ""
}

// handleJob routes a job subresource (status, cancel, events) to the
// shard that owns the job. Jobs are shard-local: a job whose shard
// died is gone, so there is no failover hop here — a dead owner
// answers 502 rather than a misleading 404 from a shard that never
// saw the job.
func (rt *Router) handleJob(w http.ResponseWriter, r *http.Request) {
	job := r.PathValue("job")
	target, ok := rt.jobs.get(job)
	if !ok {
		target, ok = rt.findJob(r.Context(), job)
	}
	if !ok {
		// No live shard knows it: any shard's own 404 envelope is the
		// canonical answer, byte-identical to the single-daemon one.
		rt.proxy(w, r, &route{targets: rt.anyTargets()})
		return
	}
	rt.proxy(w, r, &route{targets: []string{target}})
}

// findJob locates a job the routing table has no entry for (the
// table evicted it, or another router replica accepted the submit) by
// asking each live shard for its status.
func (rt *Router) findJob(ctx context.Context, job string) (string, bool) {
	for _, s := range rt.anyTargets() {
		if !rt.hc.isUp(s) {
			continue
		}
		probeCtx, cancel := context.WithTimeout(ctx, rt.cfg.HealthTimeout)
		req, err := http.NewRequestWithContext(probeCtx, http.MethodGet, s+"/runs/"+url.PathEscape(job), nil)
		if err != nil {
			cancel()
			continue
		}
		resp, err := rt.client.Do(req)
		if err != nil {
			cancel()
			continue
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		cancel()
		if resp.StatusCode == http.StatusOK {
			rt.jobs.put(job, s)
			return s, true
		}
	}
	return "", false
}

// handleJobList merges every live shard's GET /runs into one JSON
// array (shard order; each shard's own newest-first order preserved).
func (rt *Router) handleJobList(w http.ResponseWriter, r *http.Request) {
	all := []json.RawMessage{}
	for _, s := range rt.anyTargets() {
		if !rt.hc.isUp(s) {
			continue
		}
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, s+"/runs", nil)
		if err != nil {
			continue
		}
		req.Header.Set("X-Request-ID", r.Header.Get("X-Request-ID"))
		resp, err := rt.client.Do(req)
		if err != nil {
			rt.hc.set(s, false)
			continue
		}
		var list []json.RawMessage
		err = json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&list)
		resp.Body.Close()
		if err != nil {
			continue
		}
		all = append(all, list...)
	}
	b, err := json.Marshal(all)
	if err != nil {
		serve.WriteAPIError(w, r, &serve.APIError{
			Status: http.StatusInternalServerError, Code: "internal", Message: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(b, '\n'))
}

// handlePlatformRegister fans a custom-platform registration out to
// every shard, so any shard can serve any custom: the first live
// shard's response (201 on first sighting, 200 on an idempotent
// re-POST, 400 on an invalid spec — all byte-identical to the
// single-daemon responses) answers the client; on success the spec is
// then registered on the remaining shards and in the router's own
// process, so later ?platform= validation resolves the name locally.
func (rt *Router) handlePlatformRegister(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, serve.DefaultMaxPlatformBody))
	if err != nil {
		serve.WriteAPIError(w, r, &serve.APIError{
			Status: http.StatusRequestEntityTooLarge, Code: "body_too_large",
			Message: fmt.Sprintf("platform spec exceeds the %d-byte limit", serve.DefaultMaxPlatformBody)})
		return
	}
	rt.proxy(w, r, &route{targets: rt.anyTargets(), body: body, onResponse: func(target string, resp *http.Response) error {
		if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
			return nil
		}
		// Mirror the registration into this process (router-side
		// validation of future requests naming the custom)...
		if spec, err := cluster.ParseSpec(body); err == nil {
			cluster.RegisterCustom(spec)
		}
		// ...and onto every other shard, best-effort: a shard that
		// misses the fan-out rejects requests for the custom until it
		// is re-POSTed, it does not serve wrong bytes.
		for _, s := range rt.ring.Shards() {
			if s == target || !rt.hc.isUp(s) {
				continue
			}
			if err := rt.fanOutPlatform(r, s, body); err != nil {
				rt.log.Error("platform fan-out failed", "shard", s, "error", err.Error())
			}
		}
		return nil
	}})
}

// fanOutPlatform re-POSTs one platform spec to one shard.
func (rt *Router) fanOutPlatform(r *http.Request, target string, body []byte) error {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, target+"/platforms", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", r.Header.Get("X-Request-ID"))
	resp, err := rt.client.Do(req)
	if err != nil {
		rt.hc.set(target, false)
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("shard answered %s", resp.Status)
	}
	return nil
}

// route is one proxied request's routing state, carried in its
// context from the handler to the failover transport and
// modifyResponse.
type route struct {
	targets []string // candidate shards, in failover order
	body    []byte   // buffered request body, replayed per attempt; nil sends none

	// onResponse, when non-nil, observes the shard's response before
	// any of it reaches the client (used to learn job→shard routes and
	// mirror platform registrations). An error answers 502.
	onResponse func(target string, resp *http.Response) error

	target string // the shard that answered, set by failover
}

type routeKey struct{}

// proxy forwards the request through the router's ReverseProxy to the
// first of rte's candidates that answers.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request, rte *route) {
	if len(rte.targets) == 0 {
		serve.WriteAPIError(w, r, &serve.APIError{
			Status: http.StatusServiceUnavailable, Code: codeNoLiveShard,
			Message: "no shard is configured to serve this request",
			Hint:    "GET /healthz reports per-shard liveness"})
		return
	}
	rt.rp.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), routeKey{}, rte)))
}

// failover is the proxy's Transport: it walks the request's
// candidates in order and returns the first response — any status is
// final — re-routing to the next candidate only on a transport error
// (the failover path). The outbound headers, X-Request-ID included,
// are the proxy's hop-by-hop-stripped copy of the inbound ones, so
// the shard logs the same request ID the router did.
type failover struct{ rt *Router }

func (f failover) RoundTrip(out *http.Request) (*http.Response, error) {
	rt, rte := f.rt, out.Context().Value(routeKey{}).(*route)
	var lastErr error
	for i, target := range rte.targets {
		req, err := http.NewRequestWithContext(out.Context(), out.Method,
			target+out.URL.RequestURI(), bytes.NewReader(rte.body))
		if err != nil {
			return nil, err
		}
		req.Header = out.Header
		resp, err := rt.client.Do(req)
		if err == nil {
			rt.routed(target, "ok")
			rte.target = target
			return resp, nil
		}
		// A canceled client is not a shard failure: stop, don't fail
		// the pool over it.
		if out.Context().Err() != nil {
			return nil, err
		}
		lastErr = err
		rt.routed(target, "error")
		rt.hc.set(target, false)
		if i+1 < len(rte.targets) {
			rt.failovers.Inc()
			rt.log.Info("failover", "shard", target, "error", err.Error(), "next", rte.targets[i+1])
		}
	}
	return nil, lastErr
}

// modifyResponse runs on the shard's response before any of it is
// written. The router already set the client's X-Request-ID (the
// shard echoes the same value), so the shard's copy is dropped and
// the client sees exactly one.
func (rt *Router) modifyResponse(resp *http.Response) error {
	resp.Header.Del("X-Request-Id")
	rte := resp.Request.Context().Value(routeKey{}).(*route)
	if rte.onResponse == nil {
		return nil
	}
	return rte.onResponse(rte.target, resp)
}

// proxyError answers a request every candidate shard failed with the
// router's 502 envelope — unless the client went away, in which case
// there is nobody to answer.
func (rt *Router) proxyError(w http.ResponseWriter, r *http.Request, err error) {
	if r.Context().Err() != nil {
		return
	}
	serve.WriteAPIError(w, r, &serve.APIError{
		Status: http.StatusBadGateway, Code: codeUpstreamFailed,
		Message: fmt.Sprintf("every candidate shard failed (last: %v)", err),
		Hint:    "GET /healthz reports per-shard liveness"})
}

// routed counts one routed request by shard and outcome.
func (rt *Router) routed(target, outcome string) {
	rt.reg.Counter("charhpc_router_routed_total",
		"requests sent to each shard, by outcome (ok = shard answered, error = transport failure)",
		obs.L("shard", target), obs.L("outcome", outcome)).Inc()
}

// bufferPool recycles the proxy's body-copy buffers across requests.
type bufferPool struct{ sync.Pool }

func (p *bufferPool) Get() []byte  { return p.Pool.Get().([]byte) }
func (p *bufferPool) Put(b []byte) { p.Pool.Put(b) }

var proxyBuffers = &bufferPool{sync.Pool{New: func() any { return make([]byte, 32<<10) }}}

// jobTable is the bounded job→shard routing memory: which shard
// accepted each submitted job, evicted oldest-first past max. A miss
// is recoverable (findJob), so eviction is safe.
type jobTable struct {
	mu    sync.Mutex
	m     map[string]string
	order []string
	max   int
}

func newJobTable(max int) *jobTable {
	return &jobTable{m: make(map[string]string), max: max}
}

func (t *jobTable) put(job, shard string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.m[job]; !ok {
		t.order = append(t.order, job)
	}
	t.m[job] = shard
	for len(t.order) > t.max {
		delete(t.m, t.order[0])
		t.order = t.order[1:]
	}
}

func (t *jobTable) get(job string) (string, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.m[job]
	return s, ok
}
