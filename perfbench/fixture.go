package main

import (
	"net/http"
	"net/http/httptest"

	"repro/internal/core"
	"repro/internal/diskcache"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/shard"
)

// fixture is the system under test, built in-process from its public
// constructors: two serve.Server shards on loopback listeners behind
// one shard.Router on its own listener.
type fixture struct {
	shards   []*serve.Server
	shardSrv []*httptest.Server
	router   *shard.Router
	routerS  *httptest.Server
}

// newFixture builds two memory-only shards and a router.
func newFixture() (*fixture, error) {
	f := &fixture{}
	var urls []string
	for i := 0; i < 2; i++ {
		s := serve.New(serve.Config{})
		ts := httptest.NewServer(s)
		f.shards = append(f.shards, s)
		f.shardSrv = append(f.shardSrv, ts)
		urls = append(urls, ts.URL)
	}
	rt, err := shard.New(shard.Config{Shards: urls})
	if err != nil {
		f.close()
		return nil, err
	}
	f.router = rt
	f.routerS = httptest.NewServer(rt)
	return f, nil
}

// openStore opens a result store the way charhpcd does by default:
// unbounded (any byte budget makes every Put rescan the directory).
func openStore(dir string) (*diskcache.Store, error) {
	fps := diskcache.Fingerprints{Global: core.Fingerprint(), PerID: core.Fingerprints()}
	return diskcache.Open(dir, fps, 0)
}

// url is the router's base URL.
func (f *fixture) url() string { return f.routerS.URL }

// close stops the listeners and the router's health loop.
func (f *fixture) close() {
	if f.routerS != nil {
		f.routerS.Close()
	}
	if f.router != nil {
		f.router.Close()
	}
	for _, ts := range f.shardSrv {
		ts.Close()
	}
}

// stats sums the shards' cache counters.
func (f *fixture) stats() serve.Stats {
	var t serve.Stats
	for _, s := range f.shards {
		st := s.Stats()
		t.Runs += st.Runs
		t.MemHits += st.MemHits
		t.DiskLoads += st.DiskLoads
		t.DiskErrs += st.DiskErrs
	}
	return t
}

// routedOK totals the requests the router sent to its shards and got
// an answer for.
func (f *fixture) routedOK() int64 {
	var n int64
	for _, ts := range f.shardSrv {
		n += f.router.Registry().Counter("charhpc_router_routed_total", "",
			obs.L("shard", ts.URL), obs.L("outcome", "ok")).Value()
	}
	return n
}

// newClient returns a client holding at most one connection, so a
// workload with n clients never opens more than n.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}
