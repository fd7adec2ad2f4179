package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
)

// Every input byom-fill sends is drawn here from the run's seed. Specs
// and the user mix each read their own generator, so a change to how
// one is consumed never shifts the other, and each batch derives its
// own stream.
const (
	streamSpecs = iota + 1
	streamUsers
)

// rngFor returns the generator for one (seed, stream, phase) triple.
func rngFor(seed int64, stream, phase int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)*10_007 + int64(phase)))
}

// reuseShare is the seeded share of byom users that re-register an
// earlier spec.
const reuseShare = 0.20

// byomIDs are the experiments a bring-your-own-machine user reads with
// blocking GETs; byomJobID runs as an async job.
var byomIDs = []string{"T1", "M3", "M4", "M5"}

const byomJobID = "M6"

// mediaTypes are the Accept values a byom user picks from.
var mediaTypes = []string{"text/plain", "text/csv", "application/json"}

// byomUser is one scripted bring-your-own-machine user.
type byomUser struct {
	idx   int
	reuse int // index of the earlier user whose spec is re-posted; -1 for a new spec
	spec  []byte
	media [4]int // index into mediaTypes per byomIDs entry
	cond  int    // which byomIDs entry the user re-reads conditionally
	check bool   // compare one body against a direct core.Run
}

// byomBatch is the unit the closed loop runs: users reuse specs only
// from earlier batches, so a reused spec is always fully registered and
// filled whichever client ran it.
const byomBatch = 32

// reuseWindow bounds how far back a reuse may reach.
const reuseWindow = 64

// checkShare is the share of new users whose body is compared with a
// direct core.Run.
const checkShare = 0.05

// byomUsers draws the users of batch b (user indices b*byomBatch on).
func byomUsers(seed int64, b int) []byomUser {
	r := rngFor(seed, streamUsers, b)
	specs := rngFor(seed, streamSpecs, b)
	out := make([]byomUser, byomBatch)
	for i := range out {
		u := byomUser{idx: b*byomBatch + i, reuse: -1}
		if b > 0 && r.Float64() < reuseShare {
			lo := b*byomBatch - reuseWindow
			if lo < 0 {
				lo = 0
			}
			u.reuse = lo + r.Intn(b*byomBatch-lo)
		}
		for k := range u.media {
			u.media[k] = r.Intn(len(mediaTypes))
		}
		u.cond = r.Intn(len(byomIDs))
		u.check = r.Float64() < checkShare
		if u.reuse < 0 {
			u.spec = genSpec(specs, fmt.Sprintf("perfbench seed %d user %d", seed, u.idx))
		}
		out[i] = u
	}
	return out
}

// jitter scales x by a seeded factor in [0.8, 1.25).
func jitter(r *rand.Rand, x float64) float64 {
	return x * (0.8 + 0.45*r.Float64())
}

// genSpec draws one valid custom platform: a NUMA cluster whose shape,
// links and memory hierarchy vary around a modern InfiniBand machine.
// label makes every user's spec, and so its content-addressed name,
// distinct.
func genSpec(r *rand.Rand, label string) []byte {
	link := func(lat, ovh, gap, bw float64) map[string]float64 {
		return map[string]float64{
			"latency_s":             jitter(r, lat),
			"overhead_s":            jitter(r, ovh),
			"gap_s":                 jitter(r, gap),
			"bandwidth_bytes_per_s": jitter(r, bw),
		}
	}
	spec := map[string]any{
		"label": label,
		"topology": map[string]int{
			"nodes":            2 + r.Intn(31),
			"sockets_per_node": 2,
			"cores_per_socket": []int{2, 4, 8, 16}[r.Intn(4)],
		},
		"links": map[string]any{
			"self":         link(8e-8, 6e-8, 8e-9, 16e9),
			"intra_socket": link(2.5e-7, 1.5e-7, 1.5e-8, 9e9),
			"intra_node":   link(5e-7, 1.8e-7, 2.5e-8, 6e9),
			"inter_node":   link(1.1e-6, 4e-7, 9e-8, 1.1e10),
		},
		"mem_bw_per_socket_bytes_per_s": jitter(r, 1.2e10),
		"mem_bw_per_core_bytes_per_s":   jitter(r, 4e9),
		"flops_per_core":                jitter(r, 3.2e10),
		"mem": map[string]any{
			"levels": []map[string]any{
				{"name": "L1", "capacity_bytes": 32768 << r.Intn(2), "latency_s": jitter(r, 1.0e-9)},
				{"name": "L2", "capacity_bytes": 262144 << r.Intn(3), "latency_s": jitter(r, 3.5e-9)},
				{"name": "L3", "capacity_bytes": 8388608 << r.Intn(3), "latency_s": jitter(r, 1.2e-8)},
			},
			"mem_latency_s":     jitter(r, 8.5e-8),
			"tlb":               map[string]any{"entries": 512 << r.Intn(3), "miss_cost_s": jitter(r, 1.8e-8)},
			"page_bytes":        4096,
			"large_page_bytes":  2097152,
			"page_fault_cost_s": jitter(r, 1.2e-6),
			"numa":              map[string]any{"nodes": 2, "remote_latency_s": jitter(r, 1.4e-7), "remote_tlb_cost_s": jitter(r, 2.5e-8)},
		},
	}
	b, err := json.Marshal(spec)
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshal spec: %v", err)) // plain maps of numbers cannot fail
	}
	return b
}
