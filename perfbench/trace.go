package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/obs"
)

// maxWrittenRoots caps how many root spans the trace file holds; the
// per-name self-time summary always covers every span.
const maxWrittenRoots = 4000

// tracer keeps the spans the benchmark records around its calls into
// each layer. Disabled, it hands out nil spans, whose methods are
// no-ops, so the measured code is identical in both modes.
type tracer struct {
	on    bool
	mu    sync.Mutex
	roots []*obs.Span
}

// start opens a root span (nil when tracing is off).
func (t *tracer) start(name string) *obs.Span {
	if !t.on {
		return nil
	}
	sp := obs.StartSpan(name)
	t.add(sp)
	return sp
}

// add keeps an already-built span tree, such as the one core.Run hangs
// off its Recorder.
func (t *tracer) add(sp *obs.Span) {
	if !t.on || sp == nil {
		return
	}
	t.mu.Lock()
	t.roots = append(t.roots, sp)
	t.mu.Unlock()
}

// selfStat is one span name's total and self time across the trace. A
// span's self time is its duration minus the part its children cover,
// clamped at zero where children overlap.
type selfStat struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// summarize aggregates total and self time by span name. It runs once
// every span has ended, so the trees no longer change.
func (t *tracer) summarize() map[string]*selfStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]*selfStat{}
	var walk func(sp *obs.Span)
	walk = func(sp *obs.Span) {
		child := 0.0
		for _, c := range sp.Children {
			child += c.Elapsed
			walk(c)
		}
		st := out[sp.Name]
		if st == nil {
			st = &selfStat{}
			out[sp.Name] = st
		}
		st.Count++
		st.TotalMS += sp.Elapsed * 1e3
		st.SelfMS += max(sp.Elapsed-child, 0) * 1e3
	}
	for _, sp := range t.roots {
		walk(sp)
	}
	return out
}

// write saves the span trees and the self-time summary under dir as
// <name>.json and returns the file's path.
func (t *tracer) write(dir, name string) (string, error) {
	summary := t.summarize()
	t.mu.Lock()
	roots := t.roots
	if len(roots) > maxWrittenRoots {
		// Keep an even sample across the run rather than its start.
		step := float64(len(roots)) / maxWrittenRoots
		sample := make([]*obs.Span, 0, maxWrittenRoots)
		for i := 0; i < maxWrittenRoots; i++ {
			sample = append(sample, roots[int(float64(i)*step)])
		}
		roots = sample
	}
	t.mu.Unlock()
	doc := struct {
		Written   time.Time            `json:"written"`
		RootSpans int                  `json:"root_spans"`
		Kept      int                  `json:"kept_root_spans"`
		ByName    map[string]*selfStat `json:"self_time_by_name"`
		Spans     []*obs.Span          `json:"spans"`
	}{time.Now(), len(t.roots), len(roots), summary, roots}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".json")
	b, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
