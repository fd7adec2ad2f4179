package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// BENCHMARK.json and the code must name the same workloads and metrics
// with the same units: a metric the code prints but the file lacks (or
// the other way round) is a broken benchmark.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names, want []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	for n := range workloads {
		want = append(want, n)
	}
	slices.Sort(names)
	slices.Sort(want)
	if !slices.Equal(names, want) {
		t.Errorf("workloads: file %v, code %v", names, want)
	}
	check := func(kind string, file []metric, code []metricDef) {
		got := map[string]string{}
		for _, m := range file {
			got[m.Name] = m.Unit
		}
		if len(got) != len(file) {
			t.Errorf("%s: duplicate names in BENCHMARK.json", kind)
		}
		for _, d := range code {
			if u, ok := got[d.name]; !ok || u != d.unit {
				t.Errorf("%s: code prints %s in %s, file has %q", kind, d.name, d.unit, u)
			}
			delete(got, d.name)
		}
		for n := range got {
			t.Errorf("%s: file lists %s, which the code never prints", kind, n)
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, layerMetrics())
	for _, m := range doc.EndToEnd {
		if m.Bound == nil || *m.Bound > 0.25 {
			t.Errorf("%s: bound missing or above 0.25", m.Name)
		}
		if m.Name != "setup_s" && *m.Bound > *doc.EndToEnd[0].Bound {
			t.Errorf("%s: bound above setup_s's, which must be the largest", m.Name)
		}
	}
}
