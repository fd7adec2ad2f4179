package main

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
)

// The same seed must give the same inputs, and another seed other ones.
func TestByomUsersSeedDeterminism(t *testing.T) {
	for b := 0; b < 4; b++ {
		x, y, z := byomUsers(11, b), byomUsers(11, b), byomUsers(12, b)
		if !reflect.DeepEqual(x, y) {
			t.Fatalf("batch %d: same seed drew different users", b)
		}
		if reflect.DeepEqual(x, z) {
			t.Fatalf("batch %d: different seeds drew the same users", b)
		}
	}
}

func TestByomUsersAreValid(t *testing.T) {
	names := map[string]bool{}
	reuses := 0
	for b := 0; b < 6; b++ {
		for _, u := range byomUsers(5, b) {
			if u.reuse >= 0 {
				reuses++
				if u.reuse >= b*byomBatch || u.reuse < b*byomBatch-reuseWindow {
					t.Fatalf("user %d reuses user %d, outside the earlier batches' last %d", u.idx, u.reuse, reuseWindow)
				}
				continue
			}
			spec, err := cluster.ParseSpec(u.spec)
			if err != nil {
				t.Fatalf("user %d: generated spec rejected: %v", u.idx, err)
			}
			if names[spec.Name()] {
				t.Fatalf("user %d: spec name %s repeats", u.idx, spec.Name())
			}
			names[spec.Name()] = true
			name, _ := cluster.RegisterCustom(spec)
			for _, id := range append(append([]string(nil), byomIDs...), byomJobID) {
				e, _ := core.Get(id)
				if err := e.CheckPlatform(name); err != nil {
					t.Fatalf("user %d: %s cannot run on the generated platform: %v", u.idx, id, err)
				}
			}
		}
	}
	if reuses == 0 {
		t.Fatal("no user reused an earlier spec")
	}
	if !bytes.Equal(genSpec(rngFor(1, streamSpecs, 0), "x"), genSpec(rngFor(1, streamSpecs, 0), "x")) {
		t.Fatal("genSpec is not a function of its generator")
	}
}
