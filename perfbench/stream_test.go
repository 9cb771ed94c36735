package main

import (
	"reflect"
	"testing"
)

func draw(seed uint64, client, n int) []request {
	s := newStream(seed, client)
	out := make([]request, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

// TestStreamReproducible: the service-fleet request stream is a pure
// function of the seed and the client index.
func TestStreamReproducible(t *testing.T) {
	a, b := draw(42, 0, 2000), draw(42, 0, 2000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and client gave different streams")
	}
	if reflect.DeepEqual(a, draw(43, 0, 2000)) {
		t.Error("different seeds gave the same stream")
	}
	if reflect.DeepEqual(a, draw(42, 1, 2000)) {
		t.Error("the two clients share a stream")
	}
	if !reflect.DeepEqual(warmSet(42), warmSet(42)) {
		t.Error("warm set is not reproducible")
	}
	if reflect.DeepEqual(warmSet(42), warmSet(43)) {
		t.Error("different seeds gave the same warm set")
	}
}

// TestStreamShape: about 80% reads of the warm set, and writes of
// fresh cheap runs.
func TestStreamShape(t *testing.T) {
	cheap := map[string]bool{}
	for _, e := range cheapExperiments {
		cheap[e] = true
	}
	warmSeeds := map[uint64]bool{}
	for _, sw := range warmSet(7) {
		for _, r := range sw {
			warmSeeds[r.Seed] = true
		}
	}
	reads := 0
	const n = 20000
	for _, rq := range draw(7, 0, n) {
		if rq.read {
			reads++
			if rq.warm < 0 || rq.warm >= warmSweeps {
				t.Fatalf("read of warm sweep %d out of range", rq.warm)
			}
			continue
		}
		if len(rq.runs) != sweepRuns {
			t.Fatalf("write sweep has %d runs", len(rq.runs))
		}
		for _, r := range rq.runs {
			if !cheap[r.Experiment] || warmSeeds[r.Seed] {
				t.Fatalf("write run %+v is not a fresh cheap run", r)
			}
		}
	}
	if share := float64(reads) / n; share < 0.78 || share > 0.82 {
		t.Errorf("read share %.3f, want about 0.8", share)
	}
}
