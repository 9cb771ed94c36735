package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestMain lets the test binary serve as the reference child that
// runEndToEnd starts.
func TestMain(m *testing.M) {
	if refChild() {
		return
	}
	os.Exit(m.Run())
}

// fakeWorkload completes a job every millisecond without doing work.
type fakeWorkload struct{ setups int }

func (f *fakeWorkload) setup() error { f.setups++; return nil }
func (f *fakeWorkload) teardown()    {}
func (f *fakeWorkload) passLen() int { return 2 }
func (f *fakeWorkload) measure(d time.Duration) (*window, error) {
	w := &window{start: time.Now()}
	for time.Since(w.start) < d {
		t := time.Now()
		time.Sleep(time.Millisecond)
		w.jobs = append(w.jobs, job{class: "pass", start: t, end: time.Now()})
	}
	w.end = time.Now()
	return w, nil
}
func (f *fakeWorkload) layerMetrics(*window, metrics) {}

type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestEndToEndMatchesSpec: an end-to-end run emits exactly the metrics
// BENCHMARK.json declares, with their units.
func TestEndToEndMatchesSpec(t *testing.T) {
	spec := loadSpec(t)
	fw := &fakeWorkload{}
	cfg := &config{seconds: 50 * time.Millisecond, ck: &checker{}, tr: &tracer{}}
	res, err := runEndToEnd(fw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fw.setups != setupReps {
		t.Errorf("%d set-ups, want %d", fw.setups, setupReps)
	}
	if len(res.Metrics) != len(spec.EndToEnd) {
		t.Errorf("emitted %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(spec.EndToEnd))
	}
	for _, m := range spec.EndToEnd {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("metric %s: emitted %+v (present %v), declared unit %s", m.Name, got, ok, m.Unit)
		}
		if got.Value <= 0 {
			t.Errorf("metric %s = %v, want positive", m.Name, got.Value)
		}
	}
}

// TestPerLayerMatchesSpec: the traced run's metric list is exactly the
// per_layer list of BENCHMARK.json.
func TestPerLayerMatchesSpec(t *testing.T) {
	spec := loadSpec(t)
	if len(perLayer) != len(spec.PerLayer) {
		t.Fatalf("perLayer has %d metrics, BENCHMARK.json %d", len(perLayer), len(spec.PerLayer))
	}
	for i, m := range spec.PerLayer {
		if perLayer[i][0] != m.Name || perLayer[i][1] != m.Unit {
			t.Errorf("per_layer[%d] = %s %s, perLayer has %s %s", i, m.Name, m.Unit, perLayer[i][0], perLayer[i][1])
		}
	}
}
