package main

import (
	"os"
	"testing"
	"time"
)

// TestServiceFleetShortRun brings the fleet up twice, as a run's
// repeated set-ups do, drives it briefly and checks that every request
// passed its output checks and that teardown leaves no files behind.
func TestServiceFleetShortRun(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a 3-node fleet")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = os.Chdir(wd) }()

	cfg := &config{seed: 5, ck: &checker{}, tr: &tracer{t0: time.Now()}}
	f := newServiceFleet(cfg)
	defer f.teardown()
	for i := 0; i < 2; i++ {
		if i > 0 {
			f.teardown()
		}
		if err := f.setup(); err != nil {
			t.Fatal(err)
		}
	}
	cfg.tr.enable(true)
	win, err := f.measure(300 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(win.jobs) == 0 {
		t.Fatal("no sweep completed")
	}
	m := metrics{}
	f.layerMetrics(win, m)
	if m["service.reads"].Value+m["service.writes"].Value != float64(len(win.jobs)) {
		t.Errorf("reads+writes = %v, jobs = %d", m["service.reads"].Value+m["service.writes"].Value, len(win.jobs))
	}
	if cfg.ck.failed != 0 || cfg.ck.attempted != 2*warmSweeps+len(win.jobs) {
		t.Errorf("checker: %d failed of %d, want 0 of %d", cfg.ck.failed, cfg.ck.attempted, 2*warmSweeps+len(win.jobs))
	}
	f.teardown()
	if _, err := os.Stat(f.root); !os.IsNotExist(err) {
		t.Errorf("fleet directory %s left behind (%v)", f.root, err)
	}
}
