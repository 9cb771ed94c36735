package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime/pprof"
)

// perLayer lists every per-layer metric with its unit, in report
// order. A traced run reports all of them on every workload; a metric
// whose layer the workload does not reach reads 0.
var perLayer = func() [][2]string {
	var out [][2]string
	add := func(name, unit string) { out = append(out, [2]string{name, unit}) }
	for _, e := range simSpans {
		add("experiments."+e+".wall_ms", "ms")
	}
	for _, b := range selfBuckets {
		add(b+".self_pct", "%")
	}
	for _, t := range cumTargets {
		add(t.metric+".cum_pct", "%")
	}
	add("runtime.gc.cum_pct", "%")
	add("board.boot_ms", "ms")
	add("board.restore_us", "us")
	add("soc.ns_per_instr", "ns")
	for _, t := range tiers {
		add("campaign.runs."+t, "count")
	}
	add("campaign.hit_ratio", "ratio")
	add("campaign.queue_wait.p50_ms", "ms")
	add("campaign.queue_wait.p99_ms", "ms")
	for _, t := range tiers {
		add("api.latency."+t+".p50_ms", "ms")
	}
	for _, c := range []string{"read", "write"} {
		add("service."+c+"_p50_ms", "ms")
		add("service."+c+"_p99_ms", "ms")
		add("service."+c+"s", "count")
	}
	for _, s := range []string{"gets", "hot_hits", "disk_hits", "misses", "puts"} {
		add("store."+s, "count")
	}
	add("store.hit_ratio", "ratio")
	for _, s := range []string{"forwarded_out", "forwarded_in", "steals", "handbacks"} {
		add("fabric."+s, "count")
	}
	add("fabric.sweep.p50_ms", "ms")
	add("trace.overhead_pct", "%")
	return out
}()

// runTraced sets the workload up once, measures half the run untraced
// and half with spans and a CPU profile on, then runs the layer probes
// and reports the per-layer metrics.
func runTraced(w workload, cfg *config, name string) (*result, error) {
	defer w.teardown()
	if err := w.setup(); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	half := cfg.seconds / 2
	plain, err := w.measure(half)
	if err != nil {
		return nil, err
	}

	var prof bytes.Buffer
	cfg.tr.enable(true)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	traced, err := w.measure(half)
	pprof.StopCPUProfile()
	cfg.tr.enable(false)
	if err != nil {
		return nil, err
	}

	m := metrics{}
	for _, nu := range perLayer {
		m.set(nu[0], 0, nu[1])
	}
	p, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	self, cum, cpu := layerShares(p)
	fmt.Fprintf(os.Stderr, "  profile: %.1f CPU s over %d samples\n", cpu, len(p.samples))
	for k, v := range self {
		m.set(k+".self_pct", v, "%")
	}
	for k, v := range cum {
		m.set(k+".cum_pct", v, "%")
	}
	for _, e := range simSpans {
		m.set("experiments."+e+".wall_ms", orZero(median(cfg.tr.durations("experiment."+e))), "ms")
	}
	rate := func(w *window) float64 { return float64(len(w.jobs)) / w.seconds() }
	m.set("trace.overhead_pct", (rate(plain)/rate(traced)-1)*100, "%")
	w.layerMetrics(traced, m)
	if err := probeMetrics(cfg.seed, m); err != nil {
		return nil, err
	}

	writeArtifact("cpu-"+name+".pprof", prof.Bytes())
	cfg.tr.mu.Lock()
	spans, err := json.Marshal(cfg.tr.spans)
	cfg.tr.mu.Unlock()
	if err == nil {
		writeArtifact("spans-"+name+".json", spans)
	}
	return &result{Metrics: m}, nil
}
