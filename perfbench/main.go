// Command perfbench is the repository's benchmark. It runs one named
// workload against the simulator and its job service through their
// public entry points, checks every output, and prints the metrics as
// one JSON line:
//
//	perfbench --workload paper-repro --seed 7 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with
// tracing off and expressed in reference-host seconds (reference.go). With --trace 1 it reports the per-layer metrics: spans
// around the calls it makes, a runtime/pprof CPU profile of the same
// work attributed to the repository's modules, layer probes it times
// itself, and the service's own counters. perfbench/run.sh builds it
// from the checkout and runs it from the repository root; see
// perfbench/METRICS.md for what each metric means.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is
// the median.
const setupReps = 3

// workDir holds everything a run writes: disk stores, the CPU profile
// and the span dump. It is relative to the repository root.
const workDir = ".bench_build/perfbench"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// checker counts checked operations and their failures. Every failure
// is reported on stderr; the run then exits non-zero.
type checker struct {
	mu        sync.Mutex
	attempted int
	failed    int
}

func (c *checker) op(what string, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if err != nil {
		c.failed++
		if c.failed <= 20 {
			fmt.Fprintf(os.Stderr, "perfbench: FAIL %s: %v\n", what, err)
		}
	}
}

// span is one timed call at a layer boundary. Parent is the ID of the
// span that caused it (0 for none).
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	StartMs float64 `json:"start_ms"`
	EndMs   float64 `json:"end_ms"`
}

// tracer keeps spans in memory while enabled. A disabled tracer records
// nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	on    bool
	spans []span
}

func (t *tracer) enable(on bool) {
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

type spanKey struct{}

// begin opens a span named name whose parent is the span in ctx, and
// returns a context carrying the new span and the function that ends it.
func (t *tracer) begin(ctx context.Context, name string) (context.Context, func()) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return ctx, func() {}
	}
	parent, _ := ctx.Value(spanKey{}).(int)
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartMs: t.ms(time.Now())})
	return context.WithValue(ctx, spanKey{}, id), func() {
		end := t.ms(time.Now())
		t.mu.Lock()
		t.spans[id-1].EndMs = end
		t.mu.Unlock()
	}
}

func (t *tracer) ms(at time.Time) float64 { return float64(at.Sub(t.t0)) / 1e6 }

// durations returns the durations in ms of every span with this name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.EndMs-s.StartMs)
		}
	}
	return out
}

// job is one completed unit of user work: a pass of the experiment
// list, or one service sweep.
type job struct {
	class      string // "pass", "read" or "write"
	start, end time.Time
}

func (j *job) ms() float64 { return float64(j.end.Sub(j.start)) / 1e6 }

// window is what one measured interval produced.
type window struct {
	start, end time.Time
	jobs       []job
}

func (w *window) seconds() float64 { return w.end.Sub(w.start).Seconds() }

// passSeconds splits the window's completions into consecutive blocks
// of passLen jobs and returns each block's duration in seconds.
func (w *window) passSeconds(passLen int) []float64 {
	ends := make([]time.Time, len(w.jobs))
	for i := range w.jobs {
		ends[i] = w.jobs[i].end
	}
	sort.Slice(ends, func(a, b int) bool { return ends[a].Before(ends[b]) })
	var out []float64
	prev := w.start
	for i := passLen - 1; i < len(ends); i += passLen {
		out = append(out, ends[i].Sub(prev).Seconds())
		prev = ends[i]
	}
	return out
}

// workload is one named benchmark input.
type workload interface {
	// setup builds the system under test and runs its warm-up pass.
	setup() error
	// teardown releases what setup built.
	teardown()
	// measure runs the workload for about d and returns its jobs.
	measure(d time.Duration) (*window, error)
	// passLen is the number of jobs in one pass of the fixed job list.
	passLen() int
	// layerMetrics adds the workload's own per-layer metrics for the
	// traced window w.
	layerMetrics(w *window, m metrics)
}

type config struct {
	seed    uint64
	seconds time.Duration
	ck      *checker
	tr      *tracer
}

var workloadNames = []string{"paper-repro", "fault-campaign", "service-fleet"}

func newWorkload(name string, cfg *config) (workload, bool) {
	switch name {
	case "paper-repro":
		return newPaperRepro(cfg), true
	case "fault-campaign":
		return newFaultCampaign(cfg), true
	case "service-fleet":
		return newServiceFleet(cfg), true
	}
	return nil, false
}

func main() {
	if refChild() {
		return
	}
	os.Exit(run())
}

func run() int {
	t0 := time.Now()
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 15, "measured seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	// The load stays within the host's cores and is the same on any
	// host with at least two.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	cfg := &config{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		ck:      &checker{},
		tr:      &tracer{t0: t0},
	}
	w, ok := newWorkload(*name, cfg)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames, ", "))
		return 2
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	var res *result
	var err error
	if *trace == 0 {
		res, err = runEndToEnd(w, cfg)
	} else {
		res, err = runTraced(w, cfg, *name)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	res.Attempted, res.Failed = cfg.ck.attempted, cfg.ck.failed
	res.Correct = res.Failed == 0 && res.Attempted > 0
	printHuman(res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// segment is how long the load runs between two reference samples.
const segment = 2 * time.Second

// runEndToEnd sets the workload up setupReps times (keeping the last),
// measures it with tracing off in segments with a reference sample
// after each, and reports the end-to-end metrics in reference-host
// seconds (see reference.go).
func runEndToEnd(w workload, cfg *config) (*result, error) {
	defer w.teardown()
	// Every set-up and segment is bracketed by two reference samples.
	// The first sample, a cold start of the child, is thrown away.
	ref := &reference{}
	for range 2 {
		if err := ref.sample(); err != nil {
			return nil, err
		}
	}
	ref.times = ref.times[1:]
	var setupRaw []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			w.teardown()
		}
		start := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupRaw = append(setupRaw, time.Since(start).Seconds())
		if err := ref.sample(); err != nil {
			return nil, err
		}
	}
	var wins []*window
	var mem []float64
	var measured float64
	for measured < cfg.seconds.Seconds() {
		peak := startMemPeak()
		win, err := w.measure(segment)
		mem = append(mem, peak.end())
		if err != nil {
			return nil, err
		}
		if err := ref.sample(); err != nil {
			return nil, err
		}
		wins = append(wins, win)
		measured += win.seconds()
	}

	// Piece j of the run (set-ups, then segments) ended just before
	// reference sample j+1.
	var setups, raw, passes, lat []float64
	for i, s := range setupRaw {
		setups = append(setups, s*ref.scaleAt(i+1))
	}
	var scaled float64
	for j, win := range wins {
		k := ref.scaleAt(setupReps + j + 1)
		scaled += win.seconds() * k
		for _, p := range win.passSeconds(w.passLen()) {
			raw = append(raw, p)
			passes = append(passes, p*k)
		}
		for i := range win.jobs {
			lat = append(lat, win.jobs[i].ms()*k)
		}
	}
	if len(passes) == 0 {
		return nil, fmt.Errorf("%d jobs completed, fewer than one pass of %d", len(lat), w.passLen())
	}
	fmt.Fprintf(os.Stderr, "  passes (s): %.4g\n  passes (ref s): %.4g\n  set-ups (ref s): %.4g\n  reference (s): %.4g\n  measured %.3g s = %.3g ref s\n  segment memory peaks (MiB): %.4g\n",
		raw, passes, setups, ref.times, measured, scaled, mem)
	m := metrics{}
	m.set("setup_s", median(setups), "s")
	m.set("wall_s", scaled/(float64(len(lat))/float64(w.passLen())), "s")
	m.set("jobs_per_s", float64(len(lat))/scaled, "1/s")
	m.set("p50_ms", median(lat), "ms")
	m.set("p99_ms", tailOrMedian(lat), "ms")
	tail := "the median"
	if p, _, ok := tailPercentile(lat); ok {
		tail = fmt.Sprintf("p%g", p)
	}
	fmt.Fprintf(os.Stderr, "  %d jobs; p99_ms is %s\n", len(lat), tail)
	m.set("peak_mem_mb", median(mem), "MB")
	return &result{Metrics: m}, nil
}

// tailOrMedian is the p99 by the tail rule, or the median when a run
// has too few samples for any percentile to have ten beyond it: the
// largest of a handful of samples is too noisy to compare runs by.
func tailOrMedian(xs []float64) float64 {
	if _, v, ok := tailPercentile(xs); ok {
		return v
	}
	return median(xs)
}

// printHuman writes a readable summary to stderr, including the
// error rate the JSON line carries as failed/attempted.
func printHuman(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "  %-40s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	rate := 0.0
	if res.Attempted > 0 {
		rate = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(os.Stderr, "  %-40s %14.6g (%d of %d operations)\n", "error_rate", rate, res.Failed, res.Attempted)
}

// writeArtifact stores a trace artifact under workDir.
func writeArtifact(name string, data []byte) {
	if err := os.WriteFile(filepath.Join(workDir, name), data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing %s: %v\n", name, err)
	}
}
