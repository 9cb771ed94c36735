package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/experiments"
	"repro/internal/registry"
)

// goldenSeed is the seed of the golden output pins in
// internal/experiments/determinism_test.go.
const goldenSeed = 0x5EED

// goldenSHA256 holds those pins: SHA-256 of each experiment's rendered
// text at goldenSeed.
var goldenSHA256 = map[string]string{
	"figure7": "462a2228f15b896b729033cdb16e51edaa21437575a3ceba1c7481c21116c0e0",
	"figure8": "f8a5f69d4c2f614ea515e3e3ee9ff37ec8a27edf0b4c2a30c12729e988d20ee5",
	"table4":  "2428a16c7c3b81d1b2d4ed521ddbb784ee5875897ca934c103112309ff4c95e9",
}

// simSpans are the experiments whose Run spans the traced run reports.
var simSpans = []string{"figure7", "figure8", "table4", "glitch-search", "sca-cpa"}

type simRun struct {
	name   string
	params map[string]string
}

// simWorkload runs a fixed list of experiments through the registry,
// one pass after another, and checks every pass's bytes. A pass is one
// job.
type simWorkload struct {
	cfg  *config
	runs []simRun
	// golden makes the warm-up pass run at goldenSeed and compare
	// against goldenSHA256.
	golden bool

	reg      *registry.Registry
	exps     []*registry.Experiment
	resolved []map[string]string
	prev     []*registry.Result // last pass at the workload seed
}

func newPaperRepro(cfg *config) *simWorkload {
	return &simWorkload{cfg: cfg, golden: true, runs: []simRun{
		{name: "figure7"}, {name: "figure8"}, {name: "table4"},
	}}
}

func newFaultCampaign(cfg *config) *simWorkload {
	return &simWorkload{cfg: cfg, runs: []simRun{
		{name: "glitch-search", params: map[string]string{"trials": "2000"}},
		{name: "sca-cpa", params: map[string]string{"traces": "2000"}},
	}}
}

func (w *simWorkload) passLen() int { return 1 }

func (w *simWorkload) setup() error {
	w.reg = timedRegistry(w.cfg.tr)
	w.exps, w.resolved, w.prev = nil, nil, nil
	for _, r := range w.runs {
		e, ok := w.reg.Lookup(r.name)
		if !ok {
			return fmt.Errorf("experiment %q not in the catalog", r.name)
		}
		p, _, err := e.Resolve(r.params)
		if err != nil {
			return err
		}
		w.exps = append(w.exps, e)
		w.resolved = append(w.resolved, p)
	}
	if w.golden {
		_, err := w.pass(goldenSeed)
		return err
	}
	res, err := w.pass(w.cfg.seed)
	w.prev = res
	return err
}

func (w *simWorkload) teardown() {}

// pass runs the list once at seed and checks each result: against the
// golden pins at goldenSeed, against the previous pass at the workload
// seed, and with each experiment's own check.
func (w *simWorkload) pass(seed uint64) ([]*registry.Result, error) {
	ctx, end := w.cfg.tr.begin(context.Background(), "pass")
	defer end()
	out := make([]*registry.Result, len(w.exps))
	for i, e := range w.exps {
		res, err := e.Run(ctx, registry.Request{Seed: seed, Params: w.resolved[i]})
		what := fmt.Sprintf("%s seed %d", e.Name, seed)
		if err != nil {
			w.cfg.ck.op(what, err)
			return nil, fmt.Errorf("%s: %w", what, err)
		}
		out[i] = res
		w.cfg.ck.op(what, w.check(i, seed, res))
	}
	return out, nil
}

func (w *simWorkload) check(i int, seed uint64, res *registry.Result) error {
	name := w.exps[i].Name
	if want, ok := goldenSHA256[name]; ok && seed == goldenSeed {
		if got := sha256Hex([]byte(res.Text)); got != want {
			return fmt.Errorf("text sha256 %s, golden pin %s", got, want)
		}
	}
	if w.prev != nil && seed == w.cfg.seed {
		if err := sameResult(w.prev[i], res); err != nil {
			return fmt.Errorf("differs from the previous pass: %w", err)
		}
	}
	if name == "sca-cpa" {
		return checkKeyRecovered(res)
	}
	return nil
}

func (w *simWorkload) measure(d time.Duration) (*window, error) {
	win := &window{start: time.Now()}
	for time.Since(win.start) < d || len(win.jobs) == 0 {
		t := time.Now()
		res, err := w.pass(w.cfg.seed)
		if err != nil {
			return nil, err
		}
		w.prev = res
		win.jobs = append(win.jobs, job{class: "pass", start: t, end: time.Now()})
	}
	win.end = time.Now()
	return win, nil
}

func (w *simWorkload) layerMetrics(*window, metrics) {}

// timedRegistry is the default catalog with a span recorded around
// every Experiment.Run. Run functions are not part of the catalog
// fingerprint, so a fleet serving it interoperates with any node.
func timedRegistry(tr *tracer) *registry.Registry {
	base := registry.Default().Experiments()
	exps := make([]*registry.Experiment, len(base))
	for i, e := range base {
		c := *e
		run, name := e.Run, "experiment."+e.Name
		c.Run = func(ctx context.Context, req registry.Request) (*registry.Result, error) {
			ctx, end := tr.begin(ctx, name)
			defer end()
			return run(ctx, req)
		}
		exps[i] = &c
	}
	return registry.New(exps...)
}

func sha256Hex(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// sameResult reports whether two results carry identical bytes.
func sameResult(a, b *registry.Result) error {
	if a.Text != b.Text {
		return fmt.Errorf("text sha256 %s vs %s", sha256Hex([]byte(a.Text)), sha256Hex([]byte(b.Text)))
	}
	if len(a.Artifacts) != len(b.Artifacts) {
		return fmt.Errorf("%d vs %d artifacts", len(a.Artifacts), len(b.Artifacts))
	}
	for i := range a.Artifacts {
		x, y := a.Artifacts[i], b.Artifacts[i]
		if x.Name != y.Name || x.Kind != y.Kind || string(x.Data) != string(y.Data) {
			return fmt.Errorf("artifact %q differs", x.Name)
		}
	}
	return nil
}

// checkKeyRecovered requires the CPA key-rank report to put the true
// key byte at rank 0 for all 16 bytes.
func checkKeyRecovered(res *registry.Result) error {
	for _, a := range res.Artifacts {
		if a.Name != "cpa_keyrank.json" {
			continue
		}
		var r experiments.SCACPAResult
		if err := json.Unmarshal(a.Data, &r); err != nil {
			return fmt.Errorf("cpa_keyrank.json: %w", err)
		}
		for i, b := range r.Bytes {
			if b.TrueRank != 0 {
				return fmt.Errorf("key byte %d at rank %d", i, b.TrueRank)
			}
		}
		if !r.Recovered || r.RecoveredKey != r.TrueKey {
			return fmt.Errorf("recovered key %s, true key %s", r.RecoveredKey, r.TrueKey)
		}
		return nil
	}
	return fmt.Errorf("no cpa_keyrank.json artifact")
}
