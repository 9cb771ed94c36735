package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"
)

// The experiments are documented as pure functions of a seed, and since
// the runner port they are *parallel* pure functions of a seed: the same
// seed must render the same bytes whether the trial cells run on one
// worker or many. These tests pin that contract.

// table1GoldenSHA256 is the SHA-256 of Table1(ctx, testSeed).String(). The
// value was captured on the pre-vectorization scalar tree (commit
// cfacbf8) and must survive both the word-vectorized decay kernels and
// the parallel runner: the physics stream is part of the repo's
// reproducibility contract. If a deliberate model change moves it,
// re-derive the constant and say so in the commit message.
const table1GoldenSHA256 = "d0147003d73a9891bfc4a16a43e0f10ffd06691925aee402807de2200f2f2bc9"

// Execution-path golden pins: SHA-256 of the rendered Figure 7, Figure 8
// and Table 4 outputs at testSeed, captured on the pre-fast-path tree
// (commit 49bfb5d, before the predecoded i-stream and zero-copy cache
// refactor). These experiments exercise the full CPU/cache/kernel
// execution pipeline, so the pins machine-check that the allocation-free
// fast paths are architecturally invisible: same fetch results, same LRU
// eviction order, same writeback timing, same extracted SRAM images. If a
// deliberate model change moves one, re-derive the constant and say so in
// the commit message.
const (
	figure7GoldenSHA256 = "462a2228f15b896b729033cdb16e51edaa21437575a3ceba1c7481c21116c0e0"
	figure8GoldenSHA256 = "f8a5f69d4c2f614ea515e3e3ee9ff37ec8a27edf0b4c2a30c12729e988d20ee5"
	table4GoldenSHA256  = "2428a16c7c3b81d1b2d4ed521ddbb784ee5875897ca934c103112309ff4c95e9"
)

func sha256Hex(s string) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(s)))
}

// TestFigure7GoldenSeed: the concatenated per-panel renderings of the
// L1 I-cache extraction experiment are byte-identical to the
// pre-fast-path golden output.
func TestFigure7GoldenSeed(t *testing.T) {
	panels, err := Figure7(context.Background(), testSeed)
	if err != nil {
		t.Fatal(err)
	}
	var out string
	for _, p := range panels {
		out += p.String()
	}
	if got := sha256Hex(out); got != figure7GoldenSHA256 {
		t.Fatalf("Figure7(%#x) rendered output drifted from the pre-fast-path golden value\n"+
			"sha256 = %s, want %s\noutput:\n%s", uint64(testSeed), got, figure7GoldenSHA256, out)
	}
}

// TestFigure8GoldenSeed: the OS-scenario L1D/L2 extraction rendering is
// byte-identical to the pre-fast-path golden output.
func TestFigure8GoldenSeed(t *testing.T) {
	res, err := Figure8(context.Background(), testSeed)
	if err != nil {
		t.Fatal(err)
	}
	out := res.String()
	if got := sha256Hex(out); got != figure8GoldenSHA256 {
		t.Fatalf("Figure8(%#x) rendered output drifted from the pre-fast-path golden value\n"+
			"sha256 = %s, want %s\noutput:\n%s", uint64(testSeed), got, figure8GoldenSHA256, out)
	}
}

// TestTable4GoldenSeed: the per-array extraction-accuracy sweep is
// byte-identical to the pre-fast-path golden output. Skipped under
// -short: the sweep runs the full attack once per on-chip array.
func TestTable4GoldenSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("full attack run per on-chip array")
	}
	res, err := Table4(context.Background(), testSeed)
	if err != nil {
		t.Fatal(err)
	}
	out := res.String()
	if got := sha256Hex(out); got != table4GoldenSHA256 {
		t.Fatalf("Table4(%#x) rendered output drifted from the pre-fast-path golden value\n"+
			"sha256 = %s, want %s\noutput:\n%s", uint64(testSeed), got, table4GoldenSHA256, out)
	}
}

// Fault-campaign golden pins: SHA-256 of the rendered text followed by
// every artifact the catalog publishes, in catalog order — for sca-cpa
// the cpa_keyrank.json and cpa_traces.vbtr bytes, for glitch-search the
// glitch_success_map.json bytes — at testSeed. Captured at commit
// 046ad90, before the blocked CPA accumulation and the dirty-set LRU
// restore, so they machine-check that both are bit-invisible. The CPA
// trace count is deliberately not a multiple of the accumulator's
// 4-trace fold, so the remainder path is pinned too.
const (
	scaCPAGoldenTraces       = 103
	scaCPAGoldenSHA256       = "ed07400f2d0342a3ab8c7c90a59633db88a49d387ecd2987f467963bc15f2fbb"
	glitchSearchGoldenSHA256 = "3cf9ad5abb328c0e0130457868cf189008898953a15845de3d7ec6ba45e04085"
)

// pinnedSHA256 hashes a run's text and artifact bytes as one stream.
func pinnedSHA256(t *testing.T, text string, artifacts ...any) string {
	t.Helper()
	h := sha256.New()
	h.Write([]byte(text))
	for _, a := range artifacts {
		var blob []byte
		switch a := a.(type) {
		case []byte:
			blob = a
		default:
			var err error
			if blob, err = json.MarshalIndent(a, "", "  "); err != nil {
				t.Fatal(err)
			}
		}
		h.Write(blob)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestSCACPAGoldenSeed: the CPA report, key-rank JSON and VBTR trace
// blob are byte-identical to the pre-blocked-accumulation output.
func TestSCACPAGoldenSeed(t *testing.T) {
	res, err := SCACPA(context.Background(), testSeed, scaCPAGoldenTraces, 256, 1.0, mustKey(t))
	if err != nil {
		t.Fatal(err)
	}
	traces, err := res.TraceArtifact()
	if err != nil {
		t.Fatal(err)
	}
	if got := pinnedSHA256(t, res.String(), res, traces); got != scaCPAGoldenSHA256 {
		t.Fatalf("SCACPA(%#x, %d traces) output drifted from the golden value\n"+
			"sha256 = %s, want %s\noutput:\n%s", uint64(testSeed), scaCPAGoldenTraces, got, scaCPAGoldenSHA256, res)
	}
}

// TestGlitchSearchGoldenSeed: the glitch success map, text and JSON,
// is byte-identical to the pre-dirty-set-restore output.
func TestGlitchSearchGoldenSeed(t *testing.T) {
	res := defaultGlitchSearch(t)
	if got := pinnedSHA256(t, res.String(), res); got != glitchSearchGoldenSHA256 {
		t.Fatalf("GlitchSearch(%#x) output drifted from the golden value\n"+
			"sha256 = %s, want %s\noutput:\n%s", uint64(testSeed), got, glitchSearchGoldenSHA256, res)
	}
}

func withGOMAXPROCS(t *testing.T, n int, f func()) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(prev)
	f()
}

// defaultRetentionSweep runs Ablation B over its default grid.
func defaultRetentionSweep(t testing.TB) *RetentionSweepResult {
	t.Helper()
	res, err := RetentionSweep(context.Background(), testSeed, RetentionSweepTemps(), RetentionSweepOffTimes())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// defaultGlitchSearch runs the glitch search over its default axes with
// the catalog's default 6 trials per cell.
func defaultGlitchSearch(t testing.TB) *GlitchSearchResult {
	t.Helper()
	res, err := GlitchSearch(context.Background(), testSeed,
		GlitchSearchOffsets(), GlitchSearchWidths(), GlitchSearchDepths(), 6)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func table1Render(t *testing.T) string {
	t.Helper()
	res, err := Table1(context.Background(), testSeed)
	if err != nil {
		t.Fatal(err)
	}
	return res.String()
}

// TestTable1GoldenSeed: the rendered table is byte-identical to the
// scalar-era golden output.
func TestTable1GoldenSeed(t *testing.T) {
	out := table1Render(t)
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out))); got != table1GoldenSHA256 {
		t.Fatalf("Table1(%#x) rendered output drifted from the scalar-era golden value\n"+
			"sha256 = %s, want %s\noutput:\n%s", uint64(testSeed), got, table1GoldenSHA256, out)
	}
}

// TestTable1DeterministicAcrossWorkers: GOMAXPROCS=1 and GOMAXPROCS=N
// produce byte-identical renderings — the runner's ordering and seed
// discipline leave no scheduling fingerprint in the output.
func TestTable1DeterministicAcrossWorkers(t *testing.T) {
	var serial, parallel string
	withGOMAXPROCS(t, 1, func() { serial = table1Render(t) })
	withGOMAXPROCS(t, 4, func() { parallel = table1Render(t) })
	if serial != parallel {
		t.Fatalf("Table1 output depends on worker count:\nGOMAXPROCS=1:\n%s\nGOMAXPROCS=4:\n%s", serial, parallel)
	}
}

// TestRetentionSweepDeterministicAcrossWorkers: the 24-cell ablation
// grid is likewise invariant under fan-out.
func TestRetentionSweepDeterministicAcrossWorkers(t *testing.T) {
	var serial, parallel string
	withGOMAXPROCS(t, 1, func() { serial = defaultRetentionSweep(t).String() })
	withGOMAXPROCS(t, 4, func() { parallel = defaultRetentionSweep(t).String() })
	if serial != parallel {
		t.Fatalf("RetentionSweep output depends on worker count:\n1 worker:\n%s\n4 workers:\n%s", serial, parallel)
	}
}

// TestGlitchSearchDeterministicAcrossWorkers: the Monte-Carlo glitch
// success map is a parallel pure function of its seed — per-trial fault
// draws come from seeds derived by task index, so worker count and
// scheduling leave no fingerprint in the map.
func TestGlitchSearchDeterministicAcrossWorkers(t *testing.T) {
	render := func() string {
		return defaultGlitchSearch(t).String()
	}
	var serial, parallel string
	withGOMAXPROCS(t, 1, func() { serial = render() })
	withGOMAXPROCS(t, 4, func() { parallel = render() })
	if serial != parallel {
		t.Fatalf("GlitchSearch output depends on worker count:\n1 worker:\n%s\n4 workers:\n%s", serial, parallel)
	}
}

// TestCountermeasuresDeterministicAcrossWorkers: the §8 survey rows keep
// their fixed scenario order and values under fan-out.
func TestCountermeasuresDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("eight full attack runs, twice")
	}
	render := func() string {
		res, err := Countermeasures(context.Background(), testSeed)
		if err != nil {
			t.Fatal(err)
		}
		return res.String()
	}
	var serial, parallel string
	withGOMAXPROCS(t, 1, func() { serial = render() })
	withGOMAXPROCS(t, 4, func() { parallel = render() })
	if serial != parallel {
		t.Fatalf("Countermeasures output depends on worker count:\n1 worker:\n%s\n4 workers:\n%s", serial, parallel)
	}
}
