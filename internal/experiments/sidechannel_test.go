package experiments

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/board"
	"repro/internal/trace"
)

func mustKey(t *testing.T) [16]byte {
	t.Helper()
	key, err := ParseSCAKey(SCADefaultKey)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// TestSCACPARecoversKey: the documented recovery point — 100 traces at
// noise sigma 1.0 recover the full key at rank 0 on every byte. This
// is the acceptance criterion of the side-channel toolkit: the leak
// model in the capturer and the hypothesis model in the attack meet in
// the middle.
func TestSCACPARecoversKey(t *testing.T) {
	key := mustKey(t)
	res, err := SCACPA(context.Background(), testSeed, 100, 256, 1.0, key)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Recovered {
		t.Fatalf("CPA failed to recover the key:\n%s", res)
	}
	for i, b := range res.Bytes {
		if b.TrueRank != 0 {
			t.Errorf("byte %d: true key byte at rank %d, want 0", i, b.TrueRank)
		}
	}
	if res.MinMargin <= 0 {
		t.Errorf("recovered key has non-positive margin %g", res.MinMargin)
	}
}

// TestSCACPADeterministicAcrossWorkers: capture fan-out and the 16-way
// CPA fan-out leave no scheduling fingerprint — rendering and the
// binary trace artifact are byte-identical at GOMAXPROCS 1 and 4.
func TestSCACPADeterministicAcrossWorkers(t *testing.T) {
	key := mustKey(t)
	run := func() (string, []byte) {
		res, err := SCACPA(context.Background(), testSeed, 24, 256, 0.5, key)
		if err != nil {
			t.Fatal(err)
		}
		art, err := res.TraceArtifact()
		if err != nil {
			t.Fatal(err)
		}
		return res.String(), art
	}
	var serialTxt, parallelTxt string
	var serialArt, parallelArt []byte
	withGOMAXPROCS(t, 1, func() { serialTxt, serialArt = run() })
	withGOMAXPROCS(t, 4, func() { parallelTxt, parallelArt = run() })
	if serialTxt != parallelTxt {
		t.Fatalf("CPA rendering depends on worker count:\n1 worker:\n%s\n4 workers:\n%s", serialTxt, parallelTxt)
	}
	if !bytes.Equal(serialArt, parallelArt) {
		t.Fatalf("trace artifact depends on worker count (%d vs %d bytes)", len(serialArt), len(parallelArt))
	}
}

// TestTraceCaptureArtifactRoundTrip: the VBTR artifact decodes back to
// the captured samples and plaintexts bit-for-bit.
func TestTraceCaptureArtifactRoundTrip(t *testing.T) {
	key := mustKey(t)
	res, err := TraceCapture(context.Background(), testSeed, 6, 2048, 0.25, key)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := res.Set.Artifact()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := trace.DecodeSet(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Samples) != len(res.Set.Traces) {
		t.Fatalf("decoded %d traces, want %d", len(dec.Samples), len(res.Set.Traces))
	}
	for i := range dec.Samples {
		if !bytes.Equal(dec.Aux[i], res.Set.Pts[i]) {
			t.Fatalf("trace %d: aux plaintext did not round-trip", i)
		}
		for j, s := range dec.Samples[i] {
			if s != res.Set.Traces[i][j] {
				t.Fatalf("trace %d sample %d: %g != %g", i, j, s, res.Set.Traces[i][j])
			}
		}
	}
	if res.Set.SamplesPerTrace != res.Set.RunLength {
		t.Fatalf("full-window capture recorded %d samples, victim run length %d",
			res.Set.SamplesPerTrace, res.Set.RunLength)
	}
}

// TestSCASPAFindsRounds: SPA on the averaged trace finds exactly the
// victim's ten round bursts, each containing its known round start, and
// every trace aligns to trace 0 at lag zero.
func TestSCASPAFindsRounds(t *testing.T) {
	key := mustKey(t)
	res, err := SCASPA(context.Background(), testSeed, 4, 2048, 0.25, key)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Peaks) != res.Set.Rounds {
		t.Fatalf("SPA found %d bursts, want %d:\n%s", len(res.Peaks), res.Set.Rounds, res)
	}
	if res.MatchedRounds != res.Set.Rounds {
		t.Fatalf("SPA matched %d/%d round starts:\n%s", res.MatchedRounds, res.Set.Rounds, res)
	}
	for i, lag := range res.Lags {
		if lag != 0 {
			t.Errorf("trace %d aligned at lag %d, want 0", i, lag)
		}
	}
}

// TestArmedTracingDoesNotPerturbGoldens: an armed capturer on every
// board the experiments build must leave the golden outputs untouched —
// trace capture observes retirement and bus traffic but never feeds
// back into execution. Figure 7 and Figure 8 cover the full
// CPU/cache/kernel pipeline; their pins are the same constants the
// plain golden tests check.
func TestArmedTracingDoesNotPerturbGoldens(t *testing.T) {
	prev := boardHook
	boardHook = func(b *board.Board) {
		c, err := trace.New(b.SoC, 0, 4096)
		if err != nil {
			t.Fatal(err)
		}
		c.Arm()
	}
	defer func() { boardHook = prev }()

	panels, err := Figure7(context.Background(), testSeed)
	if err != nil {
		t.Fatal(err)
	}
	var out string
	for _, p := range panels {
		out += p.String()
	}
	if got := sha256Hex(out); got != figure7GoldenSHA256 {
		t.Fatalf("armed tracing perturbed Figure7: sha256 = %s, want %s", got, figure7GoldenSHA256)
	}

	res8, err := Figure8(context.Background(), testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(res8.String()); got != figure8GoldenSHA256 {
		t.Fatalf("armed tracing perturbed Figure8: sha256 = %s, want %s", got, figure8GoldenSHA256)
	}

	if testing.Short() {
		return
	}
	res4, err := Table4(context.Background(), testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(res4.String()); got != table4GoldenSHA256 {
		t.Fatalf("armed tracing perturbed Table4: sha256 = %s, want %s", got, table4GoldenSHA256)
	}
}
