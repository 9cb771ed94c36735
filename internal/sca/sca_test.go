package sca

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"testing"

	"repro/internal/aes"
	"repro/internal/xrand"
)

// synthTraces builds n synthetic traces with the victim's leak shape:
// each key byte b leaks HW(SBox(pt[b]^key[b])) at sample 8+4*b, on a
// flat baseline with deterministic uniform noise of the given
// amplitude. Returns traces, plaintexts, and the leak positions.
func synthTraces(n, samples int, key [16]byte, noise float64, seed uint64) ([][]float32, [][]byte, [16]int) {
	rng := xrand.New(seed)
	traces := make([][]float32, n)
	pts := make([][]byte, n)
	var leakAt [16]int
	for b := 0; b < 16; b++ {
		leakAt[b] = 8 + 4*b
	}
	for i := 0; i < n; i++ {
		pt := make([]byte, 16)
		for b := range pt {
			pt[b] = byte(rng.Uint64())
		}
		t := make([]float32, samples)
		for s := range t {
			t[s] = float32(0.62 + noise*(rng.Float64()-0.5))
		}
		for b := 0; b < 16; b++ {
			hw := bits.OnesCount8(aes.SBox(pt[b] ^ key[b]))
			t[leakAt[b]] += float32(hw)
		}
		traces[i], pts[i] = t, pt
	}
	return traces, pts, leakAt
}

var testKey = [16]byte{
	0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
	0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c,
}

// TestCPARecoversSyntheticKey: with the hypothesis model and the leak
// model in exact agreement, a handful of traces recover every byte at
// rank 0, each peaking at its known leak sample.
func TestCPARecoversSyntheticKey(t *testing.T) {
	traces, pts, leakAt := synthTraces(40, 96, testKey, 1.0, 0xABCD)
	res, err := Attack(context.Background(), traces, pts, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Key != testKey {
		t.Fatalf("recovered %x, want %x", res.Key, testKey)
	}
	for b := 0; b < 16; b++ {
		br := &res.Bytes[b]
		if got := br.Rank(testKey[b]); got != 0 {
			t.Errorf("byte %d: true byte at rank %d", b, got)
		}
		if br.PeakAt != leakAt[b] {
			t.Errorf("byte %d: peak at sample %d, want leak sample %d", b, br.PeakAt, leakAt[b])
		}
		if br.Margin <= 0 {
			t.Errorf("byte %d: non-positive margin %g", b, br.Margin)
		}
	}
}

// refHW is HW(SBox(b)), derived from aes.SBox directly rather than
// from hwSBox: the reference must not share the code under test.
var refHW = func() (t [256]float64) {
	for b := range t {
		t[b] = float64(bits.OnesCount8(aes.SBox(byte(b))))
	}
	return t
}()

// addReference is the textbook per-trace fold the blocked Add must
// reproduce bit for bit: every sum advances once per trace, in trace
// order, and a zero hypothesis skips the cross-sum row entirely.
func addReference(a *PearsonAcc, t []float32, pt byte) {
	a.n++
	for s := 0; s < a.W; s++ {
		x := float64(t[s])
		a.sx[s] += x
		a.sxx[s] += x * x
	}
	for g := 0; g < 256; g++ {
		h := refHW[pt^byte(g)]
		a.sh[g] += h
		a.shh[g] += h * h
		if h == 0 {
			continue
		}
		row := a.shx[g*a.W : (g+1)*a.W]
		for s := 0; s < a.W; s++ {
			row[s] += h * float64(t[s])
		}
	}
}

// diffTraces generates n traces of at least w samples (some longer, as
// Attack allows) whose values mix noise, exact ±0, magnitudes across a
// wide exponent range and constant (zero-variance) columns.
func diffTraces(rng *xrand.Rand, n, w int) ([][]float32, []byte) {
	constCol := make([]float32, w)
	for s := range constCol {
		switch rng.Uint64() % 4 {
		case 0:
			constCol[s] = float32(math.Copysign(0, -1))
		case 1:
			constCol[s] = float32(rng.Float64()*8 - 4)
		default:
			constCol[s] = float32(math.NaN()) // marks a varying column
		}
	}
	traces := make([][]float32, n)
	pts := make([]byte, n)
	for i := range traces {
		t := make([]float32, w+int(rng.Uint64()%3))
		for s := range t {
			if s < w && !math.IsNaN(float64(constCol[s])) {
				t[s] = constCol[s]
				continue
			}
			switch rng.Uint64() % 8 {
			case 0:
				t[s] = float32(math.Copysign(0, -1))
			case 1:
				t[s] = 0
			case 2, 3:
				// Magnitudes over 80 binades: sums round, so any
				// reordering of a chain's addends shows in the bits.
				e := int(rng.Uint64()%81) - 40
				t[s] = float32(math.Ldexp(rng.Float64()-0.5, e))
			default:
				t[s] = float32(0.62 + 3*(rng.Float64()-0.5))
			}
		}
		traces[i] = t
		pts[i] = byte(rng.Uint64())
	}
	return traces, pts
}

// TestAddMatchesPerTraceReference: the blocked batch fold is
// bit-identical to the per-trace reference — every running sum and
// every correlation — across trace counts around the 4-trace fold,
// windows around the 16-sample block, batches split at random
// boundaries, signed zeros and constant columns.
func TestAddMatchesPerTraceReference(t *testing.T) {
	rng := xrand.New(0xC0FFEE)
	same := func(what string, i int, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s[%d] = %v (%#x), reference %v (%#x)",
				what, i, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, n := range []int{1, 3, 4, 5, 257} {
		for _, w := range []int{1, 15, 16, 17, 167} {
			t.Run(fmt.Sprintf("n%d_w%d", n, w), func(t *testing.T) {
				traces, pts := diffTraces(rng, n, w)
				ref := NewPearsonAcc(w)
				for i, tr := range traces {
					addReference(ref, tr, pts[i])
				}
				got := NewPearsonAcc(w)
				for lo := 0; lo < n; {
					hi := lo + int(rng.Uint64()%uint64(n-lo+1))
					got.Add(traces[lo:hi], pts[lo:hi])
					lo = hi
				}
				same("n", 0, got.n, ref.n)
				for s := 0; s < w; s++ {
					same("sx", s, got.sx[s], ref.sx[s])
					same("sxx", s, got.sxx[s], ref.sxx[s])
				}
				for g := 0; g < 256; g++ {
					same("sh", g, got.sh[g], ref.sh[g])
					same("shh", g, got.shh[g], ref.shh[g])
				}
				for i := range ref.shx {
					same("shx", i, got.shx[i], ref.shx[i])
				}
				for g := 0; g < 256; g++ {
					for s := 0; s < w; s++ {
						same("Corr", g*w+s, got.Corr(g, s), ref.Corr(g, s))
					}
				}
			})
		}
	}
}

// TestPearsonAccMatchesTwoPass: the streaming accumulator's closed-form
// r equals a textbook two-pass Pearson computation.
func TestPearsonAccMatchesTwoPass(t *testing.T) {
	const n, w = 37, 5
	rng := xrand.New(0x9E3779B9)
	traces := make([][]float32, n)
	ptb := make([]byte, n)
	for i := range traces {
		tr := make([]float32, w)
		for s := range tr {
			tr[s] = float32(rng.Float64() * 10)
		}
		traces[i] = tr
		ptb[i] = byte(rng.Uint64())
	}
	acc := NewPearsonAcc(w)
	acc.Add(traces, ptb)
	twoPass := func(g, s int) float64 {
		var mx, mh float64
		for i := range traces {
			mx += float64(traces[i][s])
			mh += refHW[ptb[i]^byte(g)]
		}
		mx /= n
		mh /= n
		var num, dx, dh float64
		for i := range traces {
			x := float64(traces[i][s]) - mx
			h := refHW[ptb[i]^byte(g)] - mh
			num += x * h
			dx += x * x
			dh += h * h
		}
		if dx*dh == 0 {
			return 0
		}
		return num / math.Sqrt(dx*dh)
	}
	for g := 0; g < 256; g += 17 {
		for s := 0; s < w; s++ {
			got, want := acc.Corr(g, s), twoPass(g, s)
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("Corr(%d,%d) = %.12f, two-pass %.12f", g, s, got, want)
			}
		}
	}
}

// TestCorrZeroVariance: a constant trace or constant hypothesis yields
// r = 0, not NaN.
func TestCorrZeroVariance(t *testing.T) {
	acc := NewPearsonAcc(1)
	for i := 0; i < 8; i++ {
		acc.Add([][]float32{{3.5}}, []byte{byte(i)})
	}
	for g := 0; g < 256; g++ {
		if r := acc.Corr(g, 0); r != 0 || math.IsNaN(r) {
			t.Fatalf("constant trace: Corr(%d,0) = %v, want 0", g, r)
		}
	}
}

// TestAttackValidates pins the input validation.
func TestAttackValidates(t *testing.T) {
	good := [][]float32{{1, 2}, {3, 4}}
	pts := [][]byte{make([]byte, 16), make([]byte, 16)}
	ctx := context.Background()
	if _, err := Attack(ctx, nil, nil, 0, 1); err == nil {
		t.Error("empty trace set accepted")
	}
	if _, err := Attack(ctx, good, pts[:1], 0, 1); err == nil {
		t.Error("plaintext/trace count mismatch accepted")
	}
	if _, err := Attack(ctx, [][]float32{{1, 2}, {3}}, pts, 0, 1); err == nil {
		t.Error("ragged traces accepted")
	}
	if _, err := Attack(ctx, good, [][]byte{make([]byte, 16), make([]byte, 3)}, 0, 1); err == nil {
		t.Error("short plaintext accepted")
	}
}

// TestAttackDeterministicAcrossWorkers: the fan-out leaves no
// scheduling fingerprint on the result.
func TestAttackDeterministicAcrossWorkers(t *testing.T) {
	traces, pts, _ := synthTraces(16, 80, testKey, 2.0, 0xFEED)
	a, err := Attack(context.Background(), traces, pts, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Attack(context.Background(), traces, pts, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
		t.Fatal("Attack result depends on worker count")
	}
}

// BenchmarkCPACorrelate measures the full 16-byte CPA over a realistic
// window: 64 traces × 256 samples, all guesses.
func BenchmarkCPACorrelate(b *testing.B) {
	traces, pts, _ := synthTraces(64, 256, testKey, 1.0, 0xBEEF)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Attack(ctx, traces, pts, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*len(traces))/b.Elapsed().Seconds(), "traces/s")
}
