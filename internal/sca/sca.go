// Package sca is the analysis half of the side-channel toolkit: given
// power traces captured by internal/trace, it recovers secrets. Two
// classic techniques are implemented against the repo's AES victim:
//
//   - SPA (spa.go): align traces and match activity peaks to find the
//     round structure of the AES schedule — where in time the leak is.
//   - CPA (this file): correlate per-key-byte Hamming-weight hypotheses
//     against N traces and read the key out of the correlation peaks.
//
// The CPA accumulator is streaming and one-pass: each trace updates
// running sums (Σx, Σx², Σh, Σh², Σhx) from which Pearson's r for
// every (guess, sample) pair is closed-form at the end — no trace
// matrix is retained, so trace count is bounded by capture time, not
// memory. Every sum is a chain of additions in trace index order,
// which keeps the float64 sums — and therefore every reported
// correlation — bit-reproducible across runs and GOMAXPROCS settings.
// The Σhx cross-sum is folded a block of samples at a time (see Add)
// so its working set stays in L1; the blocking reorders only which
// chain advances next, never the addends of one chain. The per-key-byte
// searches are independent, so Attack fans them out over
// runner.MapWithResource and reassembles in byte order.
package sca

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/aes"
	"repro/internal/runner"
)

// hwSBox[b] = HW(SBox(b)): the hypothesis table. h[guess] for a trace
// with plaintext byte p is hwSBox[p^guess] — the predicted Hamming
// weight of the round-0 SubBytes writeback the victim leaks.
var hwSBox [256]uint8

func init() {
	for b := 0; b < 256; b++ {
		hwSBox[b] = uint8(bits.OnesCount8(aes.SBox(byte(b))))
	}
}

// Cross-sum blocking: Add folds Σhx blockW samples at a time, four
// traces per pass over the block. A block's [256][blockW] float64
// accumulator is 32 KB, so it stays in L1 while every trace of the
// batch folds into it.
const (
	blockW     = 16
	foldTraces = 4
)

// PearsonAcc is the streaming one-pass Pearson accumulator for one key
// byte: 256 guess hypotheses against a window of trace samples.
type PearsonAcc struct {
	// W is the correlation window in samples.
	W int
	// n is the trace count; sx/sxx are per-sample trace sums; sh/shh
	// are per-guess hypothesis sums; shx is the [256][W] cross-sum,
	// flattened guess-major.
	n       float64
	sx, sxx []float64
	sh, shh [256]float64
	shx     []float64
}

// NewPearsonAcc builds an accumulator over a window of w samples.
func NewPearsonAcc(w int) *PearsonAcc {
	return &PearsonAcc{
		W:   w,
		sx:  make([]float64, w),
		sxx: make([]float64, w),
		shx: make([]float64, 256*w),
	}
}

// products holds one trace's block of exact hypothesis-weighted
// samples: row k is k·x for k = 0..8 (rows 9..15 pad the index to a
// power of two so h&15 needs no bounds check). Row 0 is +0, not 0·x:
// a zero hypothesis contributes nothing, and +0 is the identity on an
// accumulator that starts at +0 — such a sum can never reach −0.
type products [16][blockW]float64

// fill loads samples t[s0:s0+bw] into p's rows. k·x is exact in
// float64 (a float32 mantissa times a 4-bit integer fits in 53 bits),
// so each row entry is exactly the addend h·x the per-trace fold adds.
func (p *products) fill(t []float32, s0, bw int) {
	var x [blockW]float64
	for j := 0; j < bw; j++ {
		x[j] = float64(t[s0+j])
	}
	for k := 1; k <= 8; k++ {
		fk := float64(k)
		row := &p[k]
		for j := range row {
			row[j] = fk * x[j]
		}
	}
}

// Add folds a batch of traces into the sums, in batch order. pts[i] is
// trace i's known plaintext byte for the key byte under attack; every
// trace must hold at least W samples. Successive calls continue the
// same chains, so splitting a trace set into batches changes nothing.
//
// Each (guess, sample) cross-sum adds exactly the addends the textbook
// per-trace loop adds, in trace order: the loops are only interchanged
// so a block of samples is loaded once, folded over the whole batch —
// four traces per load/store of each lane — and stored back. A batch
// whose length is not a multiple of four pads its last fold with
// all-zero products, which add +0 (see products).
func (a *PearsonAcc) Add(traces [][]float32, pts []byte) {
	for i, t := range traces {
		a.n++
		for s, v := range t[:a.W] {
			x := float64(v)
			a.sx[s] += x
			a.sxx[s] += x * x
		}
		for g := 0; g < 256; g++ {
			h := float64(hwSBox[pts[i]^byte(g)])
			a.sh[g] += h
			a.shh[g] += h * h
		}
	}
	var acc [256][blockW]float64
	var prod [foldTraces]products
	for s0 := 0; s0 < a.W; s0 += blockW {
		bw := min(blockW, a.W-s0)
		for g := range acc {
			copy(acc[g][:bw], a.shx[g*a.W+s0:])
		}
		for i := 0; i < len(traces); i += foldTraces {
			var pt [foldTraces]byte
			for f := range prod {
				if i+f < len(traces) {
					prod[f].fill(traces[i+f], s0, bw)
					pt[f] = pts[i+f]
				} else {
					prod[f] = products{} // past the batch end: adds +0
				}
			}
			fold4(&acc, &prod, pt[0], pt[1], pt[2], pt[3])
		}
		for g := range acc {
			copy(a.shx[g*a.W+s0:g*a.W+s0+bw], acc[g][:bw])
		}
	}
}

// fold4 adds four traces' products into every guess row of a block:
// lane j of guess g gains h0·x0, h1·x1, h2·x2, h3·x3 in that order (Go's
// + is left-associative), exactly the chain the per-trace loop builds.
// The lanes are unrolled by four so loop control stays off the adds.
func fold4(acc *[256][blockW]float64, prod *[foldTraces]products, p0, p1, p2, p3 byte) {
	for g := range acc {
		gb := byte(g)
		r0 := &prod[0][hwSBox[p0^gb]&15]
		r1 := &prod[1][hwSBox[p1^gb]&15]
		r2 := &prod[2][hwSBox[p2^gb]&15]
		r3 := &prod[3][hwSBox[p3^gb]&15]
		row := &acc[g]
		for j := 0; j < blockW; j += 4 {
			row[j] = row[j] + r0[j] + r1[j] + r2[j] + r3[j]
			row[j+1] = row[j+1] + r0[j+1] + r1[j+1] + r2[j+1] + r3[j+1]
			row[j+2] = row[j+2] + r0[j+2] + r1[j+2] + r2[j+2] + r3[j+2]
			row[j+3] = row[j+3] + r0[j+3] + r1[j+3] + r2[j+3] + r3[j+3]
		}
	}
}

// Corr returns Pearson's r between guess g's hypothesis and sample s
// across everything added so far (0 when either side has no variance).
func (a *PearsonAcc) Corr(g int, s int) float64 {
	num := a.n*a.shx[g*a.W+s] - a.sh[g]*a.sx[s]
	dh := a.n*a.shh[g] - a.sh[g]*a.sh[g]
	dx := a.n*a.sxx[s] - a.sx[s]*a.sx[s]
	den := dh * dx
	if den <= 0 {
		return 0
	}
	return num / math.Sqrt(den)
}

// ByteResult is the CPA outcome for one key byte.
type ByteResult struct {
	// Best is the winning guess: the byte whose peak |r| is highest.
	Best byte
	// PeakCorr is the winner's peak |r|; PeakAt its sample index.
	PeakCorr float64
	PeakAt   int
	// Margin is the winner's peak minus the runner-up's peak — the
	// confidence of the recovery.
	Margin float64
	// Scores holds every guess's peak |r|, for rank computation
	// against a known key.
	Scores [256]float64
}

// Rank returns the rank of byte b among the guesses: 0 when b won, k
// when k guesses scored strictly higher.
func (r *ByteResult) Rank(b byte) int {
	rank := 0
	for g := 0; g < 256; g++ {
		if r.Scores[g] > r.Scores[b] {
			rank++
		}
	}
	return rank
}

// Result is a full 16-byte CPA key recovery.
type Result struct {
	// Key is the recovered key (each byte's winning guess).
	Key [16]byte
	// Bytes holds the per-byte detail.
	Bytes [16]ByteResult
}

// attackByte runs the full guess-space correlation for key byte b.
func attackByte(traces [][]float32, pts [][]byte, w int, b int) ByteResult {
	col := make([]byte, len(pts))
	for i, pt := range pts {
		col[i] = pt[b]
	}
	acc := NewPearsonAcc(w)
	acc.Add(traces, col)
	var res ByteResult
	best, second := -1.0, -1.0
	for g := 0; g < 256; g++ {
		peak, peakAt := 0.0, 0
		for s := 0; s < w; s++ {
			if r := math.Abs(acc.Corr(g, s)); r > peak {
				peak, peakAt = r, s
			}
		}
		res.Scores[g] = peak
		if peak > best {
			second = best
			best = peak
			res.Best, res.PeakCorr, res.PeakAt = byte(g), peak, peakAt
		} else if peak > second {
			second = peak
		}
	}
	res.Margin = best - second
	return res
}

// Attack recovers a 16-byte AES key by CPA over the first w samples of
// each trace (w is clamped to the trace length). pts[i] must hold
// trace i's 16 plaintext bytes. The 16 byte-searches run in parallel
// over the runner; the result is deterministic — each byte's sums
// accumulate in trace order regardless of worker count.
func Attack(ctx context.Context, traces [][]float32, pts [][]byte, w int, workers int) (*Result, error) {
	if len(traces) == 0 {
		return nil, fmt.Errorf("sca: no traces")
	}
	if len(pts) != len(traces) {
		return nil, fmt.Errorf("sca: %d plaintexts for %d traces", len(pts), len(traces))
	}
	for i, t := range traces {
		if len(t) < 1 {
			return nil, fmt.Errorf("sca: trace %d is empty", i)
		}
		if len(t) < len(traces[0]) {
			return nil, fmt.Errorf("sca: ragged traces (%d: %d samples, 0: %d)", i, len(t), len(traces[0]))
		}
		if len(pts[i]) != 16 {
			return nil, fmt.Errorf("sca: plaintext %d has %d bytes, want 16", i, len(pts[i]))
		}
	}
	if w <= 0 || w > len(traces[0]) {
		w = len(traces[0])
	}
	outs, err := runner.MapWithResource(ctx, 16, workers,
		func() (struct{}, error) { return struct{}{}, nil },
		func(_ struct{}, b int) (ByteResult, error) {
			return attackByte(traces, pts, w, b), nil
		})
	if err != nil {
		return nil, err
	}
	res := &Result{}
	for b, out := range outs {
		res.Bytes[b] = out
		res.Key[b] = out.Best
	}
	return res, nil
}
