package experiments

import (
	"context"
	"fmt"
	"runtime"
	"strings"

	"repro/internal/analysis"
	"repro/internal/board"
	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/soc"
	"repro/internal/vimg"
)

// Table1Row is one temperature column of Table 1: the mean per-core error
// of a cold boot attack on the BCM2711 d-cache.
type Table1Row struct {
	TempC float64
	Note  string
	// MeanErrorPct is the mean fractional HD between the extracted
	// d-cache image and the pre-stored pattern, averaged over cores,
	// as a percentage.
	MeanErrorPct float64
	// PerCoreErrorPct lists each core's error.
	PerCoreErrorPct []float64
}

// Table1Result reproduces Table 1, including the caption's observation
// that the post-cycle state sits ≈0.10 fractional HD from the cache's
// power-up fingerprint.
type Table1Result struct {
	Rows []Table1Row
	// FracHDToStartup is the fractional HD between the post-cycle cache
	// content and the array's startup fingerprint state (caption: ~0.10).
	FracHDToStartup float64
}

// Table1 runs the §3 cold boot experiment: populate the d-cache of every
// BCM2711 core with a known pattern, soak at each temperature, power
// cycle for a few milliseconds with no probe, extract, and measure error.
//
// The three temperature columns share an identical prefix — same-seed
// board, victim fill, 50M-instruction victim run — and diverge only at
// the chamber soak. Each worker therefore builds one board, runs the
// prefix once, and captures a copy-on-write snapshot
// (board.CaptureSnapshot); each column restores the snapshot in O(dirty
// pages) and runs only the cold boot tail. Results are assembled in
// temperature order and the snapshot restore is bit-exact, so the
// rendered table is byte-identical to the fresh-board-per-column code it
// replaces (TestTable1DeterministicAcrossWorkers and the golden pin).
// Once ctx is cancelled the grid stops dispatching columns and the call
// returns ctx.Err().
func Table1(ctx context.Context, seed uint64) (*Table1Result, error) {
	temps := []struct {
		c    float64
		note string
	}{
		{0, "Recommended Min."},
		{-5, ""},
		{-40, "SoC's hard limit"},
	}
	type cell struct {
		row Table1Row
		// fracHDToStartup is NaN-free only for the −40 °C trial; ok marks it.
		fracHDToStartup float64
		hasFracHD       bool
	}
	type fork struct {
		b     *board.Board
		truth [][][]byte
		snap  *board.Snapshot
	}
	mk := func() (*fork, error) {
		b, _, err := newBoard(soc.BCM2711(), soc.Options{}, seed)
		if err != nil {
			return nil, err
		}
		spec := b.Spec()
		victim, err := core.VictimPatternFillImage(0x100000, spec.L1D.SizeBytes/8, 0xA5)
		if err != nil {
			return nil, err
		}
		if err := core.RunVictim(b, victim, 50_000_000); err != nil {
			return nil, err
		}
		// Capture the stored truth before any power cycle destroys it; the
		// dumps are private copies, immune to the restores that follow.
		truth := make([][][]byte, spec.Cores)
		for c, cc := range b.SoC.Cores {
			for w := 0; w < spec.L1D.Ways; w++ {
				truth[c] = append(truth[c], cc.L1D.DumpWay(w))
			}
		}
		return &fork{b: b, truth: truth, snap: b.CaptureSnapshot()}, nil
	}
	cells, err := runner.MapWithResource(ctx, len(temps), runtime.GOMAXPROCS(0), mk, func(f *fork, i int) (cell, error) {
		tc := temps[i]
		f.b.RestoreSnapshot(f.snap)
		b, spec := f.b, f.b.Spec()
		ext, err := core.ColdBootCaches(b, tc.c, 5*sim.Millisecond, 50_000_000)
		if err != nil {
			return cell{}, err
		}
		out := cell{row: Table1Row{TempC: tc.c, Note: tc.note}}
		for c, dump := range ext.Dumps {
			var hds []float64
			for w, way := range dump.L1D {
				hds = append(hds, analysis.FractionalHD(f.truth[c][w], way))
			}
			out.row.PerCoreErrorPct = append(out.row.PerCoreErrorPct, analysis.Mean(hds)*100)
		}
		out.row.MeanErrorPct = analysis.Mean(out.row.PerCoreErrorPct)

		// Caption metric at -40°C: compare the post-cycle physical state
		// with a fresh power-up of the same silicon.
		if tc.c == -40 {
			arr := b.SoC.Cores[0].L1D.Arrays()[0]
			after := arr.Snapshot()
			arr.SetRail(0)
			b.Env.Advance(500 * sim.Millisecond)
			arr.SetRail(spec.CoreVolts)
			fingerprint := arr.Snapshot()
			out.fracHDToStartup = analysis.FractionalHD(after, fingerprint)
			out.hasFracHD = true
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Table1Result{}
	for _, c := range cells {
		res.Rows = append(res.Rows, c.row)
		if c.hasFracHD {
			res.FracHDToStartup = c.fracHDToStartup
		}
	}
	return res, nil
}

// String renders Table 1.
func (r *Table1Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: cold boot errors in BCM2711 d-cache (5 ms power cycle)\n")
	fmt.Fprintf(&b, "%-14s", "Temperature")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%14s", fmt.Sprintf("%.0f°C", row.TempC))
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-14s", "")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%14s", row.Note)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-14s", "Error")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%14s", fmt.Sprintf("%.2f%%", row.MeanErrorPct))
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "fractional HD to startup state: %.3f (paper: ~0.10 — no data retention)\n", r.FracHDToStartup)
	return b.String()
}

// Figure3Result is the −40 °C cold-booted d-cache way image of Figure 3.
type Figure3Result struct {
	// WayImage is the raw 16 KB WAY0 image (256 sets × 512 bits).
	WayImage []byte
	// FractionOnes should be ≈0.5: the cache reset to its power-on state.
	FractionOnes float64
	// EntropyBitsPerByte should be ≈8 for fingerprint noise.
	EntropyBitsPerByte float64
	// PBM is the bitmap rendering (512 px wide like the paper's layout).
	PBM []byte
	// ASCII is a terminal density map of the image.
	ASCII string
}

// Figure3 cold-boots a pattern-filled d-cache at −40 °C and renders WAY0.
func Figure3(_ context.Context, seed uint64) (*Figure3Result, error) {
	b, _, err := newBoard(soc.BCM2711(), soc.Options{}, seed)
	if err != nil {
		return nil, err
	}
	victim, err := core.VictimPatternFillImage(0x100000, b.Spec().L1D.SizeBytes/8, 0xA5)
	if err != nil {
		return nil, err
	}
	if err := core.RunVictim(b, victim, 50_000_000); err != nil {
		return nil, err
	}
	ext, err := core.ColdBootCaches(b, -40, 5*sim.Millisecond, 50_000_000)
	if err != nil {
		return nil, err
	}
	way0 := ext.Dumps[0].L1D[0]
	bm := vimg.FromBits(way0, 512)
	return &Figure3Result{
		WayImage:           way0,
		FractionOnes:       analysis.FractionOnes(way0),
		EntropyBitsPerByte: analysis.ShannonEntropy(way0),
		PBM:                bm.PBM(),
		ASCII:              vimg.ASCIIDensity(way0, 64, 16),
	}, nil
}

// String renders the Figure 3 summary.
func (r *Figure3Result) String() string {
	return fmt.Sprintf(
		"Figure 3: BCM2711 d-cache WAY0 (256×512b = 16KB) after -40°C cold boot\n"+
			"fraction of 1s: %.3f (paper: ≈0.5 — power-on state, no data)\n"+
			"byte entropy: %.2f bits/byte\n%s",
		r.FractionOnes, r.EntropyBitsPerByte, r.ASCII)
}
