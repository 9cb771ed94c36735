package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/soc"
	"repro/internal/vimg"
)

// Figure9Result is the i.MX53 iRAM extraction experiment (§7.3): four
// copies of a 512×512 1-bit bitmap fill the 128 KB iRAM; Volt Boot holds
// VDDAL1 through a power cycle; the internal ROM boots (clobbering its
// scratchpad); the image is read back over JTAG.
type Figure9Result struct {
	// QuadrantAccuracy[q] is the retention accuracy of quadrant q
	// (addresses 0xF8000000+q·32KB, the paper's sub-figures a–d).
	QuadrantAccuracy []float64
	// OverallErrorPct is the total extraction error (paper: 2.7%).
	OverallErrorPct float64
	// Extracted is the full 128 KB recovered image.
	Extracted []byte
	// Original is the staged ground truth.
	Original []byte
	// PBMs renders each recovered quadrant as a PBM bitmap.
	PBMs [][]byte
	// ASCII is a density map of quadrant a (start of iRAM — where the
	// scratchpad damage is).
	ASCII string
}

// Figure9 stages the bitmap, runs the attack, and scores each quadrant.
func Figure9(_ context.Context, seed uint64) (*Figure9Result, error) {
	spec := soc.IMX53()
	b, _, err := newBoard(spec, soc.Options{}, seed)
	if err != nil {
		return nil, err
	}
	// The device boots internally first; then the "victim" loads the
	// image into iRAM (via JTAG in our staging, matching the paper's
	// setup that uses the debug port to read/write iRAM directly).
	if err := b.SoC.Boot(nil); err != nil {
		return nil, err
	}
	quad := vimg.TestPattern512() // 32 KB
	original := make([]byte, 0, spec.IRAMBytes)
	for q := 0; q < 4; q++ {
		original = append(original, quad...)
	}
	if err := b.SoC.JTAGWriteIRAM(0, original); err != nil {
		return nil, err
	}
	ext, err := core.VoltBootIRAM(b, core.DefaultAttackConfig())
	if err != nil {
		return nil, err
	}
	res := &Figure9Result{Extracted: ext.Image, Original: original}
	qsize := spec.IRAMBytes / 4
	for q := 0; q < 4; q++ {
		lo, hi := q*qsize, (q+1)*qsize
		res.QuadrantAccuracy = append(res.QuadrantAccuracy,
			analysis.RetentionAccuracy(original[lo:hi], ext.Image[lo:hi]))
		res.PBMs = append(res.PBMs, vimg.FromBits(ext.Image[lo:hi], 512).PBM())
	}
	res.OverallErrorPct = analysis.FractionalHD(original, ext.Image) * 100
	res.ASCII = vimg.ASCIIDensity(ext.Image[:qsize], 64, 8)
	return res, nil
}

// String renders Figure 9.
func (r *Figure9Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 9: i.MX53 iRAM bitmap extraction via Volt Boot + JTAG\n")
	names := []string{
		"(a) 0xF8000000-0xF8007FFF",
		"(b) 0xF8008000-0xF800FFFF",
		"(c) 0xF8010000-0xF8017FFF",
		"(d) 0xF8018000-0xF8020000",
	}
	for q, acc := range r.QuadrantAccuracy {
		fmt.Fprintf(&b, "  quadrant %s: accuracy %s\n", names[q], pct(acc))
	}
	fmt.Fprintf(&b, "  overall extraction error: %.2f%% (paper: 2.7%%)\n", r.OverallErrorPct)
	b.WriteString("  quadrant (a) density (damage at the scratchpad rows):\n")
	b.WriteString(indent(r.ASCII))
	return b.String()
}

// Figure10Result is the block-granular Hamming-distance profile that
// localizes the boot ROM's scratchpad (Figure 10).
type Figure10Result struct {
	// Profile[i] is the Hamming distance of 512-bit block i.
	Profile []int
	// Clusters are the contiguous damaged regions.
	Clusters []analysis.ErrorCluster
	// ClusterAddrRanges renders each cluster as an absolute address
	// range (paper: largest source 0xF800083C–0xF80018CC).
	ClusterAddrRanges []string
	// Sparkline is a terminal rendering of the profile.
	Sparkline string
	// OverallErrorPct repeats the total error for context.
	OverallErrorPct float64
}

// Figure10 derives the HD profile from a fresh Figure 9 run.
func Figure10(ctx context.Context, seed uint64) (*Figure10Result, error) {
	f9, err := Figure9(ctx, seed)
	if err != nil {
		return nil, err
	}
	const blockBits = 512
	profile := analysis.BlockHDProfile(f9.Original, f9.Extracted, blockBits)
	clusters := analysis.FindErrorClusters(profile, 8)
	res := &Figure10Result{
		Profile:         profile,
		Clusters:        clusters,
		Sparkline:       vimg.SparklineProfile(profile, 96),
		OverallErrorPct: f9.OverallErrorPct,
	}
	base := soc.IMX53().IRAMBase
	for _, c := range clusters {
		lo := base + uint64(c.FirstBlock*blockBits/8)
		hi := base + uint64((c.LastBlock+1)*blockBits/8)
		res.ClusterAddrRanges = append(res.ClusterAddrRanges,
			fmt.Sprintf("%#x-%#x (%d error bits)", lo, hi, c.TotalBits))
	}
	return res, nil
}

// String renders Figure 10.
func (r *Figure10Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 10: Hamming distance between staged and extracted iRAM (512-bit blocks)\n")
	fmt.Fprintf(&b, "  %s\n", r.Sparkline)
	fmt.Fprintf(&b, "  overall error: %.2f%%; damaged ranges:\n", r.OverallErrorPct)
	for _, s := range r.ClusterAddrRanges {
		fmt.Fprintf(&b, "    %s\n", s)
	}
	b.WriteString("  (paper: clusters at the beginning and end; largest 0xF800083C-0xF80018CC)\n")
	return b.String()
}
