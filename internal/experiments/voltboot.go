package experiments

import (
	"context"
	"fmt"
	"runtime"
	"strings"

	"repro/internal/analysis"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/soc"
	"repro/internal/vimg"
)

// Figure7Result is one SoC's post-attack i-cache snapshot from the
// bare-metal NOP experiment (§7.1.1).
type Figure7Result struct {
	SoCName string
	// RetentionAccuracy per core: fraction of bits extracted exactly
	// (paper: 100% on all four cores of both devices).
	RetentionAccuracy []float64
	// NOPFraction per core: fraction of extracted i-cache words equal to
	// the NOP encoding (visually: "instructions stay in the i-cache").
	NOPFraction []float64
	// ASCII is a density map of core 0's way 0 (uniform low density = a
	// NOP sled, unlike Figure 3's noise).
	ASCII string
}

// Figure7 runs the §7.1.1 experiment on both Broadcom SoCs. The two
// devices are fully independent trials — each builds its own quiet-env
// board — so they fan out across CPUs; results come back in device
// order, keeping the rendered panels byte-identical to the serial loop.
func Figure7(ctx context.Context, seed uint64) ([]*Figure7Result, error) {
	specs := []soc.DeviceSpec{soc.BCM2711(), soc.BCM2837()}
	return runner.Map(ctx, len(specs), runtime.GOMAXPROCS(0), func(si int) (*Figure7Result, error) {
		spec := specs[si]
		b, _, err := newBoard(spec, soc.Options{}, seed)
		if err != nil {
			return nil, err
		}
		victim, _, err := core.VictimNOPFillImage(spec)
		if err != nil {
			return nil, err
		}
		if err := core.RunVictim(b, victim, 10_000_000); err != nil {
			return nil, err
		}
		truth := make([][][]byte, spec.Cores)
		for c, cc := range b.SoC.Cores {
			for w := 0; w < spec.L1I.Ways; w++ {
				truth[c] = append(truth[c], cc.L1I.DumpWay(w))
			}
		}
		ext, err := core.VoltBootCaches(b, core.DefaultAttackConfig())
		if err != nil {
			return nil, err
		}
		res := &Figure7Result{SoCName: spec.SoCName}
		// Footnote 4: the BCM2837 i-cache stores instructions interleaved
		// with ECC, so the raw dump is counted against the encoded NOP
		// image (the paper scores that device before/after).
		nopWord := isa.NOPWord
		if spec.L1I.InlineECC {
			nopWord = cache.ECCEncodeWord(nopWord)
		}
		nop := make([]byte, 4)
		for i := range nop {
			nop[i] = byte(nopWord >> (8 * i))
		}
		for c, dump := range ext.Dumps {
			var accs []float64
			total, nops := 0, 0
			for w, way := range dump.L1I {
				accs = append(accs, analysis.RetentionAccuracy(truth[c][w], way))
				for i := 0; i+4 <= len(way); i += 4 {
					total++
					if way[i] == nop[0] && way[i+1] == nop[1] && way[i+2] == nop[2] && way[i+3] == nop[3] {
						nops++
					}
				}
			}
			res.RetentionAccuracy = append(res.RetentionAccuracy, analysis.Mean(accs))
			res.NOPFraction = append(res.NOPFraction, float64(nops)/float64(total))
		}
		res.ASCII = vimg.ASCIIDensity(ext.Dumps[0].L1I[0], 64, 8)
		return res, nil
	})
}

// String renders one Figure 7 panel.
func (r *Figure7Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7: %s i-cache after Volt Boot on bare-metal NOP victim\n", r.SoCName)
	for c := range r.RetentionAccuracy {
		fmt.Fprintf(&b, "  core %d: retention accuracy %s, NOP words %s\n",
			c, pct(r.RetentionAccuracy[c]), pct(r.NOPFraction[c]))
	}
	b.WriteString("  way 0 density (uniform = retained instructions, cf. Figure 3 noise):\n")
	for _, line := range strings.Split(strings.TrimRight(r.ASCII, "\n"), "\n") {
		b.WriteString("  " + line + "\n")
	}
	return b.String()
}

// Figure8Result is the OS-scenario snapshot (§7.1.2 / Figure 8).
type Figure8Result struct {
	// PatternByteFraction is the fraction of extracted d-cache bytes
	// equal to the app's 0xAA pattern.
	PatternByteFraction float64
	// InstructionMatches counts occurrences of the app's first machine
	// words inside the extracted i-cache.
	InstructionMatches int
	// ProgramLinesLocated counts i-cache lines whose extracted tag
	// decodes to an address inside the app's code range — how the paper
	// confirms the instructions sit "within consecutive address spaces".
	ProgramLinesLocated int
	// ProgramLinesExpected is the app's code footprint in lines.
	ProgramLinesExpected int
	// DCacheASCII / ICacheASCII are density maps of one way of each.
	DCacheASCII string
	ICacheASCII string
}

// Figure8 boots a kernel, runs the 0xAA pattern application under
// background noise on core 0, executes Volt Boot, and inspects the
// extracted caches.
func Figure8(_ context.Context, seed uint64) (*Figure8Result, error) {
	spec := soc.BCM2711()
	b, _, err := newBoard(spec, soc.Options{}, seed)
	if err != nil {
		return nil, err
	}
	if err := b.SoC.Boot(nil); err != nil {
		return nil, err
	}
	k := kernel.New(b.SoC, kernel.DefaultConfig(seed))
	cc := b.SoC.Cores[0]
	cc.L1D.InvalidateAll()
	cc.L1I.InvalidateAll()
	cc.L1D.SetEnabled(true)
	cc.L1I.SetEnabled(true)
	prog, err := kernel.PatternFillProgram(soc.PayloadBase, 0x100000, 2048, 0xAA)
	if err != nil {
		return nil, err
	}
	for i, w := range prog {
		b.SoC.WriteDRAM(int(soc.PayloadBase)+i*4, []byte{byte(w), byte(w >> 8), byte(w >> 16), byte(w >> 24)})
	}
	cc.CPU.Reset(soc.PayloadBase)
	if err := k.RunWithNoise(0, 50_000_000); err != nil {
		return nil, err
	}

	ext, err := core.VoltBootCachesWithTags(b, core.DefaultAttackConfig())
	if err != nil {
		return nil, err
	}
	res := &Figure8Result{}
	// Reconstruct the addresses of extracted i-cache lines from the tag
	// dump and count those falling inside the app's code range.
	codeLo := soc.PayloadBase
	codeHi := soc.PayloadBase + uint64(len(prog)*4)
	res.ProgramLinesExpected = int((codeHi + 63 - codeLo) / 64)
	seen := map[uint64]bool{}
	for w := range ext.Dumps[0].L1ITags {
		for set, entry := range ext.Dumps[0].L1ITags[w] {
			li := cache.ParseTagEntry(entry, set, spec.L1I)
			if li.Valid && li.Addr >= codeLo && li.Addr < codeHi && !seen[li.Addr] {
				seen[li.Addr] = true
				res.ProgramLinesLocated++
			}
		}
	}
	var dAll, iAll []byte
	for _, way := range ext.Dumps[0].L1D {
		dAll = append(dAll, way...)
	}
	for _, way := range ext.Dumps[0].L1I {
		iAll = append(iAll, way...)
	}
	aa := 0
	for _, by := range dAll {
		if by == 0xAA {
			aa++
		}
	}
	res.PatternByteFraction = float64(aa) / float64(len(dAll))
	// grep the i-cache for the first four instructions of the app.
	needle := make([]byte, 16)
	for i := 0; i < 4; i++ {
		w := prog[i]
		needle[i*4], needle[i*4+1], needle[i*4+2], needle[i*4+3] = byte(w), byte(w>>8), byte(w>>16), byte(w>>24)
	}
	res.InstructionMatches = len(analysis.FindPattern(iAll, needle))
	res.DCacheASCII = vimg.ASCIIDensity(ext.Dumps[0].L1D[0], 64, 8)
	res.ICacheASCII = vimg.ASCIIDensity(ext.Dumps[0].L1I[0], 64, 8)
	return res, nil
}

// String renders Figure 8.
func (r *Figure8Result) String() string {
	return fmt.Sprintf(
		"Figure 8: caches after Volt Boot on a Linux-style system running the 0xAA app\n"+
			"  d-cache bytes equal to 0xAA: %s (app data retained)\n"+
			"  app instruction sequence found in i-cache: %d match(es)\n"+
			"  app code lines located via extracted tags: %d/%d (consecutive addresses)\n"+
			"  d-cache way 0:\n%s  i-cache way 0:\n%s",
		pct(r.PatternByteFraction), r.InstructionMatches,
		r.ProgramLinesLocated, r.ProgramLinesExpected,
		indent(r.DCacheASCII), indent(r.ICacheASCII))
}

func indent(s string) string {
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		b.WriteString("  " + line + "\n")
	}
	return b.String()
}

// Table4Cell is one (size, core) entry of Table 4, averaged over
// repetitions.
type Table4Cell struct {
	W0, W1 float64
	Union  float64
	// ExtractedPct is Union / element count.
	ExtractedPct float64
}

// Table4Result is the full d-cache extraction table.
type Table4Result struct {
	SizesKB []int
	Cores   int
	Reps    int
	// Cells[sizeIdx][core]
	Cells [][]Table4Cell
}

// elemValue builds the distinguishable element value for (core, index).
func elemValue(coreID, i int) []byte {
	v := uint64(0xA110000000000000) | uint64(coreID)<<48 | uint64(i)
	b := make([]byte, 8)
	for k := range b {
		b[k] = byte(v >> (8 * k))
	}
	return b
}

// Table4 reproduces the §7.1.2 microbenchmark: per-core arrays of 4, 8,
// 16 and 32 KB staged through a page-cache copy, re-read under kernel
// noise, then extracted with Volt Boot; element recovery is counted per
// way. Three repetitions per size are averaged, matching footnote 5.
//
// Every (size, repetition) pair derives its own seed, so the 12 cells
// share no prefix to fork — instead they are fully independent boards
// and fan out across CPUs as a flat grid. Per-cell tallies come back in
// (size-major, rep-minor) index order and are averaged serially, so the
// rendered table is byte-identical to the nested serial loops it
// replaces.
func Table4(ctx context.Context, seed uint64) (*Table4Result, error) {
	spec := soc.BCM2711()
	res := &Table4Result{SizesKB: []int{4, 8, 16, 32}, Cores: spec.Cores, Reps: 3}
	// tally is one repetition's per-core (W0, W1, union) hit counts.
	type tally struct {
		in0, in1, inU []int
	}
	cells, err := runner.Map(ctx, len(res.SizesKB)*res.Reps, runtime.GOMAXPROCS(0), func(idx int) (tally, error) {
		sizeKB := res.SizesKB[idx/res.Reps]
		rep := idx % res.Reps
		n := sizeKB * 1024 / 8
		repSeed := seed + uint64(sizeKB)*1000 + uint64(rep)
		b, _, err := newBoard(spec, soc.Options{}, repSeed)
		if err != nil {
			return tally{}, err
		}
		if err := b.SoC.Boot(nil); err != nil {
			return tally{}, err
		}
		k := kernel.New(b.SoC, kernel.DefaultConfig(repSeed))
		// One benchmark process per core (footnote 6).
		for c := 0; c < spec.Cores; c++ {
			cc := b.SoC.Cores[c]
			cc.L1D.InvalidateAll()
			cc.L1I.InvalidateAll()
			cc.L1D.SetEnabled(true)
			cc.L1I.SetEnabled(true)
			data := make([]byte, n*8)
			for i := 0; i < n; i++ {
				copy(data[i*8:], elemValue(c, i))
			}
			if err := k.StageFile(c, 0x180000, 0x100000, data); err != nil {
				return tally{}, err
			}
			prog, err := kernel.ArrayBenchmarkProgram(soc.PayloadBase, 0x100000, n, 30)
			if err != nil {
				return tally{}, err
			}
			for i, w := range prog {
				b.SoC.WriteDRAM(int(soc.PayloadBase)+i*4,
					[]byte{byte(w), byte(w >> 8), byte(w >> 16), byte(w >> 24)})
			}
			cc.CPU.Reset(soc.PayloadBase)
			if err := k.RunWithNoise(c, 100_000_000); err != nil {
				return tally{}, err
			}
		}
		ext, err := core.VoltBootCaches(b, core.DefaultAttackConfig())
		if err != nil {
			return tally{}, err
		}
		t := tally{
			in0: make([]int, spec.Cores),
			in1: make([]int, spec.Cores),
			inU: make([]int, spec.Cores),
		}
		for c := 0; c < spec.Cores; c++ {
			// Index each way dump once; per-element membership is then a
			// hash probe. Contains(e) ≡ CountAlignedOccurrences(d, e) > 0,
			// so the per-way and union tallies are unchanged.
			d0 := analysis.NewAlignedElementSet(ext.Dumps[c].L1D[0], 8)
			d1 := analysis.NewAlignedElementSet(ext.Dumps[c].L1D[1], 8)
			for i := 0; i < n; i++ {
				e := elemValue(c, i)
				f0 := d0.Contains(e)
				f1 := d1.Contains(e)
				if f0 {
					t.in0[c]++
				}
				if f1 {
					t.in1[c]++
				}
				if f0 || f1 {
					t.inU[c]++
				}
			}
		}
		return t, nil
	})
	if err != nil {
		return nil, err
	}
	for si, sizeKB := range res.SizesKB {
		n := sizeKB * 1024 / 8
		var row []Table4Cell
		for c := 0; c < spec.Cores; c++ {
			var w0s, w1s, unions []int
			for rep := 0; rep < res.Reps; rep++ {
				t := cells[si*res.Reps+rep]
				w0s = append(w0s, t.in0[c])
				w1s = append(w1s, t.in1[c])
				unions = append(unions, t.inU[c])
			}
			cell := Table4Cell{
				W0:    meanInts(w0s),
				W1:    meanInts(w1s),
				Union: meanInts(unions),
			}
			cell.ExtractedPct = cell.Union / float64(n) * 100
			row = append(row, cell)
		}
		res.Cells = append(res.Cells, row)
	}
	return res, nil
}

// String renders Table 4 in the paper's layout.
func (r *Table4Result) String() string {
	var b strings.Builder
	b.WriteString("Table 4: data extracted from BCM2711 d-cache (32KB, 2-way) via Volt Boot\n")
	fmt.Fprintf(&b, "%-14s", "")
	for _, s := range r.SizesKB {
		fmt.Fprintf(&b, "%-36s", fmt.Sprintf("%dKB (cores 0-3)", s))
	}
	b.WriteString("\n")
	rows := []struct {
		name string
		get  func(Table4Cell) string
	}{
		{"W0", func(c Table4Cell) string { return fmt.Sprintf("%.1f", c.W0) }},
		{"W1", func(c Table4Cell) string { return fmt.Sprintf("%.1f", c.W1) }},
		{"W0 ∪ W1", func(c Table4Cell) string { return fmt.Sprintf("%.1f", c.Union) }},
		{"% extracted", func(c Table4Cell) string { return fmt.Sprintf("%.2f%%", c.ExtractedPct) }},
	}
	for _, row := range rows {
		fmt.Fprintf(&b, "%-14s", row.name)
		for si := range r.SizesKB {
			var cells []string
			for c := 0; c < r.Cores; c++ {
				cells = append(cells, row.get(r.Cells[si][c]))
			}
			fmt.Fprintf(&b, "%-36s", strings.Join(cells, " "))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Section72Result is the §7.2 vector-register retention experiment.
type Section72Result struct {
	SoCName string
	// RegistersIntact[core] counts vector registers recovered exactly
	// (out of 32).
	RegistersIntact []int
	// XRegsClobbered records that general-purpose registers did NOT
	// survive boot (firmware uses them) — the reason v-regs are the
	// target.
	XRegsClobbered bool
}

// Section72 fills v0..v31 with 0xAA/0xFF patterns on every core, runs
// Volt Boot, and checks the register dump.
func Section72(_ context.Context, seed uint64, spec soc.DeviceSpec) (*Section72Result, error) {
	b, _, err := newBoard(spec, soc.Options{}, seed)
	if err != nil {
		return nil, err
	}
	victim, err := core.VictimVectorFillImage()
	if err != nil {
		return nil, err
	}
	if err := core.RunVictim(b, victim, 1_000_000); err != nil {
		return nil, err
	}
	// Also plant a marker in an X register to confirm firmware clobbers it.
	b.SoC.Cores[0].CPU.Regs.WriteX(17, 0x5EC4E7)
	ext, err := core.VoltBootRegisters(b, core.DefaultAttackConfig())
	if err != nil {
		return nil, err
	}
	res := &Section72Result{SoCName: spec.SoCName}
	for _, regs := range ext.PerCore {
		intact := 0
		for v, reg := range regs {
			want := byte(0xAA)
			if v%2 == 1 {
				want = 0xFF
			}
			ok := true
			for _, by := range reg {
				if by != want {
					ok = false
					break
				}
			}
			if ok {
				intact++
			}
		}
		res.RegistersIntact = append(res.RegistersIntact, intact)
	}
	res.XRegsClobbered = b.SoC.Cores[0].CPU.Regs.ReadX(17) != 0x5EC4E7
	return res, nil
}

// String renders the §7.2 result.
func (r *Section72Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§7.2: vector register retention on %s after Volt Boot\n", r.SoCName)
	for c, n := range r.RegistersIntact {
		fmt.Fprintf(&b, "  core %d: %d/32 vector registers recovered exactly\n", c, n)
	}
	fmt.Fprintf(&b, "  general-purpose registers clobbered by boot firmware: %v\n", r.XRegsClobbered)
	return b.String()
}

// AccessibilityResult quantifies §6.2: how much of each memory an
// attacker can access after the boot phase.
type AccessibilityResult struct {
	// L1AvailablePct: fraction of L1 contents untouched by boot (paper:
	// 100% — software-enabled caches are never activated by the
	// attacker).
	L1AvailablePct float64
	// L2AvailablePct: fraction surviving the VideoCore init (paper: ~0%).
	L2AvailablePct float64
	// IRAMAvailablePct: fraction untouched by the i.MX53 boot ROM
	// (paper: ≈95%).
	IRAMAvailablePct float64
}

// Accessibility measures the boot-phase clobbering on both device
// families.
func Accessibility(_ context.Context, seed uint64) (*AccessibilityResult, error) {
	res := &AccessibilityResult{}

	// Broadcom: L1 and L2 across a probed power cycle + boot.
	{
		b, env, err := newBoard(soc.BCM2711(), soc.Options{}, seed)
		if err != nil {
			return nil, err
		}
		cc := b.SoC.Cores[0]
		cc.L1D.Arrays()[0].Fill(0x5A)
		l1Before := cc.L1D.DumpWay(0)
		b.SoC.L2.Arrays()[0].Fill(0x5A)
		l2Before := b.SoC.L2.DumpWay(0)
		// Hold BOTH domains (ideal attacker) so only boot-phase software
		// effects remain.
		cfg := core.DefaultAttackConfig()
		psuMem, err := b.PadByName("C_MEM")
		if err != nil {
			return nil, err
		}
		_ = psuMem
		memPSU := newHeldSupply(b, "C_MEM")
		defer memPSU.Detach()
		corePSU := newHeldSupply(b, b.Spec().TestPad)
		defer corePSU.Detach()
		b.DisconnectMain()
		env.Advance(cfg.OffTime)
		b.ConnectMain()
		if err := b.SoC.Boot(nil); err != nil {
			return nil, err
		}
		res.L1AvailablePct = analysis.RetentionAccuracy(l1Before, cc.L1D.DumpWay(0)) * 100
		// L2 "available" = fraction of bytes still matching; VideoCore
		// rewrites everything, so measure byte-level survival.
		match := 0
		l2After := b.SoC.L2.DumpWay(0)
		for i := range l2Before {
			if l2Before[i] == l2After[i] {
				match++
			}
		}
		// Random junk matches 1/256 of bytes by chance; report survival
		// above chance, floored at 0.
		frac := float64(match)/float64(len(l2Before)) - 1.0/256
		if frac < 0 {
			frac = 0
		}
		res.L2AvailablePct = frac * 100
	}

	// i.MX53: iRAM across the internal boot.
	{
		b, env, err := newBoard(soc.IMX53(), soc.Options{}, seed)
		if err != nil {
			return nil, err
		}
		if err := b.SoC.Boot(nil); err != nil {
			return nil, err
		}
		pattern := make([]byte, b.Spec().IRAMBytes)
		for i := range pattern {
			pattern[i] = 0x5A
		}
		if err := b.SoC.JTAGWriteIRAM(0, pattern); err != nil {
			return nil, err
		}
		psu := newHeldSupply(b, b.Spec().TestPad)
		defer psu.Detach()
		b.DisconnectMain()
		env.Advance(2 * sim.Second)
		b.ConnectMain()
		if err := b.SoC.Boot(nil); err != nil {
			return nil, err
		}
		after, err := b.SoC.JTAGReadIRAM(0, b.Spec().IRAMBytes)
		if err != nil {
			return nil, err
		}
		intact := 0
		for i := range pattern {
			if after[i] == pattern[i] {
				intact++
			}
		}
		res.IRAMAvailablePct = float64(intact) / float64(len(pattern)) * 100
	}
	return res, nil
}

// String renders the §6.2 summary.
func (r *AccessibilityResult) String() string {
	return fmt.Sprintf(
		"§6.2: memory accessible to an attacker after SoC boot-up\n"+
			"  L1 caches (software-enabled, never activated): %.2f%% (paper: 100%%)\n"+
			"  shared L2 (clobbered by VideoCore init):       %.2f%% (paper: ~0%%)\n"+
			"  i.MX53 iRAM (boot ROM scratchpad):             %.2f%% (paper: ≈95%%)\n",
		r.L1AvailablePct, r.L2AvailablePct, r.IRAMAvailablePct)
}
