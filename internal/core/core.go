// Package core implements the paper's contribution: the Volt Boot attack
// orchestrator (§5, §6) and the traditional cold boot orchestrator it is
// contrasted with (§3).
//
// Volt Boot executes the four steps of §6.1 against a board built by
// internal/board:
//
//  1. identify the target power domain and its exposed PCB test pad
//     (Table 3 data carried by the device spec),
//  2. attach an external bench supply to the pad at the domain's nominal
//     voltage,
//  3. disconnect main power — the probed domain alone stays up — wait out
//     the manual replug, reconnect, and boot a bare-metal extraction
//     payload (or use the JTAG window on internally booting parts),
//  4. hand the exfiltrated images to analysis.
//
// The cold boot orchestrator runs the same extraction after a thermal
// soak and an unprobed power cycle, demonstrating §3's negative result:
// on-chip SRAM does not survive realistic power gaps at any survivable
// temperature.
package core

import (
	"fmt"

	"repro/internal/board"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/soc"
)

// ProbeSpec describes the attacker's bench supply.
type ProbeSpec struct {
	// MaxAmps is the supply's current limit. The paper uses a >3 A bench
	// supply; the ablation sweeps this down until the disconnect surge
	// defeats the attack.
	MaxAmps float64
	// PadName overrides the Table 3 default pad when non-empty.
	PadName string
}

// DefaultProbe matches the paper's apparatus.
func DefaultProbe() ProbeSpec { return ProbeSpec{MaxAmps: 3.5} }

// AttackConfig fixes the non-payload parameters of an attack run.
type AttackConfig struct {
	Probe ProbeSpec
	// OffTime is how long main power stays disconnected — seconds, for a
	// manual replug (§7: "these operations require more than a few
	// hundred milliseconds").
	OffTime sim.Time
	// MaxInstr bounds the extraction payload's execution.
	MaxInstr uint64
}

// DefaultAttackConfig returns the paper's setup: a 3.5 A probe and a
// two-second power gap.
func DefaultAttackConfig() AttackConfig {
	return AttackConfig{Probe: DefaultProbe(), OffTime: 2 * sim.Second, MaxInstr: 50_000_000}
}

// Step is one entry of the Figure 5 attack-step trace.
type Step struct {
	N    int
	What string
}

func (s Step) String() string { return fmt.Sprintf("step %d: %s", s.N, s.What) }

// CoreCacheDump holds one core's extracted L1 images, sliced per way the
// way the paper reports them (W0, W1, …).
type CoreCacheDump struct {
	Core int
	// L1D[way] and L1I[way] are raw way images.
	L1D [][]byte
	L1I [][]byte
	// L1DTags[way][set] and L1ITags[way][set] are raw tag-RAM entries,
	// populated only by the tag-dumping attack variant. Decode with
	// cache.ParseTagEntry to recover each line's memory address.
	L1DTags [][]uint64
	L1ITags [][]uint64
}

// CacheExtraction is the result of a cache-targeting attack.
type CacheExtraction struct {
	Device string
	Dumps  []CoreCacheDump
	Trace  []Step
}

// RegisterExtraction is the result of a register-targeting attack:
// PerCore[c][v] is vector register v of core c as 16 bytes.
type RegisterExtraction struct {
	Device  string
	PerCore [][][]byte
	Trace   []Step
}

// IRAMExtraction is the result of an iRAM-targeting attack.
type IRAMExtraction struct {
	Device string
	Image  []byte
	Trace  []Step
}

type stepTracer struct {
	steps []Step
}

func (t *stepTracer) add(format string, args ...any) {
	t.steps = append(t.steps, Step{N: len(t.steps) + 1, What: fmt.Sprintf(format, args...)})
}

// powerCycle performs §6.1 steps 1–3 up to the reboot: identify the pad,
// attach the probe (nil ProbeSpec.MaxAmps ≤ 0 means "no probe" — the cold
// boot configuration), cut main power, wait, reconnect. It returns the
// attached supply (already detached for zero-amp probes) and the tracer.
func powerCycle(b *board.Board, cfg AttackConfig, tr *stepTracer) (*power.BenchSupply, error) {
	spec := b.Spec()
	pad := spec.TestPad
	if cfg.Probe.PadName != "" {
		pad = cfg.Probe.PadName
	}
	var psu *power.BenchSupply
	if cfg.Probe.MaxAmps > 0 {
		p, err := b.PadByName(pad)
		if err != nil {
			return nil, err
		}
		tr.add("identify target domain %s (%s) behind pad %s at %.2fV",
			p.Domain.Name(), spec.PadDomain, pad, p.Domain.NominalVolts())
		psu = power.NewBenchSupply("bench-psu", 0, cfg.Probe.MaxAmps)
		if err := b.AttachProbe(pad, psu); err != nil {
			return nil, err
		}
		tr.add("attach %.1fA voltage probe to %s at nominal level", cfg.Probe.MaxAmps, pad)
	} else {
		tr.add("no probe attached (cold boot configuration)")
	}
	if psu != nil {
		tr.add("probe carries %.0f mA of the running system's load", psu.CurrentDrawAmps()*1000)
	}
	tr.add("disconnect main power abruptly")
	b.DisconnectMain()
	if psu != nil {
		tr.add("probe current settles to %.0f mA retention draw", psu.CurrentDrawAmps()*1000)
	}
	b.Env.Advance(cfg.OffTime)
	b.ConnectMain()
	tr.add("reconnect main power after %s", cfg.OffTime)
	return psu, nil
}

// extractCaches boots the cache-dump payload, runs it on every core, and
// slices the exfiltrated image.
func extractCaches(b *board.Board, cfg AttackConfig, tr *stepTracer, tags bool) (*CacheExtraction, error) {
	spec := b.Spec()
	img, layout, err := cacheDumpPayload(spec, tags)
	if err != nil {
		return nil, err
	}
	if err := b.SoC.Boot(img); err != nil {
		return nil, fmt.Errorf("core: booting extraction payload: %w", err)
	}
	tr.add("boot bare-metal extraction payload from external media (caches off)")
	if err := b.SoC.RunAllCores(cfg.MaxInstr); err != nil {
		return nil, fmt.Errorf("core: extraction payload: %w", err)
	}
	tr.add("payload dumped L1 RAMs to DRAM via RAMINDEX + DSB/ISB")

	readTags := func(coreBase uint64, off uint64, sets int) []uint64 {
		raw := b.SoC.ReadDRAM(int(coreBase+off), sets*8)
		out := make([]uint64, sets)
		for e := range out {
			for k := 0; k < 8; k++ {
				out[e] |= uint64(raw[e*8+k]) << (8 * k)
			}
		}
		return out
	}

	res := &CacheExtraction{Device: spec.Board}
	for c := 0; c < spec.Cores; c++ {
		dump := CoreCacheDump{Core: c}
		coreBase := DumpBase + uint64(c)*CoreDumpStride
		for w := 0; w < spec.L1D.Ways; w++ {
			off, size := layout.WayRegion(c, false, w)
			dump.L1D = append(dump.L1D, b.SoC.ReadDRAM(int(off), size))
		}
		for w := 0; w < spec.L1I.Ways; w++ {
			off, size := layout.WayRegion(c, true, w)
			dump.L1I = append(dump.L1I, b.SoC.ReadDRAM(int(off), size))
		}
		if tags {
			for w := 0; w < spec.L1D.Ways; w++ {
				dump.L1DTags = append(dump.L1DTags, readTags(coreBase, layout.L1DTagOffsets[w], layout.L1DSets))
			}
			for w := 0; w < spec.L1I.Ways; w++ {
				dump.L1ITags = append(dump.L1ITags, readTags(coreBase, layout.L1ITagOffsets[w], layout.L1ISets))
			}
		}
		res.Dumps = append(res.Dumps, dump)
	}
	tr.add("analyse extracted memory images")
	return res, nil
}

// VoltBootCaches executes the full Volt Boot attack against a board's L1
// caches and returns the extracted per-way images.
func VoltBootCaches(b *board.Board, cfg AttackConfig) (*CacheExtraction, error) {
	return voltBootCaches(b, cfg, false)
}

// VoltBootCachesWithTags is VoltBootCaches plus tag-RAM extraction: the
// result carries every line's raw tag entry, from which the attacker
// reconstructs the memory address each stolen line came from.
func VoltBootCachesWithTags(b *board.Board, cfg AttackConfig) (*CacheExtraction, error) {
	return voltBootCaches(b, cfg, true)
}

func voltBootCaches(b *board.Board, cfg AttackConfig, tags bool) (*CacheExtraction, error) {
	tr := &stepTracer{}
	psu, err := powerCycle(b, cfg, tr)
	if err != nil {
		return nil, err
	}
	if psu != nil {
		defer psu.Detach()
	}
	res, err := extractCaches(b, cfg, tr, tags)
	if err != nil {
		return nil, err
	}
	res.Trace = tr.steps
	return res, nil
}

// ColdBootCaches executes the §3 baseline: soak the board at tempC, power
// cycle with NO probe for offTime, and run the same extraction payload.
func ColdBootCaches(b *board.Board, tempC float64, offTime sim.Time, maxInstr uint64) (*CacheExtraction, error) {
	tr := &stepTracer{}
	chamber := board.NewChamber(b.Env)
	chamber.Soak(tempC)
	tr.add("static soak in thermal chamber at %.1f°C", tempC)
	cfg := AttackConfig{OffTime: offTime, MaxInstr: maxInstr}
	if _, err := powerCycle(b, cfg, tr); err != nil {
		return nil, err
	}
	res, err := extractCaches(b, cfg, tr, false)
	if err != nil {
		return nil, err
	}
	res.Trace = tr.steps
	return res, nil
}

// VoltBootRegisters executes the §7.2 attack: power cycle with the probe
// holding the core domain, then boot the register-dump payload (boot
// firmware clobbers X registers but never the vector registers).
func VoltBootRegisters(b *board.Board, cfg AttackConfig) (*RegisterExtraction, error) {
	tr := &stepTracer{}
	psu, err := powerCycle(b, cfg, tr)
	if err != nil {
		return nil, err
	}
	if psu != nil {
		defer psu.Detach()
	}
	img, err := RegisterDumpPayload()
	if err != nil {
		return nil, err
	}
	if err := b.SoC.Boot(img); err != nil {
		return nil, fmt.Errorf("core: booting register dump payload: %w", err)
	}
	tr.add("boot register-dump payload")
	if err := b.SoC.RunAllCores(cfg.MaxInstr); err != nil {
		return nil, err
	}
	tr.add("payload stored v0..v31 of every core to DRAM")

	spec := b.Spec()
	res := &RegisterExtraction{Device: spec.Board, Trace: tr.steps}
	for c := 0; c < spec.Cores; c++ {
		base := int(RegDumpBase + uint64(c)*RegDumpStride)
		regs := make([][]byte, 32)
		for v := 0; v < 32; v++ {
			regs[v] = b.SoC.ReadDRAM(base+v*16, 16)
		}
		res.PerCore = append(res.PerCore, regs)
	}
	return res, nil
}

// TLBExtraction is the result of a TLB-history attack: PerCore[c][e] is
// TLB entry e of core c (bit 0 = valid, bits [63:1] = page number).
type TLBExtraction struct {
	Device  string
	PerCore [][]uint64
	Trace   []Step
}

// VoltBootTLB executes the Ablation E attack: power cycle with the core
// domain held, then boot a payload that dumps every core's TLB via
// RAMINDEX — stealing the victim's page-access history out of
// microarchitectural state.
func VoltBootTLB(b *board.Board, cfg AttackConfig) (*TLBExtraction, error) {
	tr := &stepTracer{}
	psu, err := powerCycle(b, cfg, tr)
	if err != nil {
		return nil, err
	}
	if psu != nil {
		defer psu.Detach()
	}
	img, err := TLBDumpPayload()
	if err != nil {
		return nil, err
	}
	if err := b.SoC.Boot(img); err != nil {
		return nil, fmt.Errorf("core: booting TLB dump payload: %w", err)
	}
	tr.add("boot TLB-dump payload")
	if err := b.SoC.RunAllCores(cfg.MaxInstr); err != nil {
		return nil, err
	}
	tr.add("payload dumped per-core TLB entries via RAMINDEX")

	spec := b.Spec()
	res := &TLBExtraction{Device: spec.Board, Trace: tr.steps}
	for c := 0; c < spec.Cores; c++ {
		base := int(TLBDumpBase + uint64(c)*TLBDumpStride)
		raw := b.SoC.ReadDRAM(base, TLBEntries*8)
		entries := make([]uint64, TLBEntries)
		for e := range entries {
			for k := 0; k < 8; k++ {
				entries[e] |= uint64(raw[e*8+k]) << (8 * k)
			}
		}
		res.PerCore = append(res.PerCore, entries)
	}
	return res, nil
}

// VoltBootIRAM executes the §7.3 attack on internally booting parts: hold
// the memory domain, power cycle, let the internal ROM boot (clobbering
// its scratchpad ranges exactly as on silicon), and read the iRAM over
// JTAG.
func VoltBootIRAM(b *board.Board, cfg AttackConfig) (*IRAMExtraction, error) {
	spec := b.Spec()
	if !spec.HasJTAG || spec.IRAMBytes == 0 {
		return nil, fmt.Errorf("core: %s has no JTAG-accessible iRAM", spec.Board)
	}
	tr := &stepTracer{}
	psu, err := powerCycle(b, cfg, tr)
	if err != nil {
		return nil, err
	}
	if psu != nil {
		defer psu.Detach()
	}
	// Internal boot from mask ROM: no external media involved, but the
	// ROM's scratchpad usage happens before the JTAG window opens.
	if err := b.SoC.Boot(nil); err != nil {
		return nil, fmt.Errorf("core: internal boot: %w", err)
	}
	tr.add("device boots from internal ROM (scratchpad clobbers part of iRAM)")
	imgBytes, err := b.SoC.JTAGReadIRAM(0, spec.IRAMBytes)
	if err != nil {
		return nil, err
	}
	tr.add("dump %d KB iRAM over JTAG", spec.IRAMBytes/1024)
	return &IRAMExtraction{Device: spec.Board, Image: imgBytes, Trace: tr.steps}, nil
}

// WarmRebootResult is the outcome of a BootJacker-style forced restart.
type WarmRebootResult struct {
	Device string
	// DRAMImage is main memory as the malicious kernel sees it after the
	// warm reboot (no power cycle, so DRAM never decayed — unless a TCG
	// reset wipe ran).
	DRAMImage func(off, n int) []byte
	Trace     []Step
}

// WarmReboot executes the §9.1 baseline: force a reboot WITHOUT cutting
// power (watchdog/reset-pin style) and boot the attacker's image. DRAM
// contents carry over intact; the TCG reset mitigation (Options.TCGReset)
// is the documented defense. The extraction payload here is trivial — the
// attacker's kernel simply reads memory — so the result exposes a DRAM
// reader instead of running a dump program.
func WarmReboot(b *board.Board, img *soc.BootImage) (*WarmRebootResult, error) {
	tr := &stepTracer{}
	tr.add("force warm reboot (reset pin/watchdog) — power never interrupted")
	if err := b.SoC.Boot(img); err != nil {
		return nil, fmt.Errorf("core: warm reboot boot: %w", err)
	}
	tr.add("attacker kernel booted with DRAM contents carried over")
	return &WarmRebootResult{
		Device:    b.Spec().Board,
		DRAMImage: b.SoC.ReadDRAM,
		Trace:     tr.steps,
	}, nil
}

// RunVictim boots and runs a victim image on every core, leaving the
// machine in the "captured device" state the attack model starts from.
func RunVictim(b *board.Board, img *soc.BootImage, maxInstr uint64) error {
	if err := b.SoC.Boot(img); err != nil {
		return fmt.Errorf("core: booting victim: %w", err)
	}
	if err := b.SoC.RunAllCores(maxInstr); err != nil {
		return fmt.Errorf("core: running victim: %w", err)
	}
	return nil
}
