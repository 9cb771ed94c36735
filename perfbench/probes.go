package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/board"
	"repro/internal/glitch"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/soc"
)

// Layer probes: public calls the benchmark times itself, each
// normalised by its work count.

const (
	probeBoots    = 5
	probeTrials   = 400
	probeInstrs   = 4_000_000
	rigImageBase  = uint64(0x100000)
	rigStatusAddr = uint64(0x4000)
	rigProofAddr  = uint64(0x4800)
	rigRunBudget  = uint64(50_000)
)

// poweredBoard builds a Raspberry Pi 4 board and plugs in its main
// supply, which draws the power-up state of every on-chip array.
func poweredBoard(seed uint64) (*board.Board, error) {
	b, err := board.New(sim.NewQuietEnv(), soc.BCM2711(), soc.Options{}, seed)
	if err != nil {
		return nil, err
	}
	b.ConnectMain()
	return b, nil
}

// probeBoot times board.New + ConnectMain, in ms per boot.
func probeBoot(seed uint64) (float64, error) {
	var ms []float64
	for i := 0; i < probeBoots; i++ {
		t := time.Now()
		if _, err := poweredBoard(seed + uint64(i)); err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(t))/1e6)
	}
	return median(ms), nil
}

// probeRestore fires glitch trials at the secure-boot verifier the way
// the glitch-search campaign does and times the Board.RestoreSnapshot
// that rewinds each one, in µs per restore.
func probeRestore(seed uint64) (float64, error) {
	b, err := poweredBoard(seed)
	if err != nil {
		return 0, err
	}
	image, err := glitch.BuildDemoImage(rigImageBase, rigProofAddr)
	if err != nil {
		return 0, err
	}
	rom, err := glitch.BuildBootROM(soc.ROMBase, image, rigImageBase, rigStatusAddr)
	if err != nil {
		return 0, err
	}
	if err := b.SoC.ProgramROM(rom.Words); err != nil {
		return 0, err
	}
	tampered := glitch.TamperImage(image)
	buf := make([]byte, 4*len(tampered))
	for i, w := range tampered {
		binary.LittleEndian.PutUint32(buf[4*i:], w)
	}
	b.SoC.WriteDRAM(int(rigImageBase), buf)
	cpu := b.SoC.Cores[0].CPU
	cpu.Reset(rom.Entry)
	g := glitch.New(b.SoC.CoreDom, cpu)
	snap := b.CaptureSnapshot()
	var us []float64
	for i := 0; i < probeTrials; i++ {
		g.Arm(glitch.Trigger{Kind: glitch.TriggerFetchAddr, Addr: rom.HashDonePC},
			glitch.Pulse{Offset: uint64(i % 9), Width: 1 << (i % 3), Depth: 0.15 * float64(1+i%3)},
			seed+uint64(i))
		// Hangs and crashes are legitimate trial outcomes.
		_ = b.SoC.RunCore(0, rigRunBudget)
		g.Finish()
		t := time.Now()
		b.RestoreSnapshot(snap)
		us = append(us, float64(time.Since(t))/1e3)
	}
	return median(us), nil
}

// probeStep runs the §7.1.2 array benchmark through SoC.RunCoreQuantum
// with caches on and returns host ns per retired instruction.
func probeStep(seed uint64) (float64, error) {
	b, err := poweredBoard(seed)
	if err != nil {
		return 0, err
	}
	prog, err := kernel.ArrayBenchmarkProgram(soc.PayloadBase, 0x100000, 4096, 1<<30)
	if err != nil {
		return 0, err
	}
	if err := b.SoC.Boot(&soc.BootImage{Words: prog, EnableCaches: true}); err != nil {
		return 0, err
	}
	cpu := b.SoC.Cores[0].CPU
	// Warm the caches, predecode and superblocks first.
	if _, err := b.SoC.RunCoreQuantum(0, probeInstrs/8); err != nil {
		return 0, err
	}
	before := cpu.Instret
	t := time.Now()
	if _, err := b.SoC.RunCoreQuantum(0, probeInstrs); err != nil {
		return 0, err
	}
	el := time.Since(t)
	n := cpu.Instret - before
	if n == 0 {
		return 0, fmt.Errorf("probe: no instruction retired")
	}
	return float64(el) / float64(n), nil
}

// probeMetrics runs every layer probe.
func probeMetrics(seed uint64, m metrics) error {
	boot, err := probeBoot(seed)
	if err != nil {
		return fmt.Errorf("boot probe: %w", err)
	}
	restore, err := probeRestore(seed)
	if err != nil {
		return fmt.Errorf("restore probe: %w", err)
	}
	step, err := probeStep(seed)
	if err != nil {
		return fmt.Errorf("step probe: %w", err)
	}
	m.set("board.boot_ms", boot, "ms")
	m.set("board.restore_us", restore, "us")
	m.set("soc.ns_per_instr", step, "ns")
	return nil
}
