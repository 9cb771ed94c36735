package board

import (
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/glitch"
	"repro/internal/sim"
	"repro/internal/soc"
)

// TestRestoreSnapshotZeroAlloc pins the fork loop's restore as
// allocation-free: after each glitch-search-style trial (a pulse fired
// at the secure-boot verifier's hash-done PC, run to halt, hang or
// crash) has dirtied SRAM pages, DRAM, cache LRU state and the core,
// rewinding the board allocates nothing. The trial itself may allocate
// (the glitcher logs its faults), so the malloc counter that
// testing.AllocsPerRun reads is bracketed around each restore alone;
// AllocsPerRun's unmeasured warm-up call would otherwise absorb the one
// restore that has dirty state to rewind.
func TestRestoreSnapshotZeroAlloc(t *testing.T) {
	const imageBase, statusAddr, proofAddr = 0x100000, 0x4000, 0x4800
	b, err := New(sim.NewEnv(), soc.BCM2711(), soc.Options{}, 0x5EED)
	if err != nil {
		t.Fatal(err)
	}
	b.ConnectMain()
	image, err := glitch.BuildDemoImage(imageBase, proofAddr)
	if err != nil {
		t.Fatal(err)
	}
	rom, err := glitch.BuildBootROM(soc.ROMBase, image, imageBase, statusAddr)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.SoC.ProgramROM(rom.Words); err != nil {
		t.Fatal(err)
	}
	tampered := glitch.TamperImage(image)
	buf := make([]byte, 4*len(tampered))
	for i, w := range tampered {
		binary.LittleEndian.PutUint32(buf[4*i:], w)
	}
	b.SoC.WriteDRAM(imageBase, buf)
	cpu := b.SoC.Cores[0].CPU
	cpu.Reset(rom.Entry)
	g := glitch.New(b.SoC.CoreDom, cpu)
	snap := b.CaptureSnapshot()

	var before, after runtime.MemStats
	var mallocs uint64
	const trials = 50
	for i := 0; i < trials; i++ {
		g.Arm(glitch.Trigger{Kind: glitch.TriggerFetchAddr, Addr: rom.HashDonePC},
			glitch.Pulse{Offset: uint64(i % 9), Width: 1 << (i % 3), Depth: 0.15 * float64(1+i%3)},
			uint64(i))
		_ = b.SoC.RunCore(0, 50_000) // hangs and crashes are trial outcomes
		g.Finish()
		runtime.ReadMemStats(&before)
		b.RestoreSnapshot(snap)
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
	}
	if mallocs != 0 {
		t.Fatalf("RestoreSnapshot after a glitch trial allocates %.1f times per restore, want 0",
			float64(mallocs)/trials)
	}
}
