package kernel

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/soc"
)

func poweredSoC(t testing.TB) *soc.SoC {
	t.Helper()
	env := sim.NewEnv()
	s, err := soc.New(env, soc.BCM2711(), soc.Options{}, 0xFEED)
	if err != nil {
		t.Fatal(err)
	}
	power.NewBenchSupply("core", s.Spec.CoreVolts, 10).AttachTo(s.CoreDom)
	power.NewBenchSupply("mem", s.Spec.MemVolts, 10).AttachTo(s.MemDom)
	if err := s.Boot(nil); err != nil {
		t.Fatal(err)
	}
	return s
}

// elemValue is the distinguishable per-element value the tests stage.
func elemValue(i int) []byte {
	v := uint64(0xA110000000000000) | uint64(i)
	b := make([]byte, 8)
	for k := range b {
		b[k] = byte(v >> (8 * k))
	}
	return b
}

func stageArray(t *testing.T, k *Kernel, core int, pageAddr, userAddr uint64, n int) {
	t.Helper()
	data := make([]byte, n*8)
	for i := 0; i < n; i++ {
		copy(data[i*8:], elemValue(i))
	}
	if err := k.StageFile(core, pageAddr, userAddr, data); err != nil {
		t.Fatal(err)
	}
}

// countPresent counts elements whose full 8-byte value appears anywhere
// (8-byte aligned) in either d-cache way — the Table 4 measurement.
func countPresent(s *soc.SoC, core, n int) (w0, w1, union int) {
	d0 := s.Cores[core].L1D.DumpWay(0)
	d1 := s.Cores[core].L1D.DumpWay(1)
	for i := 0; i < n; i++ {
		e := elemValue(i)
		in0 := analysis.CountAlignedOccurrences(d0, e) > 0
		in1 := analysis.CountAlignedOccurrences(d1, e) > 0
		if in0 {
			w0++
		}
		if in1 {
			w1++
		}
		if in0 || in1 {
			union++
		}
	}
	return w0, w1, union
}

func runBenchmark(t *testing.T, s *soc.SoC, k *Kernel, core int, arrayBytes int) (int, int, int) {
	t.Helper()
	n := arrayBytes / 8
	userAddr := uint64(0x100000)
	pageAddr := uint64(0x180000)
	// Enable caches the way a booted OS has them.
	c := s.Cores[core]
	c.L1D.InvalidateAll()
	c.L1I.InvalidateAll()
	c.L1D.SetEnabled(true)
	c.L1I.SetEnabled(true)

	stageArray(t, k, core, pageAddr, userAddr, n)
	prog, err := ArrayBenchmarkProgram(soc.PayloadBase, userAddr, n, 30)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range prog {
		s.WriteDRAM(int(soc.PayloadBase)+i*4, []byte{byte(w), byte(w >> 8), byte(w >> 16), byte(w >> 24)})
	}
	c.CPU.Reset(soc.PayloadBase)
	if err := k.RunWithNoise(core, 50_000_000); err != nil {
		t.Fatal(err)
	}
	return countPresent(s, core, n)
}

func TestSmallArrayFullyRetrievable(t *testing.T) {
	s := poweredSoC(t)
	k := New(s, DefaultConfig(1))
	w0, w1, union := runBenchmark(t, s, k, 0, 4*1024)
	// Table 4 reports essentially-complete extraction for small arrays
	// (512.0/512 at 4KB, 1023.7/1024 at 8KB — occasional single-element
	// losses are part of the measured reality).
	if union < 505 {
		t.Fatalf("4KB union = %d/512 (w0=%d w1=%d), want ≥505", union, w0, w1)
	}
	// The page-cache copies make the per-way sum exceed the union.
	if w0+w1 <= union {
		t.Logf("note: no duplicated elements this run (w0=%d w1=%d union=%d)", w0, w1, union)
	}
}

func TestFullCacheArrayLosesSome(t *testing.T) {
	s := poweredSoC(t)
	k := New(s, DefaultConfig(2))
	_, _, union := runBenchmark(t, s, k, 0, 32*1024)
	frac := float64(union) / 4096
	if frac < 0.70 || frac > 0.99 {
		t.Fatalf("32KB extraction fraction = %v, want the Table 4 band (~0.85-0.92)", frac)
	}
}

func TestMoreNoiseMoreLoss(t *testing.T) {
	s1 := poweredSoC(t)
	quiet := DefaultConfig(3)
	quiet.NoiseTouches = 1
	_, _, qUnion := runBenchmark(t, s1, New(s1, quiet), 0, 32*1024)

	s2 := poweredSoC(t)
	loud := DefaultConfig(3)
	loud.NoiseTouches = 60
	_, _, lUnion := runBenchmark(t, s2, New(s2, loud), 0, 32*1024)

	if qUnion <= lUnion {
		t.Fatalf("noise monotonicity violated: quiet=%d loud=%d", qUnion, lUnion)
	}
}

func TestStageFilePutsDataInCache(t *testing.T) {
	s := poweredSoC(t)
	k := New(s, DefaultConfig(4))
	c := s.Cores[0]
	c.L1D.InvalidateAll()
	c.L1D.SetEnabled(true)
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if err := k.StageFile(0, 0x180000, 0x100000, data); err != nil {
		t.Fatal(err)
	}
	// Both copies readable through the cache.
	v, err := c.L1D.Access(0x100000, 8, false, 0, false)
	if err != nil || v != 0x0807060504030201 {
		t.Fatalf("user copy = %#x err=%v", v, err)
	}
	v, err = c.L1D.Access(0x180000, 8, false, 0, false)
	if err != nil || v != 0x0807060504030201 {
		t.Fatalf("page-cache copy = %#x err=%v", v, err)
	}
	if c.L1D.Stats().Misses == 0 {
		t.Fatal("staging should have allocated lines")
	}
}

func TestPatternFillProgram(t *testing.T) {
	s := poweredSoC(t)
	k := New(s, DefaultConfig(5))
	c := s.Cores[0]
	c.L1D.InvalidateAll()
	c.L1I.InvalidateAll()
	c.L1D.SetEnabled(true)
	c.L1I.SetEnabled(true)
	prog, err := PatternFillProgram(soc.PayloadBase, 0x100000, 1024, 0xAA)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range prog {
		s.WriteDRAM(int(soc.PayloadBase)+i*4, []byte{byte(w), byte(w >> 8), byte(w >> 16), byte(w >> 24)})
	}
	c.CPU.Reset(soc.PayloadBase)
	if err := k.RunWithNoise(0, 10_000_000); err != nil {
		t.Fatal(err)
	}
	// The d-cache must now contain plenty of 0xAA bytes (Figure 8).
	aa := 0
	for _, b := range c.L1D.DumpWay(0) {
		if b == 0xAA {
			aa++
		}
	}
	for _, b := range c.L1D.DumpWay(1) {
		if b == 0xAA {
			aa++
		}
	}
	if aa < 4096 {
		t.Fatalf("only %d 0xAA bytes in d-cache", aa)
	}
	// And the i-cache must contain the program's machine code.
	prog0 := []byte{byte(prog[0]), byte(prog[0] >> 8), byte(prog[0] >> 16), byte(prog[0] >> 24)}
	found := false
	for w := 0; w < s.Spec.L1I.Ways; w++ {
		if len(analysis.FindPattern(c.L1I.DumpWay(w), prog0)) > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("program instructions not found in i-cache")
	}
}

func TestRunWithNoiseDetectsRunaway(t *testing.T) {
	s := poweredSoC(t)
	k := New(s, DefaultConfig(6))
	c := s.Cores[0]
	// Infinite loop program.
	s.WriteDRAM(int(soc.PayloadBase), []byte{0, 0, 0, 0x80}) // B .+0
	c.CPU.Reset(soc.PayloadBase)
	if err := k.RunWithNoise(0, 10_000); err == nil {
		t.Fatal("runaway program should error")
	}
}
