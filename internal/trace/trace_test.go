package trace_test

import (
	"testing"

	"repro/internal/aes"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/soc"
	"repro/internal/trace"
)

const (
	tStateAddr = uint64(0x40000)
	tKeyAddr   = uint64(0x41000)
	tSBoxAddr  = uint64(0x42000)
	tOutAddr   = uint64(0x43000)
)

var tKey = [16]byte{
	0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
	0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c,
}

// victimSoC boots a BCM2711 into the AES victim with data staged and a
// plaintext written, ready to run.
func victimSoC(tb testing.TB, rounds int, pt [16]byte) (*soc.SoC, *trace.AESVictim) {
	return victimSoCCached(tb, rounds, pt, true)
}

func victimSoCCached(tb testing.TB, rounds int, pt [16]byte, caches bool) (*soc.SoC, *trace.AESVictim) {
	tb.Helper()
	env := sim.NewEnv()
	spec := soc.BCM2711()
	s, err := soc.New(env, spec, soc.Options{}, 0xC0FFEE)
	if err != nil {
		tb.Fatal(err)
	}
	power.NewBenchSupply("bench-core", spec.CoreVolts, 10).AttachTo(s.CoreDom)
	power.NewBenchSupply("bench-mem", spec.MemVolts, 10).AttachTo(s.MemDom)
	v, err := trace.BuildAESVictim(soc.PayloadBase, tStateAddr, tKeyAddr, tSBoxAddr, tOutAddr, rounds)
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.Boot(&soc.BootImage{Words: v.Words, EnableCaches: caches}); err != nil {
		tb.Fatal(err)
	}
	if err := v.StageData(s, tKey); err != nil {
		tb.Fatal(err)
	}
	s.WriteDRAM(int(tStateAddr), pt[:])
	return s, v
}

// TestVictimComputesSubBytes: the victim's output buffer ends the run
// holding sbox[pt[i] ^ rk_last[i]] — the last round's AddRoundKey +
// SubBytes of the (never-overwritten) plaintext. This is the ground
// truth the CPA hypothesis model is built on.
func TestVictimComputesSubBytes(t *testing.T) {
	var pt [16]byte
	for i := range pt {
		pt[i] = byte(0x11 * i)
	}
	// Uncached, so the victim's stores land in DRAM where ReadDRAM
	// (which bypasses the cache) can see them.
	s, v := victimSoCCached(t, 10, pt, false)
	if err := s.RunCore(0, uint64(v.RunLength())+8); err != nil {
		t.Fatal(err)
	}
	sched, err := aes.ExpandKey128(tKey[:])
	if err != nil {
		t.Fatal(err)
	}
	out := s.ReadDRAM(int(tOutAddr), 16)
	for i := 0; i < 16; i++ {
		want := aes.SBox(pt[i] ^ sched[16*(v.Rounds-1)+i])
		if out[i] != want {
			t.Errorf("out[%d] = %#02x, want sbox[pt^rk9] = %#02x", i, out[i], want)
		}
	}
}

// TestCaptureSampleCount: an armed capturer with a roomy arena records
// exactly one sample per retired instruction, and a short arena clips
// without disturbing the run.
func TestCaptureSampleCount(t *testing.T) {
	s, v := victimSoC(t, 2, [16]byte{})
	c, err := trace.New(s, 0, v.RunLength()+100)
	if err != nil {
		t.Fatal(err)
	}
	c.Arm()
	if err := s.RunCore(0, uint64(v.RunLength())+8); err != nil {
		t.Fatal(err)
	}
	c.Disarm()
	if got := len(c.Samples()); got != v.RunLength() {
		t.Fatalf("captured %d samples, victim retired %d", got, v.RunLength())
	}

	s2, v2 := victimSoC(t, 2, [16]byte{})
	c2, err := trace.New(s2, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	c2.Arm()
	if err := s2.RunCore(0, uint64(v2.RunLength())+8); err != nil {
		t.Fatal(err)
	}
	c2.Disarm()
	if got := len(c2.Samples()); got != 10 {
		t.Fatalf("clipped capture recorded %d samples, want arena size 10", got)
	}
	if !s2.Cores[0].CPU.Halted {
		t.Fatal("victim did not halt with a clipped arena")
	}
}

// TestCaptureDoesNotPerturb: running the victim with an armed capturer
// yields the same architectural outcome — output buffer and final
// register file — as running without one.
func TestCaptureDoesNotPerturb(t *testing.T) {
	var pt [16]byte
	for i := range pt {
		pt[i] = byte(0xA5 ^ i)
	}
	run := func(armed bool) ([]byte, [31]uint64) {
		s, v := victimSoC(t, 10, pt)
		if armed {
			c, err := trace.New(s, 0, v.RunLength())
			if err != nil {
				t.Fatal(err)
			}
			c.Arm()
			defer c.Disarm()
		}
		if err := s.RunCore(0, uint64(v.RunLength())+8); err != nil {
			t.Fatal(err)
		}
		var regs [31]uint64
		for i := range regs {
			regs[i] = s.Cores[0].CPU.X(i)
		}
		return s.ReadDRAM(int(tOutAddr), 16), regs
	}
	plainOut, plainRegs := run(false)
	armedOut, armedRegs := run(true)
	if string(plainOut) != string(armedOut) {
		t.Fatalf("armed capture changed the victim's output:\nplain %x\narmed %x", plainOut, armedOut)
	}
	if plainRegs != armedRegs {
		t.Fatalf("armed capture changed the final register file")
	}
}

// TestCaptureDeterministic: two identically-built rigs capture
// bit-identical traces.
func TestCaptureDeterministic(t *testing.T) {
	var pt [16]byte
	for i := range pt {
		pt[i] = byte(3 * i)
	}
	capture := func() []float32 {
		s, v := victimSoC(t, 3, pt)
		c, err := trace.New(s, 0, v.RunLength())
		if err != nil {
			t.Fatal(err)
		}
		c.Arm()
		if err := s.RunCore(0, uint64(v.RunLength())+8); err != nil {
			t.Fatal(err)
		}
		c.Disarm()
		out := make([]float32, len(c.Samples()))
		copy(out, c.Samples())
		return out
	}
	a, b := capture(), capture()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs across identical rigs: %g vs %g", i, a[i], b[i])
		}
	}
}

// TestArmDisarmDetach: Disarm detaches both hooks; a foreign probe is
// left alone.
func TestArmDisarmDetach(t *testing.T) {
	s, _ := victimSoC(t, 1, [16]byte{})
	cpu := s.Cores[0].CPU
	c, err := trace.New(s, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	c.Arm()
	if cpu.Probe == nil {
		t.Fatal("Arm did not attach the CPU probe")
	}
	if !c.Armed() {
		t.Fatal("Armed() false after Arm")
	}
	c.Disarm()
	if cpu.Probe != nil {
		t.Fatal("Disarm left the CPU probe attached")
	}
	if c.Armed() {
		t.Fatal("Armed() true after Disarm")
	}

	c2, err := trace.New(s, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	c.Arm()
	c2.Arm() // takes over
	c.Disarm()
	if cpu.Probe != c2 {
		t.Fatal("Disarm of a superseded capturer removed the active one")
	}
	c2.Disarm()
}

// TestCaptureSnapshotRestore: a snapshot taken mid-capture restores the
// capture cursor along with the machine, so a restored run re-records
// the same tail it recorded the first time.
func TestCaptureSnapshotRestore(t *testing.T) {
	s, v := victimSoC(t, 2, [16]byte{1, 2, 3})
	c, err := trace.New(s, 0, v.RunLength())
	if err != nil {
		t.Fatal(err)
	}
	c.Arm()
	cpu := s.Cores[0].CPU
	for i := 0; i < 40; i++ {
		if err := cpu.Step(); err != nil {
			t.Fatal(err)
		}
	}
	st := s.CaptureSnapshot()
	finish := func() []float32 {
		if err := s.RunCore(0, uint64(v.RunLength())); err != nil {
			t.Fatal(err)
		}
		out := make([]float32, len(c.Samples()))
		copy(out, c.Samples())
		return out
	}
	first := finish()
	s.RestoreSnapshot(st)
	if got := len(c.Samples()); got != 40 {
		t.Fatalf("restore rewound capture cursor to %d, want 40", got)
	}
	second := finish()
	if len(first) != len(second) {
		t.Fatalf("restored run captured %d samples, first run %d", len(second), len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("sample %d differs after snapshot restore: %g vs %g", i, first[i], second[i])
		}
	}
}
