package trace_test

import (
	"testing"

	"repro/internal/soc"
	"repro/internal/soc/soctest"
	"repro/internal/trace"
)

// arena is the capturer's sample capacity; a power of two, so the armed
// benchmark can rewind it with a mask.
const arena = 1 << 16

// steppingCapturer is the shared stepping rig with a trace capturer
// constructed against core 0. The capturer goes through one arm/disarm
// cycle so the CPU has seen attach and detach; callers arm (or not) on
// top of that.
func steppingCapturer(tb testing.TB) (*soc.SoC, *trace.Capturer) {
	var c *trace.Capturer
	s := soctest.Stepping(tb, func(s *soc.SoC) {
		var err error
		if c, err = trace.New(s, 0, arena); err != nil {
			tb.Fatal(err)
		}
		c.Arm()
		c.Disarm()
	})
	return s, c
}

// BenchmarkCPUStepTraceDisarmed is BenchmarkCPUStep with the trace
// capturer present but disarmed. The acceptance bar: within noise of
// the plain BenchmarkCPUStep number — the disarmed hook is one nil
// check on the retire path and one on the bus path.
func BenchmarkCPUStepTraceDisarmed(b *testing.B) {
	s, _ := steppingCapturer(b)
	soctest.BenchStep(b, s)
}

// BenchmarkCPUStepTraceArmed measures the armed per-step cost: Hamming
// weights, rail reads, and the arena store, on top of the plain step.
// The arena is re-armed whenever it fills so the steady-state path
// (bounded store) is what dominates the measurement.
func BenchmarkCPUStepTraceArmed(b *testing.B) {
	s, c := steppingCapturer(b)
	cpu := s.Cores[0].CPU
	c.Arm()
	defer c.Disarm()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i&(arena-1) == 0 {
			c.Arm() // rewind the full arena; amortized to nothing
		}
		if err := cpu.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "instr/s")
}

// BenchmarkTraceCapture measures end-to-end capture throughput: one
// full AES-victim trial (restore-free straight run) per iteration,
// reported in samples per second.
func BenchmarkTraceCapture(b *testing.B) {
	var pt [16]byte
	s, v := victimSoC(b, 10, pt)
	c, err := trace.New(s, 0, v.RunLength())
	if err != nil {
		b.Fatal(err)
	}
	cpu := s.Cores[0].CPU
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cpu.Reset(v.Entry)
		c.Arm()
		if err := s.RunCore(0, uint64(v.RunLength())+8); err != nil {
			b.Fatal(err)
		}
		c.Disarm()
	}
	b.ReportMetric(float64(b.N*v.RunLength())/b.Elapsed().Seconds(), "samples/s")
}

// TestStepTraceDisarmedZeroAlloc pins the disarmed contract: steady-
// state Step with a constructed-and-disarmed capturer allocates
// nothing.
func TestStepTraceDisarmedZeroAlloc(t *testing.T) {
	s, _ := steppingCapturer(t)
	soctest.AssertZeroAlloc(t, s, "disarmed-capturer")
}

// TestStepTraceArmedZeroAlloc pins the armed contract: the whole
// sample-emit path — retire probe, bus probe, Hamming arithmetic, rail
// reads, arena store — allocates nothing in steady state.
func TestStepTraceArmedZeroAlloc(t *testing.T) {
	s, c := steppingCapturer(t)
	c.Arm()
	defer c.Disarm()
	soctest.AssertZeroAlloc(t, s, "armed-capturer")
}
