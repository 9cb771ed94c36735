// Package soctest provides the steady-state stepping rig shared by the
// CPU step benchmarks and zero-allocation gates of soc, glitch and trace,
// in the spirit of net/http/httptest.
package soctest

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/soc"
)

// loop is a cached, never-halting load/increment/store loop: once warm,
// every Step is a predecoded fetch plus a cache-hit load or store.
const loop = `
        LDIMM X1, #0x100000
loop:   LDR X2, [X1]
        ADDI X2, X2, #1
        STR X2, [X1]
        B loop
    `

// warmSteps is enough instructions to leave the instruction lines
// resident in the L1I and predecoded, the data line resident in the
// L1D and the TLB slot memoized.
const warmSteps = 256

// Stepping boots a BCM2711 on ideal bench supplies running the loop
// above and warms it to steady state. attach, when non-nil, runs after
// boot and before the warm-up: it is where a test hangs a glitcher or
// trace capturer off core 0 and takes it through an arm/disarm cycle.
func Stepping(tb testing.TB, attach func(*soc.SoC)) *soc.SoC {
	tb.Helper()
	env := sim.NewEnv()
	spec := soc.BCM2711()
	s, err := soc.New(env, spec, soc.Options{}, 0xC0FFEE)
	if err != nil {
		tb.Fatal(err)
	}
	power.NewBenchSupply("bench-core", spec.CoreVolts, 10).AttachTo(s.CoreDom)
	power.NewBenchSupply("bench-mem", spec.MemVolts, 10).AttachTo(s.MemDom)
	words, err := isa.Assemble(soc.PayloadBase, loop)
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.Boot(&soc.BootImage{Words: words, EnableCaches: true}); err != nil {
		tb.Fatal(err)
	}
	if attach != nil {
		attach(s)
	}
	cpu := s.Cores[0].CPU
	for i := 0; i < warmSteps; i++ {
		if err := cpu.Step(); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

// AssertZeroAlloc fails t unless steady-state Step on core 0 allocates
// nothing. what names the configuration in the failure message.
func AssertZeroAlloc(t *testing.T, s *soc.SoC, what string) {
	t.Helper()
	cpu := s.Cores[0].CPU
	var stepErr error
	allocs := testing.AllocsPerRun(10000, func() {
		if err := cpu.Step(); err != nil {
			stepErr = err
		}
	})
	if stepErr != nil {
		t.Fatal(stepErr)
	}
	if allocs != 0 {
		t.Fatalf("%s Step allocates %.1f times per instruction, want 0", what, allocs)
	}
}

// BenchStep steps core 0 b.N times and reports throughput in
// instructions per second.
func BenchStep(b *testing.B, s *soc.SoC) {
	cpu := s.Cores[0].CPU
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cpu.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "instr/s")
}
