package glitch_test

import (
	"testing"

	"repro/internal/glitch"
	"repro/internal/soc"
	"repro/internal/soc/soctest"
)

// disarmedGlitcher hangs a glitcher off core 0 and takes it through one
// arm/disarm cycle, so the CPU has seen attach and detach. Stepping then
// measures exactly what every non-glitched experiment pays for the
// fault-injection hook.
func disarmedGlitcher(s *soc.SoC) {
	g := glitch.New(s.CoreDom, s.Cores[0].CPU)
	g.Arm(glitch.Trigger{Kind: glitch.TriggerFetchAddr, Addr: 0xDEAD0000}, glitch.Pulse{}, 1)
	g.Disarm()
}

// BenchmarkCPUStepGlitchDisarmed is BenchmarkCPUStep with the glitch
// engine present but disarmed. The acceptance bar: within noise of the
// plain BenchmarkCPUStep number — the disarmed hook is one nil check.
func BenchmarkCPUStepGlitchDisarmed(b *testing.B) {
	soctest.BenchStep(b, soctest.Stepping(b, disarmedGlitcher))
}

// TestStepGlitchDisarmedZeroAlloc pins the disarmed-glitcher contract
// dynamically: steady-state Step with a constructed-and-disarmed
// glitcher allocates nothing.
func TestStepGlitchDisarmedZeroAlloc(t *testing.T) {
	soctest.AssertZeroAlloc(t, soctest.Stepping(t, disarmedGlitcher), "disarmed-glitcher")
}
