package soc_test

import (
	"testing"

	"repro/internal/soc/soctest"
)

// BenchmarkCPUStep measures steady-state instruction execution on the
// fast path and reports throughput in instructions per second. This is
// the execution-pipeline headline number for the predecoded i-stream and
// zero-copy cache refactor: every op is one retired instruction of a
// cache-hit load/store loop.
func BenchmarkCPUStep(b *testing.B) {
	soctest.BenchStep(b, soctest.Stepping(b, nil))
}

// TestStepSteadyStateZeroAlloc pins the allocation-free contract: once
// the loop is warm, CPU.Step with cache-hit loads and stores must not
// allocate at all. A regression here silently costs every experiment
// tens of millions of allocations.
func TestStepSteadyStateZeroAlloc(t *testing.T) {
	soctest.AssertZeroAlloc(t, soctest.Stepping(t, nil), "steady-state")
}
