// Package runner fans independent experiment trials across CPUs while
// keeping every result bit-identical to a serial run.
//
// The experiment drivers (Table 1, the ablation sweeps, the §8 defense
// survey) are grids of fully independent cells: each (board ×
// temperature × trial) cell builds its own sim.Env and board.Board from
// a seed, runs a power-event scenario, and reduces to a row. Nothing is
// shared between cells, so the grid is embarrassingly parallel — as long
// as three invariants hold, which this package owns:
//
//  1. *Private worlds.* The trial function must construct every mutable
//     object (env, board, rng) inside the call; the runner never shares
//     state between trials and the race detector enforces the rule.
//  2. *Seed discipline.* Per-trial randomness is derived from the parent
//     seed and the trial index (SeedFor, via xrand.Derive), never from a
//     shared stream, so results cannot depend on which worker ran first.
//  3. *Deterministic assembly.* Results are written into their index
//     slot and errors are reported by lowest index, so output ordering
//     and error selection are independent of goroutine scheduling.
//
// Under those rules Map(ctx, n, workers, fn) with any worker count —
// including 1 — produces byte-identical results, which
// TestMapMatchesSerial and the experiment-level golden tests assert.
// MapWithResource is the one scheduler, with one worker loop whose
// first worker always runs on the calling goroutine (so workers ≤ 1
// starts no goroutine, and a panic there keeps the failing trial's
// stack); Map is its resource-free form.
package runner

import (
	"context"
	"fmt"

	"repro/internal/xrand"
)

// SeedFor derives the seed of trial i of the experiment labelled label
// from the experiment's parent seed. The derivation is pure: it depends
// only on (seed, label, i), never on scheduling.
func SeedFor(seed uint64, label string, i int) uint64 {
	return xrand.Derive(seed, fmt.Sprintf("%s#%d", label, i)).Uint64()
}

// Map runs fn(i) for every i in [0, n) across at most workers
// goroutines (workers ≤ 1 runs serially on the calling goroutine) and
// returns the results in index order. It is MapWithResource without a
// resource, so it shares that function's contract: lowest-index error,
// panic propagation, and cancellation that stops dispatch and wins over
// any trial error.
func Map[T any](ctx context.Context, n, workers int, fn func(i int) (T, error)) ([]T, error) {
	return MapWithResource(ctx, n, workers,
		func() (struct{}, error) { return struct{}{}, nil },
		func(_ struct{}, i int) (T, error) { return fn(i) })
}
