package runner

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// MapWithResource runs fn(r, i) for every i in [0, n) across at most
// workers goroutines, one of them the calling goroutine (so workers ≤ 1
// runs the whole map there), and returns the results in index order. The
// first error by index (not by completion time) aborts the whole map,
// and a panic in any trial is propagated to the caller.
//
// Cancellation is cooperative: once ctx is cancelled no new trial is
// dispatched, in-flight trials finish, and the call returns
// (nil, ctx.Err()). Cancellation takes precedence over any trial error,
// because which trials had run by the time the context fired is
// scheduling-dependent — reporting ctx.Err() keeps the cancelled outcome
// deterministic. A Background (or otherwise non-cancellable) context
// adds no per-trial overhead: the cancellation probe is skipped entirely
// when ctx.Done() returns nil.
//
// Trials share an expensive per-worker resource — the snapshot fast
// path's entry point. Each worker lazily builds one resource with mk on
// its first claimed trial and reuses it for every subsequent trial it
// runs; with workers ≤ 1 a single resource serves the whole serial loop.
// Map is the resource-free form.
//
// The canonical resource is a forked board: mk builds a fresh
// board.Board, runs the sweep's shared prefix (boot, victim fill), and
// captures a snapshot; fn restores the snapshot and runs only the
// per-trial tail. Worker count then scales throughput without repaying
// the prefix per trial.
//
// Determinism adds a fourth invariant to the package rules: *resource
// interchangeability*. mk must build identical resources every call
// (same seeds, same prefix), and fn(r, i) must depend only on i and the
// resource's captured state — never on which trials previously ran on r.
// Snapshot restores provide exactly that: every trial starts from the
// bit-identical capture point, so results match a serial run with any
// worker count. A mk error is reported at the worker's first claimed
// trial index; because mk is deterministic, every worker fails the same
// way and the lowest-index rule still yields a stable error.
func MapWithResource[R, T any](ctx context.Context, n, workers int, mk func() (R, error), fn func(r R, i int) (T, error)) ([]T, error) {
	done := ctx.Done() // nil for Background/TODO: probes compile out below
	if done != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	if n <= 0 {
		return nil, nil
	}
	results := make([]T, n)
	workers = min(max(workers, 1), n)
	var (
		next     atomic.Int64 // work-stealing cursor
		firstIdx atomic.Int64 // lowest failing index so far, -1 = none
		errs     = make([]error, n)
		panics   = make([]any, workers)
	)
	firstIdx.Store(-1)
	record := func(i int, err error) {
		errs[i] = err
		for {
			f := firstIdx.Load()
			if f == -2 || (f >= 0 && f < int64(i)) {
				return
			}
			if firstIdx.CompareAndSwap(f, int64(i)) {
				return
			}
		}
	}
	// work is the one trial loop: a worker claims indices from the shared
	// cursor until they run out, a failure makes the rest moot, or ctx
	// is cancelled. Worker 0 runs on the calling goroutine; a panic there
	// poisons the cursor, waits for the other workers and keeps unwinding
	// with the failing trial's frames on its stack. Other workers recover
	// theirs, and the caller re-raises it once every worker has stopped.
	var wg sync.WaitGroup
	work := func(worker int) (finished bool) {
		defer func() {
			if finished {
				return
			}
			firstIdx.Store(-2) // poison: stop handing out work
			if worker == 0 {
				wg.Wait()
				return
			}
			panics[worker] = recover()
		}()
		var (
			r    R
			made bool
		)
		for {
			if done != nil {
				select {
				case <-done:
					return true // stop dispatching; ctx.Err() is reported once every worker stops
				default:
				}
			}
			i := int(next.Add(1)) - 1
			if i >= n {
				return true
			}
			// Once a failure at index f is known, indices above f
			// cannot improve the outcome; keep running lower ones so
			// the reported error is the deterministic lowest index.
			if f := firstIdx.Load(); f == -2 || (f >= 0 && int64(i) > f) {
				continue
			}
			if !made {
				var err error
				if r, err = mk(); err != nil {
					record(i, fmt.Errorf("resource: %w", err))
					return true // a worker without a resource cannot serve trials
				}
				made = true
			}
			v, err := fn(r, i)
			if err != nil {
				record(i, err)
				continue
			}
			results[i] = v
		}
	}
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	if done != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	if f := firstIdx.Load(); f >= 0 {
		return nil, fmt.Errorf("runner: trial %d: %w", f, errs[f])
	}
	return results, nil
}
