package main

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The benchmark shares its host with other work, and on a shared host
// the same code runs at a speed that drifts by tens of percent over
// minutes. To make runs taken at different moments comparable, a run
// times a fixed reference computation of the benchmark's own between
// measured pieces of work and expresses every timed metric in
// reference-host seconds:
//
//	reported = measured × refNominal / reference time around the measurement
//
// The reference is part of the benchmark, not of the program, so any
// change to the program moves the reported figures by its full size.
// It runs on two goroutines, as the load does, and is mostly dependent
// random reads from a 32 MiB table, because the simulator's passes are
// bound by memory more than by arithmetic. It runs in a child process,
// so its table adds nothing to the measured process's resident set, heap
// or GC pacing. It follows contention for the CPUs closely, and slow
// phases of the host's memory system only in part (see BASELINE.md).
const (
	// refNominal is the reference host's time for the reference
	// computation, a round figure of the order of its time on a
	// 2-vCPU cloud host.
	refNominal = 0.1     // seconds
	refWords   = 1 << 22 // 32 MiB table
	refIters   = 1 << 20 // table reads per goroutine
	refMix     = 2       // multiply-adds per table read
	// refEnv, set to 1 in a child's environment, makes the binary run
	// the reference once, print its seconds and exit.
	refEnv = "PERFBENCH_REFERENCE"
)

// refChild runs the reference computation and prints its time if this
// process was started as a reference child. It reports whether it was.
func refChild() bool {
	if os.Getenv(refEnv) != "1" {
		return false
	}
	fmt.Println(strconv.FormatFloat(refOnce(), 'g', -1, 64))
	return true
}

// refSink keeps the reference loops' results live.
var refSink [2]uint64

// refOnce fills the table, then times the reference computation and
// returns its wall time in seconds.
func refOnce() float64 {
	table := make([]uint64, refWords)
	for i := range table {
		table[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	t := time.Now()
	var wg sync.WaitGroup
	for g := range refSink {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			x, acc := uint64(g+1), uint64(0)
			for i := 0; i < refIters; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				acc += table[(x^acc)%refWords]
				for k := 0; k < refMix; k++ {
					acc = acc*6364136223846793005 + 1442695040888963407
				}
			}
			refSink[g] = acc
		}(g)
	}
	wg.Wait()
	return time.Since(t).Seconds()
}

// reference collects the reference times of one run.
type reference struct{ times []float64 }

// sample runs the reference in a child process of this binary, waits
// for it to exit and records its time.
func (r *reference) sample() error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), refEnv+"=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("reference child: %w", err)
	}
	t, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
	if err != nil || t <= 0 {
		return fmt.Errorf("reference child printed %q", out)
	}
	r.times = append(r.times, t)
	return nil
}

// scaleAt is the factor that turns seconds measured between samples
// i-1 and i into reference-host seconds: refNominal over the median of
// the samples from i-2 to i+1, so that it follows drift within a run
// but not one sample thrown off by a burst of other work.
func (r *reference) scaleAt(i int) float64 {
	near := r.times[max(i-2, 0):min(i+2, len(r.times))]
	return refNominal / median(near)
}
