package main

import (
	rtmetrics "runtime/metrics"
	"time"
)

// memPeak samples the resident memory of the Go runtime while a
// measured segment runs and keeps the largest sample. Resident is what
// the runtime has mapped less what it has returned to the OS. The
// median over segments of these peaks is steadier than the process's
// high-water mark, which one unlucky GC cycle sets for the whole run.
type memPeak struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

// memSampleEvery is the sampling interval.
const memSampleEvery = 5 * time.Millisecond

func startMemPeak() *memPeak {
	m := &memPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		s := []rtmetrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
		tick := time.NewTicker(memSampleEvery)
		defer tick.Stop()
		for {
			rtmetrics.Read(s)
			m.peak = max(m.peak, s[0].Value.Uint64()-s[1].Value.Uint64())
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// end stops the sampler, waits for it and returns the peak in MiB.
func (m *memPeak) end() float64 {
	close(m.stop)
	<-m.done
	return float64(m.peak) / (1 << 20)
}
