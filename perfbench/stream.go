package main

import "math/rand/v2"

// The service-fleet request stream. Each client draws its requests from
// its own generator seeded by (workload seed, client), so the stream is
// a pure function of the seed and the client index, independent of
// timing and of the other client.

const (
	sweepRuns   = 4    // runs per sweep
	warmSweeps  = 192  // sweeps written during set-up: the read working set
	readPermill = 800  // share of reads among requests, per mille
	streamSalt  = 0x5b // separates client streams from the warm set's
)

// cheapExperiments are the catalog entries write sweeps draw from:
// each runs in microseconds to milliseconds.
var cheapExperiments = []string{"table2", "table3", "figure6", "ablationD-imprint", "mcu-extension"}

type runSpec struct {
	Experiment string `json:"experiment"`
	Seed       uint64 `json:"seed"`
}

// request is one sweep a client sends: a read re-submits warm sweep
// warm; a write submits fresh runs.
type request struct {
	read bool
	warm int
	runs []runSpec
}

func freshSweep(r *rand.Rand) []runSpec {
	runs := make([]runSpec, sweepRuns)
	for i := range runs {
		runs[i] = runSpec{
			Experiment: cheapExperiments[r.IntN(len(cheapExperiments))],
			Seed:       r.Uint64() >> 1,
		}
	}
	return runs
}

// warmSet is the list of sweeps set-up writes.
func warmSet(seed uint64) [][]runSpec {
	r := rand.New(rand.NewPCG(seed, 0))
	out := make([][]runSpec, warmSweeps)
	for i := range out {
		out[i] = freshSweep(r)
	}
	return out
}

type stream struct{ r *rand.Rand }

func newStream(seed uint64, client int) *stream {
	return &stream{r: rand.New(rand.NewPCG(seed, streamSalt+uint64(client)))}
}

func (s *stream) next() request {
	if s.r.IntN(1000) < readPermill {
		return request{read: true, warm: s.r.IntN(warmSweeps)}
	}
	return request{runs: freshSweep(s.r)}
}
