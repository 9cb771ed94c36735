# Development entry points. `make check` runs scripts/check.sh, the one
# full CI gate; the individual targets exist for fast local iteration.

GO ?= go

.PHONY: all build vet lint test race bench-smoke bench check

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# voltvet is the repo's own stdlib-only analyzer suite (cmd/voltvet):
# determinism boundary, map-order hazards, hot-path allocation hygiene,
# service-layer lock discipline, dropped errors. Exits non-zero on any
# finding not grandfathered in lint.baseline.
lint:
	$(GO) run ./cmd/voltvet ./...

test:
	$(GO) test ./...

# The race target is where the parallel experiment runner earns its
# keep: the determinism tests raise GOMAXPROCS and fan Table 1, the
# retention sweep and the defense survey across workers under the race
# detector. -short skips only the heavyweight repeats (Table 4, CaSE,
# the doubled Countermeasures run).
race:
	$(GO) test -race -short ./...

# One-iteration smoke over the hot-path micro-benchmarks: catches
# benchmark bit-rot without paying for a full measurement run.
bench-smoke:
	$(GO) test -run '^$$' -bench 'ResolveDecay|PowerUpAll|FractionalHD|FractionOnes' -benchtime 1x ./internal/sram/ ./internal/analysis/

# Full measurement run (slow): every table and figure as a benchmark.
bench:
	$(GO) test -bench . -benchmem ./...

check:
	sh scripts/check.sh
