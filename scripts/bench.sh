#!/bin/sh
# Performance record keeper: runs the repository's headline benchmarks
# and appends the results as BENCH_<n>.json at the repo root (the lowest
# unused n), tagged with the date and commit so regressions can be
# bisected against the recorded history.
#
# Every benchmark runs five times (go test -count 5) and the record keeps
# the median, min and max ns/op of those samples: one sample per
# benchmark cannot resolve a 10% change on a host whose same-commit
# reruns spread wider than that. This is a history, not a judge; the
# judged end-to-end benchmark is perfbench/.
#
# Usage: scripts/bench.sh [benchtime]
#   benchtime  go-test -benchtime value for the experiment benchmarks
#              (default 1x; the micro-benchmarks always use 2s).
set -eu
cd "$(dirname "$0")/.."

BENCHTIME="${1:-1x}"

n=1
while [ -e "BENCH_${n}.json" ]; do
	n=$((n + 1))
done
out="BENCH_${n}.json"
if [ -e "$out" ]; then
	echo "error: $out already exists; refusing to overwrite a recorded run" >&2
	exit 1
fi

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

echo "==> micro-benchmarks (2s each, 5 samples)"
go test -run '^$' -bench 'BenchmarkCPUStep$' -benchtime 2s -count 5 ./internal/soc/ | tee -a "$tmp"
go test -run '^$' -bench 'BenchmarkCacheAccessHit$|BenchmarkCacheAccessMiss$' -benchtime 2s -count 5 ./internal/cache/ | tee -a "$tmp"
go test -run '^$' -bench 'BenchmarkOSWorkloadIPS$' -benchtime 2s -count 5 ./internal/kernel/ | tee -a "$tmp"
go test -run '^$' -bench 'BenchmarkCPUStepGlitchDisarmed$' -benchtime 2s -count 5 ./internal/glitch/ | tee -a "$tmp"
go test -run '^$' -bench 'BenchmarkCPUStepTraceDisarmed$|BenchmarkCPUStepTraceArmed$|BenchmarkTraceCapture$' -benchtime 2s -count 5 ./internal/trace/ | tee -a "$tmp"
go test -run '^$' -bench 'BenchmarkCPACorrelate$' -benchtime 2s -count 5 ./internal/sca/ | tee -a "$tmp"

echo "==> voltvet whole-module static analysis (1 iteration; seconds-scale)"
go test -run '^$' -bench 'BenchmarkVoltvetModule$' -benchtime 1x -count 5 ./internal/lint/ | tee -a "$tmp"

echo "==> campaign service throughput (2s)"
go test -run '^$' -bench 'BenchmarkCampaignSubmitCached$' -benchtime 2s -count 5 ./internal/api/ | tee -a "$tmp"

echo "==> result store (2s each)"
go test -run '^$' -bench 'BenchmarkStoreGet$|BenchmarkStoreGetDisk$|BenchmarkStorePut$' -benchtime 2s -count 5 ./internal/store/ | tee -a "$tmp"

echo "==> fabric sharded sweep (2s)"
go test -run '^$' -bench 'BenchmarkFabricSweepCached$' -benchtime 2s -count 5 ./internal/api/ | tee -a "$tmp"

echo "==> experiment benchmarks (-benchtime ${BENCHTIME})"
go test -run '^$' -bench 'BenchmarkFigure7ColdBoot$|BenchmarkFigure8OSScenario$|BenchmarkTable4ArraySweep$|BenchmarkGlitchSearch$' \
	-benchtime "$BENCHTIME" -count 5 ./internal/experiments/ | tee -a "$tmp"

# The commit field is always the clean HEAD hash; working-tree state is
# recorded separately so tooling can compare commits without parsing a
# "-dirty" suffix out of the hash.
commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
dirty=false
if ! git diff-index --quiet HEAD -- 2>/dev/null; then
	dirty=true
fi

# Environment metadata: numbers are only comparable across runs on the
# same toolchain and hardware, so record both alongside the results.
goversion="$(go version | awk '{print $3}')"
gomaxprocs="${GOMAXPROCS:-$(getconf _NPROCESSORS_ONLN)}"
cpumodel="$(awk -F': ' '/model name/ {print $2; exit}' /proc/cpuinfo 2>/dev/null || echo unknown)"

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
	-v commit="$commit" -v dirty="$dirty" \
	-v goversion="$goversion" -v gomaxprocs="$gomaxprocs" -v cpumodel="$cpumodel" '
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	nsop = ""
	for (i = 2; i < NF; i++) {
		if ($(i + 1) == "ns/op") nsop = $i
	}
	if (nsop == "") next
	if (!(name in n)) order[++names] = name
	# Insertion-sort the samples of each benchmark as they arrive.
	k = ++n[name]
	while (k > 1 && s[name, k - 1] > nsop + 0) {
		s[name, k] = s[name, k - 1]
		k--
	}
	s[name, k] = nsop + 0
}
END {
	printf "{\n  \"date\": \"%s\",\n  \"commit\": \"%s\",\n  \"dirty\": %s,\n", date, commit, dirty
	printf "  \"go_version\": \"%s\",\n  \"gomaxprocs\": %s,\n  \"cpu_model\": \"%s\",\n", goversion, gomaxprocs, cpumodel
	printf "  \"benchmarks\": ["
	for (j = 1; j <= names; j++) {
		name = order[j]
		c = n[name]
		if (c % 2) med = s[name, (c + 1) / 2]
		else med = (s[name, c / 2] + s[name, c / 2 + 1]) / 2
		printf "%s\n    {\"name\": \"%s\", \"samples\": %d, \"ns_per_op\": %.10g, \"min_ns_per_op\": %.10g, \"max_ns_per_op\": %.10g}", (j > 1 ? "," : ""), name, c, med, s[name, 1], s[name, c]
	}
	printf "\n  ]\n}\n"
}
' "$tmp" > "$out"

echo "==> wrote $out"
cat "$out"
