#!/usr/bin/env bash
# Same-runner A/B perf gate: runs every bench/ workload on a base revision
# (checked out with `git worktree add` into a temporary directory, removed
# on exit) and on this checkout, in alternating pairs on this machine, and
# lets cmd/benchdiff decide whether the pairs show a regression. Exits 0
# when the gate passes.
#
#   scripts/abgate.sh <base-ref>
#
# Results land in .bench_build/abgate/: base/ and head/ hold each run's
# last line of standard output as <workload>.<pair>.json (.trace.json for
# the traced run that reports alloc_mb) and its standard error in
# bench.log; table.md is benchdiff's table.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
	echo "usage: scripts/abgate.sh <base-ref>" >&2
	exit 2
fi

# Every run is RUN_SECONDS long, and each workload gets PAIRS pairs plus
# one traced run per side. On a 2-CPU machine the gate takes about 6
# minutes. Below 10 pairs the head must be worse in every pair to fail,
# so a no-op reaches a metric's spread test by chance once in 256.
RUN_SECONDS=4
PAIRS=8

# Each workload's BENCHMARK.json entry is one line: {"name": ..., "why": ...}.
workloads=$(sed -n 's/^ *{"name": "\([^"]*\)", "why".*/\1/p' BENCHMARK.json)
if [ -z "$workloads" ]; then
	echo "abgate: no workloads in BENCHMARK.json" >&2
	exit 2
fi

out=.bench_build/abgate
rm -rf "$out"
mkdir -p "$out/base" "$out/head"
tmp=$(mktemp -d)
trap 'git worktree remove --force "$tmp/base" || true; rm -rf "$tmp"; git worktree prune' EXIT
git worktree add --detach "$tmp/base" "$1" >&2

# run <side> <workload> <result file> <trace>: keeps the run's last line
# of standard output, even when the run fails, so benchdiff sees it.
run() {
	local root=$PWD
	[ "$1" = head ] || root=$tmp/base
	bash "$root/bench/run.sh" -workload "$2" -seed 1 -seconds "$RUN_SECONDS" -trace "$4" \
		2>>"$out/$1/bench.log" | tail -n 1 >"$out/$1/$3" || true
}

for w in $workloads; do
	for i in $(seq 1 "$PAIRS"); do
		first=base second=head
		if [ $((i % 2)) -eq 0 ]; then
			first=head second=base
		fi
		echo "abgate: $w pair $i/$PAIRS, $first first" >&2
		run "$first" "$w" "$w.$i.json" 0
		run "$second" "$w" "$w.$i.json" 0
	done
	echo "abgate: $w traced runs" >&2
	run base "$w" "$w.trace.json" 1
	run head "$w" "$w.trace.json" 1
done

status=0
go run ./cmd/benchdiff "$out/base" "$out/head" | tee "$out/table.md" || status=$?
echo "abgate: ${SECONDS}s" >&2
exit "$status"
