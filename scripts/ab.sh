#!/usr/bin/env bash
# Alternated pairs of the repo benchmark: a base revision against this
# checkout, the method every PERF and SIMPL entry of EXPERIMENTS.md uses.
#
#   scripts/ab.sh REV WORKLOAD PAIRS [SECONDS] [FIRST_SEED]
#
# The base is REV's committed files, exported with `git archive` into a
# fresh `mktemp -d` directory that is removed on exit; the change is this
# checkout as it stands, uncommitted edits included. Pair i runs seed
# FIRST_SEED+i-1 (default 101) on both sides, each as
#
#   bash benchmark/run.sh --workload WORKLOAD --seed S --seconds SECONDS --trace 0
#
# with SECONDS 15 by default. The base runs first in odd pairs and the
# change in even ones. Each side builds into its own .bench_build/, so
# the base's first build starts from a cold cache.
#
# It prints one line per run with the four end-to-end metrics, followed
# by any WARNING line the harness logged for that run (a host that
# drifted while it ran, say). Then, per metric: each side's median
# [first quartile, third quartile], change ÷ base of the medians, the
# pairs the change won, whether the change's median is better than the
# base's by more than the base's interquartile distance, and each side's
# interquartile distance as a share of the metric's bound applied to the
# base's median (bound × base median, the distance BENCHMARK.json
# allows). The quartiles are Python's statistics.quantiles(xs, n=4),
# the "exclusive" method, as benchmark/stats.go's quartiles computes
# them; the median is their middle value. "Better" and the bound are
# read from BENCHMARK.json. A run that exits non-zero or whose result
# line is not "correct" stops the script with that run's output.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 5 ]; then
	echo "usage: $0 REV WORKLOAD PAIRS [SECONDS] [FIRST_SEED]" >&2
	exit 2
fi
rev=$1 workload=$2 pairs=$3 seconds=${4:-15} first=${5:-101}
for n in "$pairs" "$seconds" "$first"; do
	case $n in '' | *[!0-9]*)
		echo "ab.sh: PAIRS, SECONDS and FIRST_SEED must be whole numbers" >&2
		exit 2 ;;
	esac
done
((pairs > 0)) || { echo "ab.sh: PAIRS must be at least 1" >&2; exit 2; }
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
commit=$(git -C "$root" rev-parse --verify --quiet "$rev^{commit}") ||
	{ echo "ab.sh: $rev names no commit" >&2; exit 2; }

# name, "better" and bound of each end-to-end metric, one metric a line
metrics=$(awk '
	/"end_to_end"/ { in_e2e = 1; next }
	in_e2e && /^[[:space:]]*\]/ { exit }
	in_e2e && /"(name|better|bound)"/ {
		key = $0; sub(/^[^"]*"/, "", key); sub(/".*/, "", key)
		v = $0; sub(/^[^:]*:[[:space:]]*/, "", v); sub(/,?[[:space:]]*$/, "", v); gsub(/"/, "", v)
		m[key] = v
	}
	in_e2e && /^[[:space:]]*}/ && ("name" in m) && ("better" in m) && ("bound" in m) {
		print m["name"], m["better"], m["bound"]; delete m
	}
' "$root/BENCHMARK.json")
[ -n "$metrics" ] || { echo "ab.sh: no end_to_end metrics in BENCHMARK.json" >&2; exit 1; }

tmp=$(mktemp -d)
child=
trap '[ -z "$child" ] || kill "$child" 2>/dev/null; rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git -C "$root" archive --format=tar "$commit" | tar -x -C "$tmp/base"
echo "base $rev = ${commit:0:12} in $tmp/base; change = $root" >&2

# run SIDE DIR PAIR SEED appends "SIDE PAIR METRIC VALUE" lines to
# $tmp/results and prints the run's line. The benchmark runs as a
# background child, so that the exit trap can stop it.
run() {
	local side=$1 dir=$2 pair=$3 seed=$4 line row name better value
	(cd "$dir" && exec bash benchmark/run.sh --workload "$workload" \
		--seed "$seed" --seconds "$seconds" --trace 0) >"$tmp/run.out" 2>&1 &
	child=$!
	if ! wait "$child"; then
		child=
		cat "$tmp/run.out" >&2
		echo "ab.sh: the $side run of pair $pair (seed $seed) failed" >&2
		exit 1
	fi
	child=
	line=$(tail -n 1 "$tmp/run.out")
	case $line in
	'{"correct":true,'*'"failed":0,'*) ;;
	*)
		cat "$tmp/run.out" >&2
		echo "ab.sh: the $side run of pair $pair (seed $seed) is not correct" >&2
		exit 1 ;;
	esac
	row=$(printf 'pair %2d seed %s %-6s' "$pair" "$seed" "$side")
	while read -r name better bound; do
		value=$(printf '%s' "$line" | grep -o "\"$name\":{\"value\":[^,}]*" | sed 's/.*://')
		[ -n "$value" ] || { echo "ab.sh: $side run of pair $pair reports no $name" >&2; exit 1; }
		echo "$side $pair $name $value" >>"$tmp/results"
		row+=$(printf '  %s %s' "$name" "$value")
	done <<<"$metrics"
	echo "$row"
	grep 'WARNING:' "$tmp/run.out" | sed 's/^[[:space:]]*/    /' || true
}

echo "scripts/ab.sh $rev $workload $pairs $seconds $first"
for ((p = 1; p <= pairs; p++)); do
	seed=$((first + p - 1))
	if ((p % 2)); then
		run base "$tmp/base" "$p" "$seed"
		run change "$root" "$p" "$seed"
	else
		run change "$root" "$p" "$seed"
		run base "$tmp/base" "$p" "$seed"
	fi
done

echo
printf '%s\n' "$metrics" | awk -v pairs="$pairs" -v results="$tmp/results" '
	function sort(a, n,    i, j, x) {
		for (i = 2; i <= n; i++) {
			x = a[i]
			for (j = i - 1; j >= 1 && a[j] > x; j--) a[j + 1] = a[j]
			a[j + 1] = x
		}
	}
	# quartile returns the i-th of the three quartiles of the sorted
	# a[1..n] by the exclusive method, as benchmark/stats.go does.
	function quartile(a, n, i,    m, j, d) {
		if (n < 2) return a[1]
		m = n + 1; j = int(i * m / 4)
		if (j < 1) j = 1
		if (j > n - 1) j = n - 1
		d = i * m - j * 4
		return (a[j] * (4 - d) + a[j + 1] * d) / 4
	}
	function summary(a) {
		return sprintf("%.6g [%.6g, %.6g]", quartile(a, pairs, 2), quartile(a, pairs, 1), quartile(a, pairs, 3))
	}
	BEGIN {
		while ((getline l < results) > 0) { split(l, f, " "); v[f[1], f[2], f[3]] = f[4] + 0 }
		printf "%-14s %-6s %-36s %-36s %-12s %-10s %-21s %s\n", "metric", "better", "base median [Q1, Q3]",
			"change median [Q1, Q3]", "change/base", "pairs won", "better by > base IQR",
			"IQR / (bound x base median), base change"
	}
	{
		name = $1; better = $2; bound = $3; won = 0
		for (p = 1; p <= pairs; p++) {
			b[p] = v["base", p, name]; c[p] = v["change", p, name]
			if ((better == "lower" && c[p] < b[p]) || (better == "higher" && c[p] > b[p])) won++
		}
		sort(b, pairs); sort(c, pairs)
		mb = quartile(b, pairs, 2); mc = quartile(c, pairs, 2)
		iqrb = quartile(b, pairs, 3) - quartile(b, pairs, 1)
		iqrc = quartile(c, pairs, 3) - quartile(c, pairs, 1)
		gain = better == "lower" ? mb - mc : mc - mb
		allowed = bound * (mb < 0 ? -mb : mb)
		printf "%-14s %-6s %-36s %-36s %-12.4f %-10s %-21s %s\n", name, better, summary(b), summary(c),
			(mb ? mc / mb : 0), won "/" pairs, (gain > iqrb ? "yes" : "no"),
			(allowed ? sprintf("%.0f%% %.0f%%", 100 * iqrb / allowed, 100 * iqrc / allowed) : "-")
	}'
