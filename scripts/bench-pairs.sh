#!/usr/bin/env bash
# Paired end-to-end runs: a parent revision against the working tree.
#
#   PARENT=<rev> PAIRS=10 SEED=12 [WORKLOAD=name] [SCALE=full|tiny] bash scripts/bench-pairs.sh
#
# Checks PARENT out under .bench_build/pairs/parent (git archive: a plain
# copy of the committed files, nothing registered in .git), then runs
# benchmark/run.sh from each checkout PAIRS times — each side builds its
# own benchmark from its own source — alternating which side goes first
# (on a shared host the second run of a pair reads slower, whichever
# binary it is). Prints every run made, then per workload × end-to-end
# metric of BENCHMARK.json the medians, quartiles and pairs won, as the
# markdown table EXPERIMENTS.md records. Exits 1 if any run failed an
# operation. Needs jq.
set -euo pipefail

root="$(git rev-parse --show-toplevel)"
cd "$root"
: "${PARENT:?set PARENT=<rev> (the revision the working tree is measured against)}"
PAIRS="${PAIRS:-10}" SEED="${SEED:-12}" WORKLOAD="${WORKLOAD:-}" SCALE="${SCALE:-full}"
seconds="$(jq -r .run_seconds BENCHMARK.json)"

work="$root/.bench_build/pairs"
rm -rf "$work"
mkdir -p "$work/parent" "$work/runs"
rev="$(git rev-parse --short "$PARENT^{commit}")"
git archive "$rev" | tar -x -C "$work/parent"

args=(--seed "$SEED" --seconds "$seconds" --scale "$SCALE" --trace 0)
[ -n "$WORKLOAD" ] && args+=(--workload "$WORKLOAD")

# run <side> <dir> <pair>: one benchmark run, its result set kept as JSON.
run() {
	local out="$work/runs/$3.$1.json"
	if ! (cd "$2" && bash benchmark/run.sh "${args[@]}" -out "$out") >"$work/runs/$3.$1.log" 2>&1; then
		# Exit status 1 is "ran, but an operation failed": the table reports it.
		[ -s "$out" ] || { tail -n 20 "$work/runs/$3.$1.log" >&2; exit 2; }
	fi
}

echo "parent $rev vs working tree: $PAIRS pairs, seed $SEED, scale $SCALE, ${seconds}s per workload${WORKLOAD:+, workload $WORKLOAD}" >&2
for ((p = 1; p <= PAIRS; p++)); do
	if ((p % 2)); then
		run parent "$work/parent" "$p"
		run change "$root" "$p"
	else
		run change "$root" "$p"
		run parent "$work/parent" "$p"
	fi
	echo "pair $p/$PAIRS done" >&2
done

# One line per (pair, side, workload, metric): value, then failed operations.
for ((p = 1; p <= PAIRS; p++)); do
	for side in parent change; do
		jq -r --arg p "$p" --arg side "$side" --slurpfile b BENCHMARK.json '
			.workloads[] | . as $w | $b[0].end_to_end[]
			| [$p, $side, $w.name, .name, .better, ($w.end_to_end[.name].value | tostring), ($w.failed | tostring)]
			| join(" ")' "$work/runs/$p.$side.json"
	done
done | awk -v pairs="$PAIRS" '
	# quantile q of v[1..n] (sorted in place), linear interpolation.
	function quant(v, n, q,    i, j, t, pos, lo) {
		for (i = 2; i <= n; i++) { t = v[i]; for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]; v[j + 1] = t }
		pos = 1 + (n - 1) * q; lo = int(pos)
		return lo >= n ? v[n] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
	}
	# show: millions as "6.12 M", everything else to five significant digits.
	function show(x) { return x >= 1e6 ? sprintf("%.2f M", x / 1e6) : sprintf("%.5g", x) }
	function stats(side, key,    i, v) {
		for (i = 1; i <= pairs; i++) v[i] = val[i, side, key]
		return sprintf("%s [%s–%s]", show(quant(v, pairs, .5)), show(quant(v, pairs, .25)), show(quant(v, pairs, .75)))
	}
	function median(side, key,    i, v) {
		for (i = 1; i <= pairs; i++) v[i] = val[i, side, key]
		return quant(v, pairs, .5)
	}
	{
		key = $3 " " $4
		if (!(key in better)) { order[++nkeys] = key; better[key] = $5 }
		val[$1, $2, key] = $6
		failed += $7
	}
	END {
		print "every run made (pair: parent / change; odd pairs ran the parent first):"
		for (k = 1; k <= nkeys; k++) {
			key = order[k]; line = "  " key ":"
			for (i = 1; i <= pairs; i++) line = line sprintf(" %d: %s / %s;", i, show(val[i, "parent", key]), show(val[i, "change", key]))
			print line
		}
		print ""
		print "| workload | metric | parent median [q1–q3] | change median [q1–q3] | Δ median | change ahead in |"
		print "| --- | --- | --- | --- | --- | --- |"
		for (k = 1; k <= nkeys; k++) {
			key = order[k]; split(key, name, " "); wins = 0; ties = 0
			for (i = 1; i <= pairs; i++) {
				a = val[i, "parent", key]; b = val[i, "change", key]
				if (a == b) ties++
				else if ((better[key] == "higher") == (b > a)) wins++
			}
			pm = median("parent", key); cm = median("change", key)
			delta = pm == 0 ? "n/a" : sprintf("%+.1f %%", 100 * (cm - pm) / pm)
			ahead = ties == pairs ? "=" : sprintf("%d/%d", wins, pairs - ties)
			printf "| `%s` | `%s` | %s | %s | %s | %s |\n", name[1], name[2], stats("parent", key), stats("change", key), delta, ahead
		}
		if (failed > 0) { printf "\n%d failed operations\n", failed; exit 1 }
	}'
