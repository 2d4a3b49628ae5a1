#!/usr/bin/env bash
# bench_ab.sh — A/B the repository benchmark (dorabench) between two
# commits and write one JSON row per workload and gated metric.
#
#   scripts/bench_ab.sh [-k pairs] [-S seed] [-b base] [-c change]
#                       [-o out.json] [workload ...]
#
# Defaults: 10 pairs, seed 1, base HEAD~1, change HEAD, every workload
# in BENCHMARK.json, output BENCH_AB.json at the repo root. Each run
# lasts BENCHMARK.json's run_seconds. Example:
#
#   scripts/bench_ab.sh -k 10 -o BENCH_KERNEL.json campaign-exact
#
# Both sides are the committed files of their commit, exported with
# `git archive` into .bench_build/ab/{base,change}/ (an export registers
# nothing in .git, so an interrupted run leaves nothing to prune). Each
# side builds itself with its own dorabench/run.sh. For every workload,
# pair i runs `bash dorabench/run.sh --workload <w> --seed <seed>
# --seconds <run_seconds> --trace 0` once on each side, base first on odd pairs
# and change first on even ones, so drift on a shared host lands on both
# sides alike.
#
# The gated metrics and their direction come from BENCHMARK.json's
# end_to_end list. For each one the row gives both sides' median and
# interquartile range (quartiles by linear interpolation), the ratio of
# the medians (change/base), and how many pairs the change won — the
# numbers a claimed gain must show: wins in at least nine tenths of the
# pairs, and a median gap wider than the base's IQR. Failed and
# attempted operation counts are summed per side. Raw run outputs stay
# under .bench_build/ab/runs/. Nothing under dorabench/ and nothing in
# BENCHMARK.json is changed.
set -euo pipefail
cd "$(dirname "$0")/.."
root="$(pwd)"

k=10 seed=1 base=HEAD~1 change=HEAD out=BENCH_AB.json
seconds="$(jq -e .run_seconds BENCHMARK.json)"
while getopts "k:S:b:c:o:" opt; do
	case "${opt}" in
	k) k="${OPTARG}" ;;
	S) seed="${OPTARG}" ;;
	b) base="${OPTARG}" ;;
	c) change="${OPTARG}" ;;
	o) out="${OPTARG}" ;;
	*) sed -n '2,12p' "$0" >&2; exit 2 ;;
	esac
done
shift $((OPTIND - 1))
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
	mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)
fi

ab="${root}/.bench_build/ab"
declare -A rev
rev[base]="$(git rev-parse --verify "${base}^{commit}")"
rev[change]="$(git rev-parse --verify "${change}^{commit}")"
for side in base change; do
	rm -rf "${ab:?}/${side}"
	mkdir -p "${ab}/${side}"
	git archive "${rev[${side}]}" | tar -x -C "${ab}/${side}"
done
runs="${ab}/runs"
rm -rf "${runs}"
mkdir -p "${runs}"

# samples.tsv: workload side pair metric value, one line per number.
samples="${runs}/samples.tsv"
: >"${samples}"
run_one() { # workload side pair
	local log="${runs}/$1-$2-$3.out"
	(cd "${ab}/$2" && bash dorabench/run.sh --workload "$1" --seed "${seed}" \
		--seconds "${seconds}" --trace 0) >"${log}" 2>"${log}.err" ||
		echo "$1 pair $3 $2: exit $?, see ${log}.err" >&2
	# A run that died leaves no result line; its pair then counts as a
	# tie, and the A/B goes on.
	if ! tail -n 1 "${log}" | jq -ne 'input | .metrics | type == "object"' >/dev/null 2>&1; then
		echo "$1 pair $3 $2: no result line in ${log}" >&2
		return 0
	fi
	tail -n 1 "${log}" | jq -r --arg w "$1" --arg s "$2" --arg p "$3" '
		(.metrics | to_entries[] | [$w, $s, $p, .key, .value.value]),
		[$w, $s, $p, "failed", .failed], [$w, $s, $p, "attempted", .attempted]
		| @tsv' >>"${samples}"
	echo "$1 pair $3 $2: $(tail -n 1 "${log}" | jq -c '[.correct, .metrics.cpu_ms_per_op.value]')" >&2
}
for w in "${workloads[@]}"; do
	for ((i = 1; i <= k; i++)); do
		if ((i % 2 == 1)); then
			run_one "${w}" base "${i}"
			run_one "${w}" change "${i}"
		else
			run_one "${w}" change "${i}"
			run_one "${w}" base "${i}"
		fi
	done
done

# gated.tsv: metric unit better, from BENCHMARK.json.
jq -r '.end_to_end[] | [.name, .unit, .better] | @tsv' BENCHMARK.json >"${runs}/gated.tsv"

rows="$(awk -F '\t' -v k="${k}" '
	function quantile(a, n, p,   h, lo) {
		h = (n - 1) * p; lo = int(h)
		return lo + 1 < n ? a[lo] + (h - lo) * (a[lo + 1] - a[lo]) : a[lo]
	}
	function sorted(key, a,   n, i, j, t) {
		n = cnt[key]
		for (i = 0; i < n; i++) a[i] = val[key, i]
		for (i = 1; i < n; i++)
			for (j = i; j > 0 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
		return n
	}
	FNR == NR { unit[$1] = $2; better[$1] = $3; next }
	{
		key = $1 SUBSEP $4 SUBSEP $2
		val[key, cnt[key]++] = $5
		byPair[$1, $4, $2, $3] = $5
		seen[$1 SUBSEP $4] = 1
		sum[key] += $5
	}
	END {
		for (wm in seen) {
			split(wm, f, SUBSEP); w = f[1]; m = f[2]
			if (!(m in better)) continue # failed, attempted
			nb = sorted(w SUBSEP m SUBSEP "base", b)
			nc = sorted(w SUBSEP m SUBSEP "change", c)
			wins = 0; ties = 0
			for (p = 1; p <= k; p++) {
				if (!((w, m, "base", p) in byPair) || !((w, m, "change", p) in byPair)) { ties++; continue }
				x = byPair[w, m, "base", p]; y = byPair[w, m, "change", p]
				if (x == y) ties++
				else if ((better[m] == "lower") == (y < x)) wins++
			}
			mb = quantile(b, nb, 0.5); mc = quantile(c, nc, 0.5)
			printf "{\"workload\":\"%s\",\"metric\":\"%s\",\"unit\":\"%s\",\"better\":\"%s\",", w, m, unit[m], better[m]
			printf "\"pairs\":%d,\"change_wins\":%d,\"ties\":%d,", k, wins, ties
			printf "\"base\":{\"median\":%.6g,\"q1\":%.6g,\"q3\":%.6g,\"iqr\":%.6g,\"failed\":%d,\"attempted\":%d},",
				mb, quantile(b, nb, 0.25), quantile(b, nb, 0.75), quantile(b, nb, 0.75) - quantile(b, nb, 0.25),
				sum[w SUBSEP "failed" SUBSEP "base"], sum[w SUBSEP "attempted" SUBSEP "base"]
			printf "\"change\":{\"median\":%.6g,\"q1\":%.6g,\"q3\":%.6g,\"iqr\":%.6g,\"failed\":%d,\"attempted\":%d},",
				mc, quantile(c, nc, 0.25), quantile(c, nc, 0.75), quantile(c, nc, 0.75) - quantile(c, nc, 0.25),
				sum[w SUBSEP "failed" SUBSEP "change"], sum[w SUBSEP "attempted" SUBSEP "change"]
			printf "\"ratio\":%.4f}\n", mb != 0 ? mc / mb : 0
		}
	}' "${runs}/gated.tsv" "${samples}")"

cpu="$(awk -F ': ' '/^model name/ { print $2; exit }' /proc/cpuinfo 2>/dev/null || true)"
jq -n --argjson rows "$(printf '%s\n' "${rows}" | jq -s 'sort_by(.workload, .metric)')" \
	--arg base "${rev[base]}" --arg change "${rev[change]}" \
	--arg machine "$(uname -sm), ${cpu:-unknown CPU}, $(nproc) CPUs" \
	--arg go "$(go version | awk '{ print $3 }')" \
	--argjson gomaxprocs "${GOMAXPROCS:-$(nproc)}" \
	--argjson k "${k}" --argjson seconds "${seconds}" --argjson seed "${seed}" \
	'{command: "bash dorabench/run.sh --workload <w> --seed \($seed) --seconds \($seconds) --trace 0",
	  base: $base, change: $change, machine: $machine, go: $go, gomaxprocs: $gomaxprocs,
	  k: $k, seconds: $seconds, seed: $seed, order: "base first on odd pairs, change first on even",
	  rows: $rows}' >"${out}"
echo "wrote ${out}" >&2
