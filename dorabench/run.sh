#!/usr/bin/env bash
# run.sh builds the benchmark from source and runs it from the root of
# the checkout:
#
#   bash dorabench/run.sh --workload campaign-exact --seed 1 --seconds 15 --trace 0
#   bash dorabench/run.sh --workload all --seed 1 --seconds 15 --trace 0
#
# "all" runs every workload, each in its own process. Build outputs,
# the Go build cache and trace dumps stay under .bench_build/ so the
# run writes nothing outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="${root}/.bench_build"
mkdir -p "${build}"
bin="${build}/dorabench"
# HOME and XDG_CONFIG_HOME keep the go command's own files (telemetry
# counters) inside the checkout as well.
(
	export GOCACHE="${build}/gocache" GOMODCACHE="${build}/gomod" GOPATH="${build}/gopath"
	export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
	export HOME="${build}/home" XDG_CONFIG_HOME="${build}/home/.config"
	cd "${root}/dorabench" && go build -o "${bin}" .
) >&2
cd "${root}"
workload=""
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
	if [[ "${args[$i]}" == "--workload" && $((i + 1)) -lt ${#args[@]} ]]; then
		workload="${args[$((i + 1))]}"
		if [[ "${workload}" == "all" ]]; then
			for w in campaign-exact campaign-sampled serve-hot serve-fresh; do
				args[$((i + 1))]="${w}"
				"${bin}" "${args[@]}"
			done
			exit 0
		fi
	fi
done
exec "${bin}" "$@"
