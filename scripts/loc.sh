#!/usr/bin/env bash
# loc.sh — print the non-test Go line count of each package and of the
# module: `wc -l` over every non-test .go file outside testdata/ and
# dorabench/ (its own module), grouped by directory, then the total.
#
#   scripts/loc.sh [dir]    # dir defaults to the repository root
#
# Run it in a checkout of each commit to get a change's per-package
# delta; ROADMAP tracks these numbers as a metric.
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"
find . \( -name .git -o -name .bench_build -o -name dorabench -o -name testdata \) -prune -o \
  -type f -name '*.go' ! -name '*_test.go' -print0 |
  xargs -0 wc -l |
  awk '$2 != "total" {
         d = $2; sub(/\/[^\/]*$/, "", d); sub(/^\.\/?/, "", d)
         if (d == "") d = "."
         n[d] += $1; t += $1
       }
       END {
         for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"
         close("sort -k2")
         printf "%7d  total\n", t
       }'
