#!/usr/bin/env bash
# loc.sh — the line-count ratchet for ROADMAP aim 2 ("the same behaviour
# from the least code"): print the root module's non-test Go line count and
# fail if it exceeds CEILING. A PR that removes code lowers CEILING to its
# result; no PR raises it without saying why in CHANGES.md (PR 30 did, by
# 247 lines, for the deferred tail: 166 of code, the rest comments that carry
# its soundness argument; PR 40 by 378, for the genesis base: statedb.Base
# and the reads that fall through to it, 82 of them comments). scripts/lint.sh
# and CI's lint job both run this.
#
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

CEILING=21728

lines=$(find . -name '*.go' -not -name '*_test.go' \
    -not -path './benchmark/*' -not -path './internal/analysis/testdata/*' \
    -not -path './.bench_build/*' -print0 | xargs -0 cat | wc -l)
echo "non-test Go lines in the root module: $lines (ceiling $CEILING)"
if [ "$lines" -gt "$CEILING" ]; then
  echo "line count exceeds the ceiling by $((lines - CEILING)); remove code or justify raising scripts/loc.sh's CEILING in review" >&2
  exit 1
fi
