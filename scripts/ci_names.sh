#!/usr/bin/env bash
# ci_names.sh — fail when a `go test -run '…'` in the CI workflow names a
# test that no longer exists. `go test -run` with a pattern that matches
# nothing passes silently, so a renamed or deleted test would leave a CI
# step that runs nothing. Each top-level alternative of a -run pattern (split
# on `|` outside parentheses; the part before any `/` — subtest patterns are
# not checked) must match the name of some `func TestX` or `func BenchmarkX`
# in the tree, as go test would match it. `-run '^$'` (run nothing, on
# purpose) is exempt. scripts/lint.sh and CI's lint job both run this.
#
# Usage: scripts/ci_names.sh [workflow.yml]   (default .github/workflows/ci.yml)
set -euo pipefail
workflow=$(realpath "${1:-$(dirname "$0")/../.github/workflows/ci.yml}")
cd "$(dirname "$0")/.."

funcs=$(find . -name '*_test.go' -not -path './.bench_build/*' -print0 |
  xargs -0 grep -hoE '^func (Test|Benchmark)[A-Za-z0-9_]*' | sed 's/^func //' | sort -u)

names=$(grep -oE -- "-run '[^']*'" "$workflow" | sed "s/^-run '//; s/'\$//" | awk '{
  depth = 0; cur = ""
  for (i = 1; i <= length($0); i++) {
    c = substr($0, i, 1)
    if (c == "(") depth++
    if (c == ")") depth--
    if (c == "|" && depth == 0) { print cur; cur = "" } else cur = cur c
  }
  print cur
}' | sed 's,/.*,,' | sort -u)

missing=0
for name in $names; do
  [ "$name" = '^$' ] && continue
  if ! grep -qE -- "$name" <<<"$funcs"; then
    echo "$workflow: -run name $name matches no test or benchmark function in the tree" >&2
    missing=1
  fi
done
[ "$missing" -eq 0 ] && echo "every -run name in $workflow matches a test"
exit "$missing"
