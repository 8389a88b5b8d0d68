#!/usr/bin/env bash
# ci_names.sh — fail when a `go test -run '…'` in the CI workflow names a
# test that its own step does not run. `go test -run` with a pattern that
# matches nothing passes silently, so a renamed or deleted test — or one
# moved to a package the step does not list — would leave a CI step that runs
# nothing. Each top-level alternative of a -run pattern (split on `|` outside
# parentheses; the part before any `/` — for a subtest pattern, its parent
# test) must match the name of some `func TestX`, `func BenchmarkX` or
# `func FuzzX` in the packages that same `go test` command lists (`./dir`,
# or `./dir/...` for the tree under it), as go test would match it; and each
# listed package must hold a function some alternative matches, so a step
# builds no package it runs nothing in. `-run '^$'` (run nothing, on
# purpose) is exempt. scripts/lint.sh and CI's lint job both run this.
#
# Usage: scripts/ci_names.sh [workflow.yml]   (default .github/workflows/ci.yml)
set -euo pipefail
workflow=$(realpath "${1:-$(dirname "$0")/../.github/workflows/ci.yml}")
cd "$(dirname "$0")/.."

# test_funcs PKG...: the Test, Benchmark and Fuzz functions of the listed
# packages.
test_funcs() {
  local pkg depth
  for pkg in "$@"; do
    depth=(-maxdepth 1)
    if [[ $pkg == */... ]]; then
      pkg=${pkg%/...} depth=()
    fi
    [ -d "$pkg" ] || { echo "$workflow: go test lists $pkg, which is not a directory" >&2; return 1; }
    find "$pkg" "${depth[@]}" -name '*_test.go' -print0 |
      xargs -0 -r grep -hoE '^func (Test|Benchmark|Fuzz)[A-Za-z0-9_]*' | sed 's/^func //'
  done | sort -u
}

# alternatives PATTERN: its top-level alternatives, subtest parts cut off.
alternatives() {
  awk '{
    depth = 0; cur = ""
    for (i = 1; i <= length($0); i++) {
      c = substr($0, i, 1)
      if (c == "(") depth++
      if (c == ")") depth--
      if (c == "|" && depth == 0) { print cur; cur = "" } else cur = cur c
    }
    print cur
  }' <<<"$1" | sed 's,/.*,,' | sort -u
}

missing=0
steps=0
while IFS= read -r line; do
  pattern=$(grep -oE -- "-run '[^']*'" <<<"$line" | sed "s/^-run '//; s/'\$//")
  [ "$pattern" = '^$' ] && continue
  steps=$((steps + 1))
  read -ra pkgs <<<"$(sed "s/-run '[^']*'//" <<<"$line" | grep -oE '(^| )\./[^ ]*' | tr -d ' ' | tr '\n' ' ')"
  if [ "${#pkgs[@]}" -eq 0 ]; then
    echo "$workflow: a go test -run '$pattern' lists no ./ package" >&2
    missing=1
    continue
  fi
  funcs=$(test_funcs "${pkgs[@]}") || { missing=1; continue; }
  names=$(alternatives "$pattern")
  for name in $names; do
    if ! grep -qE -- "$name" <<<"$funcs"; then
      echo "$workflow: -run name $name matches no test, benchmark or fuzz function in ${pkgs[*]}" >&2
      missing=1
    fi
  done
  for pkg in "${pkgs[@]}"; do
    own=$(test_funcs "$pkg") || continue
    if ! grep -qE -- "$(paste -sd'|' <<<"$names")" <<<"$own"; then
      echo "$workflow: go test -run '$pattern' lists $pkg, where it matches no function" >&2
      missing=1
    fi
  done
done < <(grep -E -- "go test .*-run '" "$workflow")
[ "$missing" -eq 0 ] && echo "every -run name in $workflow matches a test of its step's packages ($steps steps)"
exit "$missing"
