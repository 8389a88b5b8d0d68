#!/usr/bin/env bash
# lint.sh — the local mirror of CI's lint job: formatting, go vet, the
# sharpvet determinism suite (docs/determinism.md), the line-count ratchet
# (scripts/loc.sh) and the check that every `go test -run` name in CI still
# names a test (scripts/ci_names.sh). Run it before pushing;
# CI runs exactly these gates and will reject what this rejects.
#
# Usage: scripts/lint.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
  echo "gofmt needed on:" >&2
  echo "$unformatted" >&2
  exit 1
fi

echo "== go vet"
go vet ./...

echo "== sharpvet (replica-identical determinism contract)"
# -list prints the suppression inventory after a clean run so reviewers see
# every justified exception; any unsuppressed finding or inventory drift
# exits nonzero.
go run ./cmd/sharpvet -list ./...

echo "== line-count ratchet"
scripts/loc.sh

echo "== CI -run names resolve to tests"
scripts/ci_names.sh

echo "lint: all gates green"
