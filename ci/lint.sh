#!/usr/bin/env bash
# Custom invariant lint: runs the linter's own self-test (tokenizer and
# structure goldens, fixture trees), then the token-stream linter over
# src/ and tests/. The full run carries a 5-second wall budget — the
# linter is meant to be cheap enough to run on every commit, and a
# blowup is a regression.
#
# Usage: ci/lint.sh [--diff]
#   --diff  lint only files changed vs the merge-base with main
#           (plus untracked files) instead of the full tree; the
#           self-test and wall budget still apply.

set -euo pipefail
cd "$(dirname "$0")/.."

PY="${PYTHON:-python3}"
if ! command -v "${PY}" >/dev/null 2>&1; then
  echo "ci/lint.sh: ${PY} not found; cannot run dbscale_lint" >&2
  exit 1
fi

LINT_ARGS=()
MODE="src/ and tests/"
if [[ "${1:-}" == "--diff" ]]; then
  LINT_ARGS+=(--diff)
  MODE="changed files (vs merge-base with main)"
fi

echo "--- dbscale_lint self-test (tokenizer, structure, fixtures) ---"
"${PY}" tools/lint/lint_test.py

echo "--- dbscale_lint over ${MODE} ---"
BUDGET_S=5
start_ns=$(date +%s%N)
"${PY}" tools/lint/dbscale_lint.py "${LINT_ARGS[@]+"${LINT_ARGS[@]}"}"
elapsed_ms=$(( ($(date +%s%N) - start_ns) / 1000000 ))
echo "dbscale_lint wall time: ${elapsed_ms} ms (budget ${BUDGET_S}000 ms)"
if (( elapsed_ms > BUDGET_S * 1000 )); then
  echo "ci/lint.sh: lint run exceeded the ${BUDGET_S}s wall budget" >&2
  exit 1
fi
