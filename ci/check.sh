#!/usr/bin/env bash
# Full correctness gate, five stages:
#   1. normal build + complete test suite: the unit tests, the lint, and
#      the examples that check their scenario's contracts (fault matrix,
#      fleet scale, ingest service, diagonal scaling) plus the
#      decision-trace exports and their schema checker
#   2. ThreadSanitizer build, concurrency-sensitive tests: the fault retry
#      path, the fleet (host-mode fleet included) and ingest suites, and
#      their example contracts
#   3. AddressSanitizer + UndefinedBehaviorSanitizer build, complete test
#      suite, examples included
#   4. clang-tidy over src/ (skipped with a notice when not installed)
#   5. custom invariant lint (tools/lint/dbscale_lint.py + its self-test)
# Any finding in any stage exits non-zero.
#
# Usage: ci/check.sh [build-dir-prefix]   (default: build)

set -euo pipefail
cd "$(dirname "$0")/.."

PREFIX="${1:-build}"
JOBS="$(nproc)"

echo "=== [1/5] normal build + full test suite ==="
cmake -B "${PREFIX}" -S . >/dev/null
cmake --build "${PREFIX}" -j "${JOBS}"
ctest --test-dir "${PREFIX}" --output-on-failure -j "${JOBS}"

echo
echo "=== [2/5] ThreadSanitizer build (concurrency tests) ==="
# Benchmarks are skipped under the sanitizers: no test runs them. The
# examples are built, because their contract checks are ctest cases.
cmake -B "${PREFIX}-tsan" -S . \
  -DSANITIZE=thread \
  -DDBSCALE_BUILD_BENCHMARKS=OFF \
  -DDBSCALE_BUILD_EXAMPLES=ON >/dev/null
cmake --build "${PREFIX}-tsan" -j "${JOBS}"
ctest --test-dir "${PREFIX}-tsan" --output-on-failure -j "${JOBS}" \
  -R 'ThreadPool|Fault|Fleet|Comparison|Experiment|Ingest|example_(faulty_resize|fleet_scale|ingest_daemon)'

echo
echo "=== [3/5] AddressSanitizer + UBSan build (full test suite) ==="
# ASan aborts on its first report, and -fno-sanitize-recover (set by CMake
# for SANITIZE=address,undefined) turns every UB diagnostic into a test
# failure, so a green run means zero reports of either kind.
cmake -B "${PREFIX}-asan-ubsan" -S . \
  -DSANITIZE=address,undefined \
  -DDBSCALE_BUILD_BENCHMARKS=OFF \
  -DDBSCALE_BUILD_EXAMPLES=ON >/dev/null
cmake --build "${PREFIX}-asan-ubsan" -j "${JOBS}"
ctest --test-dir "${PREFIX}-asan-ubsan" --output-on-failure -j "${JOBS}"

echo
echo "=== [4/5] clang-tidy (checks from .clang-tidy) ==="
TIDY=""
for cand in clang-tidy clang-tidy-18 clang-tidy-17 clang-tidy-16 \
            clang-tidy-15 clang-tidy-14; do
  if command -v "${cand}" >/dev/null 2>&1; then TIDY="${cand}"; break; fi
done
if [[ -n "${TIDY}" ]]; then
  # compile_commands.json is exported by the stage-1 configure.
  mapfile -t TIDY_SRCS < <(find src -name '*.cc' | sort)
  "${TIDY}" -p "${PREFIX}" --warnings-as-errors='*' --quiet "${TIDY_SRCS[@]}"
else
  echo "clang-tidy not on PATH: stage skipped (install clang-tidy to run it)"
fi

echo
echo "=== [5/5] custom invariant lint ==="
ci/lint.sh

echo
echo "All checks passed."
