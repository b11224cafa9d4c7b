#!/usr/bin/env bash
# Full correctness gate, twelve stages:
#   1. normal build + complete test suite (includes dbscale_lint ctest leg)
#   2. ThreadSanitizer build, concurrency-sensitive tests (incl. the fault
#      retry path exercised by the Fleet/Fault suites)
#   3. UndefinedBehaviorSanitizer build, complete test suite
#   4. clang-tidy over src/ (skipped with a notice when not installed)
#   5. custom invariant lint (tools/lint/dbscale_lint.py + its self-test)
#   6. quick-mode perf-pipeline smoke: hot paths (static and sliding
#      Compute, observed Compute) must stay allocation-free and the fleet
#      digest identical across thread counts
#   7. observability smoke: run the decision-trace example and validate
#      every exporter's output against the stable schemas
#   8. fault-matrix smoke: null and faulty closed loops are run-twice
#      bit-identical; a null plan never fails a resize; the acceptance
#      fault profile (10% failures, 1-2 interval latency) converges with a
#      visible retry trail in the audit log, under Auto and, on the
#      flexible catalog, under Diagonal
#   9. fleet-scale smoke: 10^4-tenant streaming run is run-twice digest
#      identical, a checkpointed stop+resume matches the uninterrupted
#      digest, a corrupted checkpoint is rejected, and throughput stays
#      above a conservative tenants/sec floor
#  10. ingest smoke: the scaler-as-a-service daemon example is run-twice
#      digest identical (and identical to the direct-feed serial
#      reference), rejects nothing at nominal rate, and counts a nonzero
#      rejection total when the ring is flooded
#  11. host-placement smoke: a scale-up on a hot host becomes a billed
#      migration (downtime == D per completed migration), host-mode runs
#      are run-twice bit-identical, and a null host plan reproduces the
#      pre-host fleet digest exactly
#  12. diagonal smoke: the per-resource policy is run-twice digest
#      identical on both the fixed-rung and flexible catalogs, and on
#      skewed demand the flexible grid is strictly cheaper than Auto at
#      equal-or-better latency-goal attainment
# Any finding in any stage exits non-zero.
#
# Usage: ci/check.sh [build-dir-prefix]   (default: build)

set -euo pipefail
cd "$(dirname "$0")/.."

PREFIX="${1:-build}"
JOBS="$(nproc)"

echo "=== [1/12] normal build + full test suite ==="
cmake -B "${PREFIX}" -S . >/dev/null
cmake --build "${PREFIX}" -j "${JOBS}"
ctest --test-dir "${PREFIX}" --output-on-failure -j "${JOBS}"

echo
echo "=== [2/12] ThreadSanitizer build (concurrency tests) ==="
# Benchmarks/examples are skipped under TSan: they triple the build for no
# extra race coverage beyond what the targeted tests exercise.
cmake -B "${PREFIX}-tsan" -S . \
  -DSANITIZE=thread \
  -DDBSCALE_BUILD_BENCHMARKS=OFF \
  -DDBSCALE_BUILD_EXAMPLES=OFF >/dev/null
cmake --build "${PREFIX}-tsan" -j "${JOBS}"
ctest --test-dir "${PREFIX}-tsan" --output-on-failure -j "${JOBS}" \
  -R 'ThreadPool|Fault|Fleet|Comparison|Experiment|Ingest'

echo
echo "=== [3/12] UndefinedBehaviorSanitizer build (full test suite) ==="
# -fno-sanitize-recover (set by CMake for SANITIZE=undefined) turns every
# UB diagnostic into a test failure, so a green run means zero reports.
cmake -B "${PREFIX}-ubsan" -S . \
  -DSANITIZE=undefined \
  -DDBSCALE_BUILD_BENCHMARKS=OFF \
  -DDBSCALE_BUILD_EXAMPLES=OFF >/dev/null
cmake --build "${PREFIX}-ubsan" -j "${JOBS}"
ctest --test-dir "${PREFIX}-ubsan" --output-on-failure -j "${JOBS}"

echo
echo "=== [4/12] clang-tidy (checks from .clang-tidy) ==="
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
echo "=== [5/12] custom invariant lint ==="
ci/lint.sh

echo
echo "=== [6/12] perf-pipeline smoke (quick mode) ==="
# Small workloads, large signal: any steady-state allocation on a hot path
# or any fleet digest divergence fails the gate, regardless of throughput
# numbers.
SMOKE_JSON="${PREFIX}/bench_smoke.json"
"${PREFIX}/bench/bench_perf_pipeline" --quick --out="${SMOKE_JSON}" >/dev/null
python3 - "${SMOKE_JSON}" <<'PY'
import json
import sys

with open(sys.argv[1]) as f:
    report = json.load(f)

failures = []

compute = report["telemetry_compute"]
if compute["with_scratch"]["allocs_per_call"] > 0:
    failures.append("TelemetryManager::Compute (scratch path) allocated "
                    f"{compute['with_scratch']['allocs_per_call']}/call")

for case in report["sliding_compute"]:
    if case["allocs_per_call"] != 0:
        failures.append(f"sliding Compute at W={case['window']} allocated "
                        f"{case['allocs_per_call']}/call")

digests = {run["digest"] for run in report["fleet"]["runs"]}
if len(digests) != 1:
    failures.append(f"fleet digests diverge across thread counts: "
                    f"{sorted(digests)}")
if not report["fleet"]["deterministic_across_threads"]:
    failures.append("fleet reports non-deterministic across thread counts")

obs = report["observability"]
if obs["compute"]["observed_allocs_per_call"] > 0:
    failures.append("observed Compute allocated "
                    f"{obs['compute']['observed_allocs_per_call']}/call")
if not obs["fleet"]["digest_matches"]:
    failures.append("observability changed the fleet digest")

if failures:
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    sys.exit(1)
print(f"bench smoke ok: {len(report['sliding_compute'])} sliding cases "
      "and the static/observed paths allocation-free")
print("observability overhead (quick, noisy): "
      f"compute {obs['compute']['overhead_pct']:+.2f}%, "
      f"fleet {obs['fleet']['overhead_pct']:+.2f}% (<2% full-bench target)")
PY

echo
echo "=== [7/12] observability smoke (decision trace + exporter schemas) ==="
# The quickstart example runs an instrumented closed loop and dumps all
# three exports; the schema checker then validates every artifact. Catches
# exporter format regressions that unit goldens (single metrics) miss.
OBS_DIR="${PREFIX}/obs_smoke"
mkdir -p "${OBS_DIR}"
"${PREFIX}/examples/decision_trace" "${OBS_DIR}" >/dev/null
python3 tools/obs/check_obs_output.py \
  "${OBS_DIR}/decision_trace.spans.jsonl" \
  "${OBS_DIR}/decision_trace.metrics.prom" \
  "${OBS_DIR}/decision_trace.metrics.csv"

echo
echo "=== [8/12] fault-matrix smoke (determinism + resilience) ==="
# The faulty_resize example runs the closed loop twice with a null plan,
# twice with the acceptance fault profile, and twice more with that profile
# under the Diagonal policy on the flexible catalog, then dumps digests,
# counters, and audit summaries. The checker enforces the resilience
# contract.
FAULT_JSON="${PREFIX}/fault_smoke.json"
"${PREFIX}/examples/faulty_resize" --json="${FAULT_JSON}" >/dev/null
python3 - "${FAULT_JSON}" <<'PY'
import json
import sys

with open(sys.argv[1]) as f:
    report = json.load(f)

failures = []
null_run = report["null"]
faulty = report["faulty"]
intervals = report["intervals"]

# Determinism: both planes are run-twice bit-identical.
if null_run["digest"] != null_run["digest_repeat"]:
    failures.append("null-plan run is not deterministic")
if faulty["digest"] != faulty["digest_repeat"]:
    failures.append("faulty run is not deterministic")

# A null plan behaves like the pre-fault baseline: every request applies
# immediately and nothing fails or degrades.
if null_run["resize_failures"] != 0 or null_run["degraded_windows"] != 0:
    failures.append("null plan injected faults")
if null_run["resize_attempts"] != null_run["changes"]:
    failures.append("null plan: requests != applied changes")

# The acceptance profile actually bites, and the loop still converges:
# scaling happens, and there is at most 1 direction reversal per 10
# intervals (the no-oscillation bound).
if faulty["resize_failures"] == 0:
    failures.append("fault profile produced no resize failures")
if faulty["changes"] == 0:
    failures.append("faulty loop wedged: no container changes")
if faulty["resize_attempts"] < faulty["changes"]:
    failures.append("faulty run: fewer requests than applied changes")
if 10 * faulty["reversals"] > intervals:
    failures.append(
        f"faulty loop oscillates: {faulty['reversals']} reversals "
        f"over {intervals} intervals")

# Every failure left a retry trail in the audit log.
audit = faulty["audit"]
if audit["failed"] + audit["abandoned"] == 0:
    failures.append("no failed/abandoned records in the audit log")
if audit["max_attempt"] < 2:
    failures.append("no retry (attempt >= 2) recorded in the audit log")

# Diagonal shares the guardrails: its faulty run is deterministic and
# leaves the same retry trail.
diagonal = report["diagonal"]
if diagonal["digest"] != diagonal["digest_repeat"]:
    failures.append("diagonal faulty run is not deterministic")
if diagonal["audit"]["failed"] == 0:
    failures.append("diagonal: no failed records in the audit log")
if diagonal["audit"]["max_attempt"] < 2:
    failures.append("diagonal: no retry (attempt >= 2) in the audit log")

if failures:
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    sys.exit(1)
print(f"fault smoke ok: null and faulty digests stable, "
      f"{faulty['resize_failures']} failures retried "
      f"(deepest attempt {audit['max_attempt']}), "
      f"{faulty['reversals']} reversals over {intervals} intervals; "
      f"diagonal {diagonal['resize_failures']} failures retried "
      f"(deepest attempt {diagonal['audit']['max_attempt']})")
PY

echo
echo "=== [9/12] fleet-scale smoke (SoA runner determinism + checkpoints) ==="
# The fleet_scale example runs a 10^4-tenant day twice, round-trips a
# checkpoint at a different thread count, and corrupts the checkpoint.
FLEET_JSON="${PREFIX}/fleet_scale_smoke.json"
"${PREFIX}/examples/fleet_scale" --json="${FLEET_JSON}" >/dev/null
python3 - "${FLEET_JSON}" <<'PY'
import json
import sys

with open(sys.argv[1]) as f:
    report = json.load(f)

failures = []
if report["digest_a"] != report["digest_b"]:
    failures.append("fleet-scale run is not run-twice deterministic")
if report["digest_resumed"] != report["digest_a"]:
    failures.append("checkpoint resume diverged from the uninterrupted run")
if not report["corrupt_rejected"]:
    failures.append("corrupted checkpoint was not rejected")
# Conservative floor: the single-core container does ~5k tenants/sec on
# this workload; 300/sec catches order-of-magnitude regressions without
# flaking on slow CI machines.
if report["tenants_per_sec"] < 300:
    failures.append(
        f"fleet-scale throughput collapsed: {report['tenants_per_sec']}/s")
if report["hourly_records"] != 10000 * 288 // 12:
    failures.append("unexpected hourly record count")

if failures:
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    sys.exit(1)
print(f"fleet-scale smoke ok: digest {report['digest_a']} stable across "
      f"rerun and resume, corruption rejected, "
      f"{report['tenants_per_sec']:.0f} tenants/s")
PY

echo
echo "=== [10/12] ingest smoke (scaler-as-a-service determinism + backpressure) ==="
# The ingest_daemon example runs the ring -> drain -> batched-decision
# pipeline twice plus a direct-feed serial reference, then floods a tiny
# ring. The checker enforces the service equivalence contract and the
# reject-with-counter backpressure policy.
INGEST_JSON="${PREFIX}/ingest_smoke.json"
"${PREFIX}/examples/ingest_daemon" --json="${INGEST_JSON}" >/dev/null
python3 - "${INGEST_JSON}" <<'PY'
import json
import sys

with open(sys.argv[1]) as f:
    report = json.load(f)

failures = []

# Bit-identity: run-twice, and service path == direct-feed reference.
if report["digest_a"] != report["digest_b"]:
    failures.append("ingest service run is not run-twice deterministic")
if report["digest_a"] != report["digest_direct"]:
    failures.append("ring+batch digest diverges from the direct-feed "
                    "serial reference")
if not report["digests_match"]:
    failures.append("example reports digest mismatch")

# Nominal rate: the drain cadence keeps up, nothing is rejected, and every
# sample routes to a store.
if report["nominal_rejected"] != 0:
    failures.append(f"nominal run rejected {report['nominal_rejected']} "
                    "samples (ring should never fill)")
if report["nominal_decisions"] == 0:
    failures.append("nominal run produced no decisions")
if report["nominal_routed"] == 0:
    failures.append("nominal run routed no samples")

# Overload: backpressure must be loud (counted), never silent, and the
# published/rejected split must account for every attempted push.
if report["overload_rejected"] == 0:
    failures.append("flooded ring rejected nothing")
if (report["overload_published"] + report["overload_rejected"]
        != report["overload_attempted"]):
    failures.append("overload accounting does not add up")

if failures:
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    sys.exit(1)
print(f"ingest smoke ok: digest {report['digest_a']} stable across rerun "
      f"and direct feed, {report['nominal_decisions']} decisions, "
      f"0 rejected nominal, {report['overload_rejected']} rejected "
      "under overload")
PY

echo
echo "=== [11/12] host-placement smoke (migrations + null-plan identity) ==="
# The host_placement example runs a single tenant on a hot host (its
# scale-up must become a migration), the fleet flash-crowd scenario twice,
# and a host-free fleet that must still hit the pre-host digest pin.
HOST_JSON="${PREFIX}/host_smoke.json"
"${PREFIX}/examples/host_placement" --json="${HOST_JSON}" >/dev/null
python3 - "${HOST_JSON}" <<'PY'
import json
import sys

with open(sys.argv[1]) as f:
    report = json.load(f)

failures = []
sim = report["sim"]
flt = report["fleet"]

# Determinism: host-mode runs are run-twice bit-identical, sim and fleet.
if sim["digest"] != sim["digest_repeat"]:
    failures.append("host-mode sim run is not deterministic")
if flt["digest"] != flt["digest_repeat"]:
    failures.append("host-mode fleet run is not deterministic")
if flt["host_digest"] != flt["host_digest_repeat"]:
    failures.append("host digest is not run-twice stable")

# The scenario's point: at least one scale-up became a migration, and
# downtime billed exactly D intervals per completed migration.
if sim["migrations_begun"] == 0:
    failures.append("hot-host sim produced no migration")
if sim["downtime_intervals"] != (sim["migrations_completed"]
                                 * sim["downtime_per_migration"]):
    failures.append("sim downtime billing is not exact")
if flt["migrations_begun"] == 0:
    failures.append("flash crowd produced no migrations")
if not flt["downtime_exact"]:
    failures.append("fleet downtime billing is not exact")

# Noisy neighbors are visible: the hot host throttled the tenant.
if sim["max_throttle"] <= 1.0:
    failures.append("hot host produced no interference throttle")

# A null host plan is bit-free: the pre-host fleet digest reproduces.
if not report["null_plan"]["matches_baseline"]:
    failures.append(
        f"null host plan drifted from the pre-host digest: "
        f"{report['null_plan']['digest']} != "
        f"{report['null_plan']['baseline']}")

if failures:
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    sys.exit(1)
print(f"host smoke ok: sim migration billed exactly, fleet "
      f"{flt['migrations_completed']} migrations / "
      f"{flt['downtime_intervals']} downtime intervals, digests stable, "
      f"null plan matches the pre-host pin")
PY

echo
echo "=== [12/12] diagonal smoke (catalog equivalence + per-dimension savings) ==="
# The diagonal_scaling example runs the per-resource policy twice against
# the fixed-rung ladder and twice against the flexible per-dimension
# catalog. The checker enforces determinism and the headline claim: on
# skewed demand the flexible grid is cheaper than Auto without giving up
# latency-goal attainment.
DIAG_JSON="${PREFIX}/diag_smoke.json"
"${PREFIX}/examples/diagonal_scaling" --json="${DIAG_JSON}" >/dev/null
python3 - "${DIAG_JSON}" <<'PY'
import json
import sys

with open(sys.argv[1]) as f:
    report = json.load(f)

failures = []
for key in ("auto_fixed", "diagonal_fixed", "diagonal_flexible"):
    run = report[key]
    if run["digest"] != run["digest_repeat"]:
        failures.append(f"{key} run is not run-twice deterministic")

flexible = report["diagonal_flexible"]
auto_fixed = report["auto_fixed"]
if not report["flexible_cheaper_than_auto"]:
    failures.append("flexible-catalog diagonal run is not cheaper than Auto")
if flexible["cost"] >= auto_fixed["cost"]:
    failures.append(
        f"diagonal cost {flexible['cost']} not below Auto {auto_fixed['cost']}")
if flexible["attainment"] < auto_fixed["attainment"]:
    failures.append(
        f"diagonal attainment {flexible['attainment']} fell below "
        f"Auto {auto_fixed['attainment']}")

if failures:
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    sys.exit(1)
print(f"diagonal smoke ok: digests stable on both catalogs, flexible grid "
      f"{100.0 * (1.0 - flexible['cost'] / auto_fixed['cost']):.0f}% cheaper "
      f"than Auto at {100.0 * flexible['attainment']:.1f}% attainment "
      f"(Auto {100.0 * auto_fixed['attainment']:.1f}%)")
PY

echo
echo "All checks passed."
