#!/usr/bin/env bash
# CI entry point: tier-1 verify (build + ctest) plus the bench harness in
# smoke configuration, failing on a >20% wall-time regression (or >20%
# ops/sec drop) against the smoke_reference block of the committed
# BENCH_core.json. The bench gates timings only: what the tool synthesizes
# (the table2, ablation, `paper` preset and reorder goldens, thread and
# service determinism, cone-cache byte identity, oracle verdicts and the
# resilience invariants) is checked by the tier-1 tests, and
# docs/performance.md lists which test holds each contract. The timed
# sections are table2, the ablation sweep, the core BDD ops, sifting, the
# cone cache's cold path against the cache-off run, and the SAT oracle's
# total. The documentation gates (docs/cli.md against the binary's
# --help, README.md naming every preset) are tier-1 ctest cases.
#
# The sign-off stage runs the full-size paper suite through bdsmaj_cli
# and fails if the mapping certificate falls back to a global check on any
# circuit.
#
# The debug stage builds the tier-1 test targets with
# -DCMAKE_BUILD_TYPE=Debug in its own tree and runs the whole tier-1 suite
# with asserts enabled (the chaos tests run in the chaos stage).
#
# The chaos stage rebuilds the core with the deterministic fault-injection
# hooks compiled in (-DBDSMAJ_FAULT_INJECT=ON) under AddressSanitizer and
# runs the `chaos` ctest label: injected faults at the worker/cache/SAT/
# allocator sites must surface as clean job failures — never memory errors,
# stranded futures, or corrupted caches.
#
# Files the gates write (the sign-off log, the smoke bench JSON) go to a
# fresh temporary directory, so concurrent runs never share them; failure
# messages print their paths.
#
#   tools/ci.sh                        # full gate
#   BDSMAJ_CI_SKIP_BENCH=1 ...         # skip the bench gate (for shared
#                                      # runners, where times measured on
#                                      # the authoring machine mean nothing)
#   BDSMAJ_CI_SKIP_CHAOS=1 ...         # skip the fault-injection stage
#   BDSMAJ_CI_TOLERANCE=35 ...         # widen the regression tolerance (%)
#   BDSMAJ_CI_JOBS=4 ...               # build/test parallelism (default:
#                                      # nproc); matrix runners set this
#   BDSMAJ_CI_BUILD_TYPE=Debug ...     # CMAKE_BUILD_TYPE (default Release)
#   BDSMAJ_CI_CMAKE_ARGS="..." ...     # extra configure args, word-split
#                                      # (compiler/launcher/sanitizer picks)
set -euo pipefail

cd "$(dirname "$0")/.."
REPO="$PWD"
TOLERANCE="${BDSMAJ_CI_TOLERANCE:-20}"
JOBS="${BDSMAJ_CI_JOBS:-$(nproc)}"
BUILD_TYPE="${BDSMAJ_CI_BUILD_TYPE:-Release}"
read -r -a EXTRA_CMAKE_ARGS <<< "${BDSMAJ_CI_CMAKE_ARGS:-}"
TMP="$(mktemp -d "${TMPDIR:-/tmp}/bdsmaj_ci.XXXXXX")"
# Kept when a gate fails, so the files its message names can be inspected.
trap 'status=$?; if [[ $status -eq 0 ]]; then rm -rf "$TMP"; fi; exit $status' EXIT

echo "==> tier-1: configure + build (${BUILD_TYPE}, -j${JOBS})"
cmake -B build -S . -DCMAKE_BUILD_TYPE="$BUILD_TYPE" \
      ${EXTRA_CMAKE_ARGS[@]+"${EXTRA_CMAKE_ARGS[@]}"} >/dev/null
cmake --build build -j"$JOBS"

echo "==> tier-1: ctest"
(cd build && ctest --output-on-failure -j"$JOBS")

echo "==> sign-off: mapping certificate completeness (full-size paper suite)"
# The mapped netlist is proven by the local mapping certificate; an
# inconclusive certificate falls back to a second global check and still
# passes. A mapper change that breaks completeness would therefore pass
# every test while giving the sign-off time back, so every full-size
# circuit must be certified with no fallback.
SIGNOFF_LOG="$TMP/signoff_paper.log"
./build/bdsmaj_cli --preset paper @alu2 @apex6 @bigkey @dalu @f51m @misex3 @seq \
    @vda @C1355 @C6288 "@4-Op ADD 16 bit" "@CLA 64 bit" "@Div 18 bit" \
    "@MAC 16 bit" "@Rev (1/X) 19 bit" "@SQRT 32 bit" "@Wallace 16 bit" \
    > "$SIGNOFF_LOG"
SIGNOFFS=$(grep -c ' sign-off: ' "$SIGNOFF_LOG" || true)
if [[ "$SIGNOFFS" -ne 17 ]]; then
    echo "SIGN-OFF: expected 17 sign-off lines, got $SIGNOFFS (see $SIGNOFF_LOG)"
    exit 1
fi
if grep ' sign-off: ' "$SIGNOFF_LOG" | grep -v ' certificate-fallbacks=0 '; then
    echo "SIGN-OFF: the mapping certificate fell back to a global check on the"
    echo "circuits above; the mapper no longer yields a complete certificate"
    echo "(see $SIGNOFF_LOG)."
    exit 1
fi

echo "==> debug: the tier-1 suite with asserts enabled"
# Separate Debug build tree (asserts on): the tier-1 build is Release, so
# without this stage no local gate ever runs the library's asserts. Every
# tier-1 test runs; only the chaos binary is neither built nor run here
# (the chaos stage below builds it with the fault hooks compiled in), so
# its label and its not-built placeholder test are excluded.
cmake -B build-debug -S . -DCMAKE_BUILD_TYPE=Debug \
      -DBDSMAJ_BUILD_BENCH=OFF -DBDSMAJ_BUILD_EXAMPLES=OFF \
      ${EXTRA_CMAKE_ARGS[@]+"${EXTRA_CMAKE_ARGS[@]}"} >/dev/null
cmake --build build-debug -j"$JOBS" --target bdsmaj_tests bdsmaj_cli gen_exact_table
(cd build-debug && ctest -LE chaos -E '^bdsmaj_chaos_tests_NOT_BUILT$' \
                         --output-on-failure -j"$JOBS")

if [[ "${BDSMAJ_CI_SKIP_CHAOS:-0}" != "0" ]]; then
    echo "==> chaos stage skipped (BDSMAJ_CI_SKIP_CHAOS)"
else
    echo "==> chaos: fault-injection suite (BDSMAJ_FAULT_INJECT + ASan)"
    # Separate build tree: the fault hooks are compiled into the core
    # library, and the deterministic tier-1 binaries must never carry
    # them. Only the chaos binary is built; `ctest -L chaos` selects its
    # tests (they GTEST_SKIP themselves if the hooks are absent, so a
    # passing run here proves the hooks actually fired).
    cmake -B build-chaos -S . -DCMAKE_BUILD_TYPE=Release \
          -DBDSMAJ_FAULT_INJECT=ON -DBDSMAJ_SANITIZE=address \
          -DBDSMAJ_BUILD_BENCH=OFF -DBDSMAJ_BUILD_EXAMPLES=OFF \
          ${EXTRA_CMAKE_ARGS[@]+"${EXTRA_CMAKE_ARGS[@]}"} >/dev/null
    cmake --build build-chaos -j"$JOBS" --target bdsmaj_chaos_tests
    (cd build-chaos && ctest -L chaos --output-on-failure -j"$JOBS")
fi

if [[ "${BDSMAJ_CI_SKIP_BENCH:-0}" != "0" ]]; then
    echo "==> bench gate skipped (BDSMAJ_CI_SKIP_BENCH)"
    exit 0
fi

echo "==> bench: smoke run"
BENCH_JSON="$TMP/bench_smoke.json"
BDSMAJ_BENCH_SMOKE=1 ./build/bench_core "$BENCH_JSON"

echo "==> bench: compare against committed BENCH_core.json (tolerance ${TOLERANCE}%)"
python3 - "$REPO/BENCH_core.json" "$BENCH_JSON" "$TOLERANCE" <<'EOF'
import json, sys

doc = json.load(open(sys.argv[1]))
if "smoke_reference" not in doc:
    sys.exit("BENCH_core.json has no smoke_reference block — it was probably "
             "overwritten by a raw bench_core run; restore the curated file "
             "(see docs/performance.md)")
committed = doc["smoke_reference"]
fresh = json.load(open(sys.argv[2]))
tol = float(sys.argv[3]) / 100.0
failures = []

# Sub-tenth-of-a-second references are scheduler-jitter territory: a
# regression must exceed the tolerance AND an absolute floor to count.
ABS_FLOOR_S = 0.05

def check_time(name, ref, now):
    if now > ref * (1.0 + tol) and now - ref > ABS_FLOOR_S:
        failures.append(f"{name}: {now:.3f}s vs committed {ref:.3f}s (> +{tol:.0%})")

def check_rate(name, ref, now):
    if now < ref * (1.0 - tol):
        failures.append(f"{name}: {now:.0f}/s vs committed {ref:.0f}/s (< -{tol:.0%})")

check_time("table2_synthesis", committed["table2_synthesis"]["seconds"],
           fresh["table2_synthesis"]["seconds"])
check_time("ablation_mdom", committed["ablation_mdom"]["seconds"],
           fresh["ablation_mdom"]["seconds"])
for op in ("ite", "and", "xor", "maj"):
    check_rate(f"ops.{op}", committed["ops_per_sec"][op], fresh["ops_per_sec"][op])
check_rate("sift", committed["sift_nodes_per_sec"], fresh["sift_nodes_per_sec"])

# Cone memoization must not tax the cold path beyond the shared tolerance.
for c in fresh["cone_cache"]["circuits"]:
    check_time(f"cone_cache.{c['name']}.cold_vs_off",
               c["off_seconds"], c["cold_seconds"])

# Exact sign-off must stay cheap where the BDD is intractable.
check_time("oracle.sat_total", committed["oracle"]["sat_total_seconds"],
           fresh["oracle"]["sat_total_seconds"])

if failures:
    print(f"BENCH REGRESSION GATE FAILED (fresh run: {sys.argv[2]}):")
    for f in failures:
        print("  -", f)
    sys.exit(1)
print("bench gate OK")
EOF

echo "==> ci.sh: all gates passed"
