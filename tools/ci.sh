#!/usr/bin/env bash
# CI entry point: tier-1 verify (build + ctest) plus the bench harness in
# smoke configuration, failing on a >20% wall-time regression (or >20%
# ops/sec drop) against the smoke_reference block of the committed
# BENCH_core.json — and on any output-fingerprint drift, which would mean
# the synthesis results themselves changed. The smoke run also runs the
# suite through flows::run_suite at jobs = 1/2/4 (circuits in parallel)
# and fails if the jobs=4 fingerprints differ from jobs=1, and
# runs the equivalence-oracle shootout, failing on any verdict drift or a
# >tolerance SAT wall-time regression. The cone-memoization sweep fails if
# a cached run's bytes drift from the cache-off run, if the C6288 hit rate
# drops below its floor, or if the cold path regresses past the tolerance.
# The symmetry section fails if block
# sifting stops halving the swap count on the symmetric-heavy circuits,
# finds no groups there, or changes post-sift sizes; the `paper` preset
# fingerprint stays byte-identical with the feature compiled in (it is
# off on the pinned path). Documentation is gated too: docs/cli.md
# must byte-match what tools/gen_cli_docs.sh regenerates from the fresh
# binary, and every advertised preset must appear in README.md.
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
# stranded futures, or corrupted caches. The resilience bench section is
# gated on exact invariants: deadline shedding sheds every expired job,
# budget-degraded jobs still complete verified, resource-guard trips stay
# contained per cone, and arming the degradation machinery without
# triggering it changes no output byte.
#
#   tools/ci.sh                        # full gate
#   BDSMAJ_CI_SKIP_BENCH=1 ...         # skip the bench gate
#   BDSMAJ_CI_SKIP_CHAOS=1 ...         # skip the fault-injection stage
#   BDSMAJ_CI_TOLERANCE=35 ...         # widen the regression tolerance (%)
#   BDSMAJ_CI_BENCH_MODE=fingerprint   # skip wall-time/rate comparisons,
#                                      # enforce only output fingerprints —
#                                      # for shared/heterogeneous runners
#                                      # where absolute times measured on
#                                      # the authoring machine are
#                                      # meaningless
#   BDSMAJ_CI_JOBS=4 ...               # build/test parallelism (default:
#                                      # nproc); matrix runners set this
#   BDSMAJ_CI_BUILD_TYPE=Debug ...     # CMAKE_BUILD_TYPE (default Release)
#   BDSMAJ_CI_CMAKE_ARGS="..." ...     # extra configure args, word-split
#                                      # (compiler/launcher/sanitizer picks)
set -euo pipefail

cd "$(dirname "$0")/.."
REPO="$PWD"
TOLERANCE="${BDSMAJ_CI_TOLERANCE:-20}"
BENCH_MODE="${BDSMAJ_CI_BENCH_MODE:-full}"
JOBS="${BDSMAJ_CI_JOBS:-$(nproc)}"
BUILD_TYPE="${BDSMAJ_CI_BUILD_TYPE:-Release}"
read -r -a EXTRA_CMAKE_ARGS <<< "${BDSMAJ_CI_CMAKE_ARGS:-}"

echo "==> tier-1: configure + build (${BUILD_TYPE}, -j${JOBS})"
cmake -B build -S . -DCMAKE_BUILD_TYPE="$BUILD_TYPE" \
      ${EXTRA_CMAKE_ARGS[@]+"${EXTRA_CMAKE_ARGS[@]}"} >/dev/null
cmake --build build -j"$JOBS"

echo "==> tier-1: ctest"
(cd build && ctest --output-on-failure -j"$JOBS")

echo "==> docs: CLI reference drift check"
# docs/cli.md is generated from the binary's own --help/--list-presets
# output; regenerate it against the fresh build and fail on any byte
# difference — a flag added (or reworded) without re-running
# tools/gen_cli_docs.sh is documentation drift.
tools/gen_cli_docs.sh build/bdsmaj_cli /tmp/bdsmaj_cli_docs_check.md >/dev/null
if ! diff -u docs/cli.md /tmp/bdsmaj_cli_docs_check.md; then
    echo "DOC DRIFT: docs/cli.md does not match the built CLI's --help/"
    echo "--list-presets output. Run tools/gen_cli_docs.sh and commit."
    exit 1
fi

echo "==> docs: README preset coverage check"
# Every preset the binary advertises must at least be named in the
# README's preset table; a new preset that skips the README is drift too.
./build/bdsmaj_cli --list-presets | awk 'NR > 1 { print $1 }' | while read -r preset; do
    if ! grep -q -- "$preset" README.md; then
        echo "DOC DRIFT: preset \"$preset\" is missing from README.md"
        exit 1
    fi
done

echo "==> sign-off: mapping certificate completeness (full-size paper suite)"
# Under --oracle auto the mapped netlist is proven by the local mapping
# certificate; an inconclusive certificate falls back to a second global
# check and still passes. A mapper change that breaks completeness would
# therefore pass every test while giving the sign-off time back, so every
# full-size circuit must be certified with no fallback.
SIGNOFF_LOG=/tmp/bdsmaj_signoff_paper.log
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
    echo "circuits above; the mapper no longer yields a complete certificate."
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
BDSMAJ_BENCH_SMOKE=1 ./build/bench_core /tmp/bdsmaj_bench_smoke.json

echo "==> bench: compare against committed BENCH_core.json (tolerance ${TOLERANCE}%, mode ${BENCH_MODE})"
python3 - "$REPO/BENCH_core.json" /tmp/bdsmaj_bench_smoke.json "$TOLERANCE" "$BENCH_MODE" <<'EOF'
import json, sys

doc = json.load(open(sys.argv[1]))
if "smoke_reference" not in doc:
    sys.exit("BENCH_core.json has no smoke_reference block — it was probably "
             "overwritten by a raw bench_core run; restore the curated file "
             "(see docs/performance.md)")
committed = doc["smoke_reference"]
fresh = json.load(open(sys.argv[2]))
tol = float(sys.argv[3]) / 100.0
compare_times = sys.argv[4] != "fingerprint"
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

if compare_times:
    check_time("table2_synthesis", committed["table2_synthesis"]["seconds"],
               fresh["table2_synthesis"]["seconds"])
    check_time("ablation_mdom", committed["ablation_mdom"]["seconds"],
               fresh["ablation_mdom"]["seconds"])
    for op in ("ite", "and", "xor", "maj"):
        check_rate(f"ops.{op}", committed["ops_per_sec"][op], fresh["ops_per_sec"][op])
    check_rate("sift", committed["sift_nodes_per_sec"], fresh["sift_nodes_per_sec"])

for section in ("table2_synthesis", "ablation_mdom"):
    if committed[section]["fingerprint"] != fresh[section]["fingerprint"]:
        failures.append(f"{section}: output fingerprint drifted — synthesis "
                        f"results changed:\n  committed {committed[section]['fingerprint']}"
                        f"\n  fresh     {fresh[section]['fingerprint']}")

# Reordering: the interaction/lower-bound machinery must not move the
# final variable orders (post-sift node counts are the fingerprint), and
# the avoided-swap fraction on the MCNC sweep is a contract of the
# optimization, not just telemetry.
reorder = fresh.get("reorder")
if reorder is None:
    failures.append("reorder: section missing from fresh bench run")
else:
    committed_reorder = committed.get("reorder")
    if committed_reorder is None:
        failures.append("reorder: section missing from committed "
                        "smoke_reference — regenerate BENCH_core.json")
    elif committed_reorder["post_sift_nodes"] != reorder["post_sift_nodes"]:
        failures.append("reorder: post-sift node-count fingerprint drifted — "
                        "sifting now produces different variable orders:\n"
                        f"  committed {committed_reorder['post_sift_nodes']}\n"
                        f"  fresh     {reorder['post_sift_nodes']}")
    if reorder["mcnc_skipped_or_pruned_fraction"] <= 0.5:
        failures.append("reorder: <50% of attempted swaps skipped or pruned "
                        f"on the MCNC sweep "
                        f"({reorder['mcnc_skipped_or_pruned_fraction']:.1%})")
    if "dalu_dynamic_sift" not in reorder:
        failures.append("reorder: dalu dynamic-sifting entry missing — the "
                        "re-admitted circuit dropped out of the sweep")

# Symmetry-aware reordering: on the symmetric-heavy generator circuits
# the with-symmetry sift must cut the swap count at least in half (in
# practice one total group covers every variable and the count drops to
# zero — sifting a single unit has nowhere to go), it must actually find
# a group on every circuit, and both modes must land on the same
# post-sift node count: symmetry changes how the order is searched, never
# the size it reaches on totally symmetric functions. The `paper`
# byte-identity gate below is the other half of the contract — symmetry
# stays off on the pinned path.
symmetry = fresh.get("symmetry")
if symmetry is None:
    failures.append("symmetry: section missing from fresh bench run")
else:
    for c in symmetry["circuits"]:
        if c["symmetry_swaps"] * 2 > c["plain_swaps"]:
            failures.append(f"symmetry: {c['name']} swap reduction below the "
                            f"50% floor ({c['plain_swaps']} -> "
                            f"{c['symmetry_swaps']})")
        if c["groups"] < 1:
            failures.append(f"symmetry: {c['name']} — no symmetry group "
                            "detected on a totally symmetric circuit")
        if c["post_sift_nodes_plain"] != c["post_sift_nodes_symmetry"]:
            failures.append(f"symmetry: {c['name']} post-sift node counts "
                            f"diverge between modes "
                            f"({c['post_sift_nodes_plain']} vs "
                            f"{c['post_sift_nodes_symmetry']})")

# Thread-count determinism: run_suite must produce identical outputs at
# jobs = 1/2/4. The harness compares the per-level fingerprints
# itself; any mismatch (in particular jobs=4 vs jobs=1) fails the gate.
scaling = fresh.get("thread_scaling")
if scaling is None:
    failures.append("thread_scaling: section missing from fresh bench run")
elif not scaling["fingerprints_identical"]:
    failures.append("thread_scaling: output fingerprints drift across job "
                    f"counts:\n  levels {scaling['levels']}")

# Strategy presets: the `paper` preset is contractually byte-identical to
# the published ladder — its decomposed/mapped gate counts and engine-step
# fingerprint must match the committed reference exactly. Every preset
# must pass the equivalence oracle, and
# `exact-aggressive` must strictly beat `paper` on mapped gates.
presets = fresh.get("preset_sweep")
if presets is None:
    failures.append("preset_sweep: section missing from fresh bench run")
else:
    fresh_by_name = {e["preset"]: e for e in presets["entries"]}
    committed_presets = committed.get("preset_sweep")
    if committed_presets is None:
        failures.append("preset_sweep: section missing from committed "
                        "smoke_reference — regenerate BENCH_core.json")
    else:
        for e in committed_presets["entries"]:
            got = fresh_by_name.get(e["preset"])
            if got is None:
                failures.append(f"preset_sweep: preset {e['preset']} missing "
                                "from fresh run")
            elif e["preset"] == "paper" and got["fingerprint"] != e["fingerprint"]:
                failures.append("preset_sweep: `paper` fingerprint drifted — the "
                                "default pipeline no longer matches the published "
                                f"ladder:\n  committed {e['fingerprint']}"
                                f"\n  fresh     {got['fingerprint']}")
    for e in presets["entries"]:
        if e["equivalent"] != presets["circuits"]:
            failures.append(f"preset_sweep: preset {e['preset']} failed the "
                            f"equivalence oracle ({e['equivalent']}/"
                            f"{presets['circuits']})")
    paper = fresh_by_name.get("paper")
    exact = fresh_by_name.get("exact-aggressive")
    if paper and exact and not (exact["fingerprint"]["mapped_gates"]
                                < paper["fingerprint"]["mapped_gates"]):
        failures.append("preset_sweep: exact-aggressive no longer strictly "
                        f"reduces mapped gates ({exact['fingerprint']['mapped_gates']}"
                        f" vs paper {paper['fingerprint']['mapped_gates']})")

# Async service determinism: concurrent SynthesisService jobs must produce
# the same aggregate fingerprint as the serial table2 sweep, and every
# submitted job must complete.
service = fresh.get("service_throughput")
if service is None:
    failures.append("service_throughput: section missing from fresh bench run")
elif not service["matches_serial"]:
    failures.append("service_throughput: concurrent service results drifted "
                    f"from the serial run: {service['fingerprint']} "
                    f"({service['completed']}/{service['jobs']} completed)")
# Cone memoization: the cache must be invisible in the results (every
# cached run byte-identical to the cache-off run, including across service
# jobs), must actually hit on the self-similar C6288 workload, and must
# not tax the cold path beyond the shared tolerance.
cone = fresh.get("cone_cache")
if cone is None:
    failures.append("cone_cache: section missing from fresh bench run")
else:
    for c in cone["circuits"]:
        if not c["matches_cache_off"]:
            failures.append(f"cone_cache: {c['name']} cached output drifted "
                            "from the cache-off bytes")
    if not cone["service_identical"]:
        failures.append("cone_cache: warm second service job returned "
                        "different bytes than the cold first job")
    c6288 = next((c for c in cone["circuits"] if c["name"] == "C6288"), None)
    if c6288 is None:
        failures.append("cone_cache: C6288 missing from the sweep")
    elif c6288["hit_rate"] < 0.6:
        failures.append("cone_cache: C6288 cold hit rate fell below the 60% "
                        f"floor ({c6288['hit_rate']:.1%}) — canonicalization "
                        "stopped unifying the multiplier's repeated cones")
    if compare_times:
        for c in cone["circuits"]:
            check_time(f"cone_cache.{c['name']}.cold_vs_off",
                       c["off_seconds"], c["cold_seconds"])

# Resilience: every invariant is exact (no timing), so the fresh section
# gates directly without a committed reference. Shedding must be precise
# — every expired job shed, none run; budget-degraded jobs must complete
# AND verify (degradation trades quality, never correctness); the
# resource guard must trip per cone and still yield an equivalent
# network; and arming the degradation machinery without triggering it
# must leave the output byte-identical to a default run.
res = fresh.get("resilience")
if res is None:
    failures.append("resilience: section missing from fresh bench run")
else:
    if res["shed"]["deadline_exceeded"] != res["shed"]["jobs"]:
        failures.append("resilience: expired-deadline shedding not exact "
                        f"({res['shed']['deadline_exceeded']}/"
                        f"{res['shed']['jobs']} jobs shed)")
    deg = res["degraded"]
    if deg["completed"] != deg["jobs"] or deg["verified"] != deg["jobs"]:
        failures.append("resilience: budget-degraded jobs did not all "
                        f"complete verified ({deg['completed']} completed, "
                        f"{deg['verified']} verified of {deg['jobs']})")
    if deg["degraded_supernodes"] <= 0:
        failures.append("resilience: expired soft budget degraded no "
                        "supernodes — the ladder never engaged")
    if res["guard"]["resource_exhausted_cones"] <= 0:
        failures.append("resilience: the max_live_nodes ceiling never "
                        "tripped — the resource guard is dead")
    if not res["guard"]["equivalent"]:
        failures.append("resilience: guard-degraded network lost "
                        "equivalence")
    if not res["armed_but_idle_identical"]:
        failures.append("resilience: armed-but-untriggered degradation "
                        "changed the output bytes")

if fresh["table2_synthesis"]["verified"] != fresh["table2_synthesis"]["circuits"]:
    failures.append("table2_synthesis: equivalence verification failed")
if fresh["ablation_mdom"]["equivalent"] != fresh["ablation_mdom"]["runs"]:
    failures.append("ablation_mdom: equivalence verification failed "
                    f"({fresh['ablation_mdom']['equivalent']}/{fresh['ablation_mdom']['runs']})")

# Equivalence-oracle shootout: every circuit must keep an exact `proved`
# verdict (drift means the sign-off got weaker or wrong), and the SAT
# engine's aggregate wall time is regression-gated like the other
# sections — the whole point of the oracle is that exact sign-off stays
# cheap where the BDD is intractable.
oracle = fresh.get("oracle")
if oracle is None:
    failures.append("oracle: section missing from fresh bench run")
else:
    for c in oracle["circuits"]:
        if not (c["fingerprint"]["equivalent"] and c["fingerprint"]["exact"]):
            failures.append(f"oracle: {c['name']} lost its exact proof: "
                            f"{c['fingerprint']}")
    committed_oracle = committed.get("oracle")
    if committed_oracle is None:
        failures.append("oracle: section missing from committed "
                        "smoke_reference — regenerate BENCH_core.json")
    else:
        committed_fp = {c["name"]: c["fingerprint"]
                        for c in committed_oracle["circuits"]}
        for c in oracle["circuits"]:
            ref = committed_fp.get(c["name"])
            if ref is None:
                failures.append(f"oracle: circuit {c['name']} missing from "
                                "committed smoke_reference — regenerate "
                                "BENCH_core.json")
            elif c["fingerprint"] != ref:
                failures.append(f"oracle: verdict drifted on {c['name']}:\n"
                                f"  committed {ref}\n"
                                f"  fresh     {c['fingerprint']}")
        if compare_times:
            check_time("oracle.sat_total",
                       committed_oracle["sat_total_seconds"],
                       oracle["sat_total_seconds"])

if failures:
    print("BENCH REGRESSION GATE FAILED:")
    for f in failures:
        print("  -", f)
    sys.exit(1)
print("bench gate OK")
EOF

echo "==> ci.sh: all gates passed"
