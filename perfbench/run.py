#!/usr/bin/env python3
"""Build the benchmark driver from this tree and run one workload.

    python3 perfbench/run.py --workload verified_datapath --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The core library is compiled from the
checkout's own src/ (never from an existing build/) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). The last line
of standard output is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 prints the end-to-end metrics; --trace 1 runs the workload
twice, untraced then traced on the same jobs, and prints the per-layer
metrics plus the tracing overhead, writing the spans as Chrome trace-event
JSON next to the build. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORKLOADS = ("verified_datapath", "exact_control", "service_mix")
# Extra set-up-only processes per run, half before and half after the
# workload so that they span its whole time; setup_s is the median of all.
SETUP_SAMPLES = 20
DRIVER_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def tree_hash():
    """SHA-256 over every file the driver is built from."""
    h = hashlib.sha256()
    files = [BENCH_DIR / "CMakeLists.txt"]
    for base in (ROOT / "src", BENCH_DIR / "src"):
        files += sorted(p for p in base.rglob("*") if p.is_file())
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def build(variant):
    """Configure and build the driver; returns (binary path, tree hash)."""
    if not (ROOT / "src").is_dir() or not (BENCH_DIR / "CMakeLists.txt").is_file():
        fail(f"no sources to build under {ROOT}")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench" / variant
    gen_dir = build_dir / "generated"
    gen_dir.mkdir(parents=True, exist_ok=True)
    digest = tree_hash()
    header = gen_dir / "tree_hash.h"
    text = f'#define PERFBENCH_TREE_HASH "{digest}"\n'
    if not header.exists() or header.read_text() != text:
        header.write_text(text)
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release",
                      f"-DPERFBENCH_GENERATED_DIR={gen_dir}",
                      f"-DBDSMAJ_FAULT_INJECT={'ON' if variant == 'fault' else 'OFF'}"])
    steps.append(["cmake", "--build", str(build_dir), "-j", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return build_dir / "perfbench_driver", digest


def run_driver(binary, args):
    """Runs the driver; returns (context dict, result dict, exit code)."""
    proc = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE, text=True,
                          timeout=DRIVER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    context = {}
    for line in lines:
        if line.startswith("PERFBENCH_CONTEXT "):
            context = json.loads(line[len("PERFBENCH_CONTEXT "):])
    if not lines or not lines[-1].startswith("{"):
        fail(f"driver printed no result (exit {proc.returncode})")
    return context, json.loads(lines[-1]), proc.returncode


def setup_seconds(binary, base_args, samples):
    out = []
    for _ in range(samples):
        proc = subprocess.run([str(binary)] + base_args + ["--setup-only"],
                              stdout=subprocess.PIPE, text=True, timeout=DRIVER_TIMEOUT_S)
        if proc.returncode != 0 or not proc.stdout.startswith("PERFBENCH_SETUP "):
            fail("set-up-only run failed")
        out.append(float(proc.stdout.split()[1]))
    return out


def run_all(args):
    """Every workload in turn, each in its own process; prints each
    metric by name and unit, then all results as one JSON object."""
    results, code = {}, 0
    for w in WORKLOADS:
        cmd = [sys.executable, __file__] + [a if a != "all" else w for a in sys.argv[1:]]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        code = code or proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results[w] = result
        print(f"{w}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(results))
    sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or 'all' to run each in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fault-site", choices=("sat", "worker"),
                    help="sensitivity check: delay every hit of this site "
                         "(builds the fault-injection variant)")
    ap.add_argument("--fault-delay-us", type=int, default=0)
    ap.add_argument("--fault-build", action="store_true",
                    help="use the fault-injection build even without --fault-site")
    ap.add_argument("--exact-max-support", type=int,
                    help="stage-breakdown counterfactual for the closed loops: cap "
                         "the exact tier's cone width (4 = no SAT-synthesized programs)")
    args = ap.parse_args()

    if args.workload == "all":
        run_all(args)
        return
    variant = "fault" if (args.fault_site or args.fault_build) else "release"
    binary, digest = build(variant)
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    extra = (["--fault-site", args.fault_site, "--fault-delay-us", str(args.fault_delay_us)]
              if args.fault_site else [])
    if args.exact_max_support is not None:
        extra += ["--exact-max-support", str(args.exact_max_support)]

    if args.trace == 0:
        setup_args = base + ["--seconds", str(args.seconds)]
        setups = setup_seconds(binary, setup_args, SETUP_SAMPLES // 2)
        context, result, code = run_driver(
            binary, base + ["--seconds", str(args.seconds)] + extra)
        setups += setup_seconds(binary, setup_args, SETUP_SAMPLES - SETUP_SAMPLES // 2)
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        context["setup_samples_s"] = setups
    else:
        # Same jobs twice from a cold process: untraced, then traced. The
        # difference of their mean job latencies is the tracing overhead.
        half = str(args.seconds / 2)
        plain_ctx, plain, code = run_driver(binary, base + ["--seconds", half] + extra)
        if code != 0:
            print(json.dumps(plain))
            sys.exit(code)
        trace_dir = binary.parent / "traces"
        trace_dir.mkdir(exist_ok=True)
        trace_file = trace_dir / f"{args.workload}_seed{args.seed}.json"
        context, result, code = run_driver(
            binary, base + ["--seconds", half, "--trace", "1",
                            "--trace-file", str(trace_file)] + extra)
        m = result["metrics"]
        untraced = plain_ctx["mean_latency_s"]
        m["trace.untraced_latency_s"] = {"value": untraced, "unit": "s"}
        m["trace.overhead_s"] = {"value": m["trace.job_latency_s"]["value"] - untraced,
                                 "unit": "s"}
        m["trace.unaccounted_s"] = {"value": untraced - m["trace.layer_self_s"]["value"],
                                    "unit": "s"}
        context["trace_file"] = os.path.relpath(trace_file, ROOT)
        print(f"perfbench: spans written to {trace_file}", file=sys.stderr)

    if context.get("tree_hash") != digest:
        fail(f"driver was built from tree {context.get('tree_hash')}, not {digest}")
    print("PERFBENCH_CONTEXT " + json.dumps(context, sort_keys=True))
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
