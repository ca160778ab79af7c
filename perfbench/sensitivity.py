#!/usr/bin/env python3
"""Sensitivity self-check: does the benchmark notice when a layer slows?

    python3 perfbench/sensitivity.py --seeds 1,2 --write perfbench/SENSITIVITY.md

Builds the driver with the core library's fault-injection hooks
(-DBDSMAJ_FAULT_INJECT=ON; no source edit) and runs every workload three
ways on the same seeds: unarmed, with a delay on every SAT solve
(FaultSite::kSatSolve), and with a delay on every service worker task
entry (FaultSite::kWorkerTaskEntry). For each workload and plan it reports
the median change of each timing metric against the unarmed run and
whether it exceeds the metric's bound from BENCHMARK.json.

Expected: the SAT plan moves verified_datapath (SAT sign-off) and
exact_control (SAT exact synthesis) beyond their bounds; the worker plan
moves service_mix beyond its bound and leaves the two closed-loop
workloads, which never enter the service, inside theirs. Exits 1 when an
expectation fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMING = ("latency_p50_s", "latency_tail_s", "throughput_jobs_per_s")
PLANS = ("unarmed", "sat", "worker")
# Per-hit delays. A seed-1 run makes about 94k SAT solves in verified_datapath
# (sign-off) but only about 6k in exact_control (exact synthesis), so the
# SAT delay is sized per workload to inject a comparable share of its time
# without pushing a run past the driver's timeout.
SAT_DELAY_US = {"verified_datapath": 1000, "exact_control": 5000, "service_mix": 1000}
WORKER_DELAY_US = 100000
EXPECT_MOVED = {
    ("verified_datapath", "sat"): True,
    ("exact_control", "sat"): True,
    ("service_mix", "worker"): True,
    ("verified_datapath", "worker"): False,
    ("exact_control", "worker"): False,
}


def plan_args(workload, plan):
    if plan == "sat":
        return ["--fault-site", "sat", "--fault-delay-us", str(SAT_DELAY_US[workload])]
    if plan == "worker":
        return ["--fault-site", "worker", "--fault-delay-us", str(WORKER_DELAY_US)]
    return []


def run(workload, seed, seconds, plan):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
           "--fault-build"] + plan_args(workload, plan)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    context = json.loads(lines[-2][len("PERFBENCH_CONTEXT "):])
    if not result["correct"]:
        raise SystemExit(f"{workload}/{plan}/seed {seed}: incorrect output")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    values["delays"] = context.get("fault_delays_served", 0)
    return values


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="1,2")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--write", type=Path, help="also write the report to this file")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    rows, ok = [], True
    for w in (x["name"] for x in spec["workloads"]):
        med = {}
        for plan in PLANS:
            runs = [run(w, s, args.seconds, plan) for s in seeds]
            med[plan] = {k: statistics.median(r[k] for r in runs) for k in TIMING + ("delays",)}
        for plan in ("sat", "worker"):
            worst, cells = 0.0, []
            for k in TIMING:
                base, val = med["unarmed"][k], med[plan][k]
                # Worsening as a share of the unarmed median.
                change = (val - base) / base if metrics[k]["better"] == "lower" else (base - val) / base
                worst = max(worst, change / metrics[k]["bound"])
                cells.append(f"{k} {base:.4g} -> {val:.4g} ({change:+.1%}, bound {metrics[k]['bound']:.0%})")
            moved = worst > 1.0
            expected = EXPECT_MOVED.get((w, plan))
            verdict = "-" if expected is None else ("pass" if moved == expected else "FAIL")
            ok &= verdict != "FAIL"
            delay = SAT_DELAY_US[w] if plan == "sat" else WORKER_DELAY_US
            cells.append(f"{med[plan]['delays']:.0f} delays of {delay} us served")
            rows.append((w, plan, "beyond bound" if moved else "within bound", verdict, cells))

    lines = [
        "# Sensitivity self-check",
        "",
        f"`python3 perfbench/sensitivity.py --seeds {args.seeds}` "
        f"({args.seconds:g} s runs, fault-injection build, medians over seeds {args.seeds}).",
        "Plans: `sat` = a delay on every `FaultSite::kSatSolve` hit (1 ms; 5 ms for "
        "exact_control, which makes far fewer solves); `worker` = 100 ms on every "
        "`FaultSite::kWorkerTaskEntry` hit.",
        "",
        "| workload | plan | result | expected | timing metrics (unarmed -> armed) |",
        "|---|---|---|---|---|",
    ]
    for w, plan, moved, verdict, cells in rows:
        lines.append(f"| {w} | {plan} | {moved} | {verdict} | {'<br>'.join(cells)} |")
    report = "\n".join(lines) + "\n"
    print(report)
    if args.write:
        args.write.write_text(report)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
