#!/usr/bin/env python3
"""Build and run the simulator benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]
    python3 perfbench/run.py --self-test

The first form builds perfbench (CMake, into $CARGO_TARGET_DIR or
.bench_build under the repository root), runs one workload and prints
its result as the last line of stdout: one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list.

"all" runs every workload untraced and then traced with the same seed
and prints one report: the end-to-end metrics, cells attempted and
failed, the per-layer metrics, the span self-time table and the tracing
overhead on each workload's headline metric.

--self-test builds and runs the benchmark's own tests.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A workload run must finish within 180 s; keep a margin for start-up.
RUN_TIMEOUT_S = 170
# Headline metric per workload, for the tracing overhead.
HEADLINE = {"cell-baseline": "sim_minstr_per_s",
            "cell-flywheel": "sim_minstr_per_s",
            "figures-cold": "grid_s",
            "figures-warm": "grid_s"}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def die(msg):
    log(msg)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(target):
    """Configure once, then build @target; output goes to stderr."""
    for needed in ("CMakeLists.txt", "src", "specs", "tests/golden"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            die(f"cannot build: {needed} is missing from {ROOT}")
    bdir = build_dir()
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(bdir, ignore_errors=True)
            die("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", bdir, "--target", target,
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        die(f"building {target} failed")
    return os.path.join(bdir, target)


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_one(exe, workload, seed, seconds, trace):
    """Run one workload; return (result dict, report dict)."""
    out_dir = build_dir() + "-out"
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("FLYWHEEL_")}  # run lengths stay default
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--root", ROOT, "--out", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        # The simulator aborts on an internal error: that cell failed.
        log(f"{workload} exited with status {proc.returncode}")
        return {"correct": False, "attempted": 1, "failed": 1,
                "metrics": {}}, None
    result = json.loads(lines[-1])
    report_path = os.path.join(
        out_dir, f"{workload}-seed{seed}-trace{trace}.report.json")
    with open(report_path) as f:
        report = json.load(f)
    return result, report


def check_result(result, contract, trace):
    """The binary's output must match BENCHMARK.json exactly."""
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        die(f"unexpected result keys {sorted(result)}")
    if not result["correct"]:
        return
    wanted = contract["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    if [m["name"] for m in wanted] != list(got):
        die("metric names differ from BENCHMARK.json")
    for m in wanted:
        if got[m["name"]]["unit"] != m["unit"]:
            die(f"{m['name']}: unit differs from BENCHMARK.json")
        if not isinstance(got[m["name"]]["value"], (int, float)):
            die(f"{m['name']}: value is not a number")


def report_all(exe, contract, seed, seconds):
    rows = []
    for w in contract["workloads"]:
        name = w["name"]
        plain, plain_report = run_one(exe, name, seed, seconds, 0)
        traced, traced_report = run_one(exe, name, seed, seconds, 1)
        check_result(plain, contract, 0)
        check_result(traced, contract, 1)
        rows.append((w, plain, plain_report, traced, traced_report))

    gaps = [r[2]["metrics"]["paper.gap_max"] for r in rows
            if r[2] is not None and r[0]["name"].startswith("figures")]
    gap = f"{gaps[0]:.4f}" if gaps else "not measured"
    print(f"perfbench: every workload, seed {seed}, {seconds} s each")
    print(f"paper_gap_max = {gap}: the largest |model/paper - 1| over the "
          f"paper targets (simulated). The model is not validated; every "
          f"simulated ratio below carries this gap.\n")
    for w, plain, prep, traced, trep in rows:
        name = w["name"]
        print(f"== {name}: {w['why']}")
        if prep is None or trep is None:
            print("   aborted: counted as a failed cell\n")
            continue
        print(f"   cells attempted {plain['attempted']}, failed "
              f"{plain['failed']} (traced run: {traced['attempted']}, "
              f"{traced['failed']})")
        for f in prep["failures"] + trep["failures"]:
            print(f"   FAILED {f}")
        for m in contract["end_to_end"]:
            v = plain["metrics"].get(m["name"], {}).get("value")
            print(f"   {m['name']:<34} {v:>14.6g} {m['unit']}")
        for k, v in prep["notes"].items():
            print(f"   note {k}: {v}")
        head = HEADLINE[name]
        untraced_v = prep["metrics"][head]
        traced_v = trep["metrics"][head]
        print(f"   tracing overhead on {head}: {untraced_v:.6g} untraced, "
              f"{traced_v:.6g} traced "
              f"({(traced_v / untraced_v - 1) * 100:+.2f}%)")
        print(f"   span recorder cost: {trep['notes'].get('span_cost')}")
        print(f"   per-layer (traced run; paper_gap_max {gap}):")
        for m in contract["per_layer"]:
            v = traced["metrics"].get(m["name"], {}).get("value")
            print(f"     {m['name']:<34} {v:>14.6g} {m['unit']}")
        print("   span self time (traced run):")
        print(f"     {'span':<18} {'count':>7} {'total_s':>12} "
              f"{'self_s':>12}")
        for s in trep.get("self_times", []):
            print(f"     {s['name']:<18} {s['count']:>7} "
                  f"{s['total_s']:>12.6f} {s['self_s']:>12.6f}")
        print()


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()

    if args.self_test:
        exe = build("perfbench_tests")
        sys.exit(subprocess.run([exe], cwd=ROOT).returncode)

    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    if args.workload not in names + ["all"]:
        die(f"--workload must be one of {', '.join(names)} or all")
    if args.seed < 0:
        die("--seed must be non-negative")
    seconds = args.seconds or contract["run_seconds"]
    exe = build("perfbench")
    if args.workload == "all":
        report_all(exe, contract, args.seed, seconds)
        return
    result, _ = run_one(exe, args.workload, args.seed, seconds, args.trace)
    check_result(result, contract, args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
