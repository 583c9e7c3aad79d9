"""The zerodiag benchmark: workloads certify, sections and search.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from the root of a checkout.  Every timed pass runs in a fresh child
interpreter (bench/child.py), single-process and single-threaded, and its
outputs are checked here.  With --trace 0 the last line of stdout is the
JSON result with the end-to-end metrics of BENCHMARK.json; with --trace 1
it holds the per-layer metrics of one untraced and one traced pass over
the same operations.  The lines before it name the same metrics the way
bench/README.md does, with units.  Times are the child's CPU seconds,
rescaled to the baseline host's speed (see KERNEL_S and child.Speedometer).
A record of the run, with provenance, goes to bench/out/, and the spans of
a traced pass next to it.

--smoke runs every workload at a tiny size and checks the benchmark
itself: metric names and units against BENCHMARK.json, and that a wrong
expected value is reported as a failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import mean, median

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("certify", "sections", "search")
SETUP_PROBES = 5
RUN_LIMIT_S = 170  # every run ends within 180 s; children get what is left
# Seconds of child.kernel() on the baseline host.  A child's times are
# rescaled by KERNEL_S / (the mean kernel time sampled next to and during
# them), which removes most of the host's drift in speed; keep it fixed,
# like the kernel itself.
KERNEL_S = 0.0125
E2E_UNITS = {"setup_s": "s", "op_p50_s": "s", "items_per_s": "1/s",
             "peak_rss_mb": "MB"}
LAYER_UNITS = {m: u for m, u, _ in spans.LAYER_METRICS}


class BenchError(Exception):
    pass


def spawn(job, deadline):
    """Run one child on `job`; its report, with times rescaled to the
    baseline host's speed by the child's Speedometer samples."""
    env = dict(os.environ)
    env.pop("ZERODIAG_WORKERS", None)  # verify-all would fan out otherwise
    env["PYTHONHASHSEED"] = "0"
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py")], input=json.dumps(job),
            capture_output=True, text=True, env=env, cwd=ROOT,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("a %s child ran past the time limit" % job["workload"])
    lines = proc.stdout.splitlines()
    try:
        report = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except ValueError:
        report = None
    if report is None:
        raise BenchError("%s child exited with %d and no report:\n%s" % (
            job["workload"], proc.returncode, proc.stderr[-2000:]))
    slowness = {}  # kernel time / KERNEL_S, per tag
    for tag, took in report["samples"]:
        slowness.setdefault(tag, []).append(took / KERNEL_S)
    report["slowness"] = mean(x for v in slowness.values() for x in v)
    report["setup_s"] = report["setup_cpu"] / mean(slowness["setup"])
    for i, r in enumerate(report["results"]):
        r["seconds"] = r["cpu"] / mean(slowness[i])
    return report


def timed_pass(workload, job, seconds, deadline):
    """Children for one untraced pass; certify gets a fresh one per op."""
    if workload != "certify":
        return [spawn(dict(job, seconds=seconds), deadline)]
    reports, busy = [], 0.0
    while not reports or busy + busy / len(reports) <= seconds:
        reports.append(spawn(job, deadline))
        busy += sum(r["seconds"] for r in reports[-1]["results"])
    return reports


def hd_median(values):
    """Harrell-Davis estimate of the median.

    A Beta((n+1)/2, (n+1)/2)-weighted average of all order statistics.
    For the 14 unequal section latencies of a run it varies much less
    from run to run than the middle one or two values do.
    """
    xs = sorted(values)
    n = len(xs)
    a = (n + 1) / 2
    log_norm = 2 * math.lgamma(a) - math.lgamma(2 * a)

    def density(t):
        if t <= 0 or t >= 1:
            return 1.0 if a == 1 else 0.0
        return math.exp((a - 1) * math.log(t * (1 - t)) - log_norm)

    steps = 64  # Simpson's rule on each 1/n interval
    h = 1 / (n * steps)
    total = weight = 0.0
    for i, x in enumerate(xs):
        lo = i / n
        w = density(lo) + density(lo + steps * h)
        for k in range(1, steps):
            w += (4 if k % 2 else 2) * density(lo + k * h)
        total += x * w
        weight += w
    return total / weight


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(workload, seed, seconds, trace, smoke):
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = None
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "smoke": smoke, "host": platform.node(),
            "machine": platform.machine(), "nproc": os.cpu_count(),
            "usable_cpus": usable, "python": platform.python_version(),
            "git_sha": git_sha()}


def run_workload(workload, seed, seconds, trace, smoke=False, tamper=False):
    """One benchmark run: (result printed last, lines before it, record)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    job, expect, prov, items_per_op = workloads.make_job(workload, seed, smoke)
    if tamper:
        workloads.tamper(workload, expect)
    job["workload"] = workload
    probe = dict(job, ops=[])
    spawn(probe, deadline)  # untimed: leaves compiled bytecode behind
    setups = [] if trace else [spawn(probe, deadline)["setup_s"]
                               for _ in range(SETUP_PROBES)]

    reports = timed_pass(workload, job, seconds, deadline)
    passes = [r["results"] for r in reports]
    if trace:
        first = reports[0]["results"]
        spans_path = OUT / ("spans-%s-seed%d.bin" % (workload, seed))
        traced = spawn(dict(job, ops=[r["op"] for r in first],
                            spans_path=str(spans_path)), deadline)
        passes.append(traced["results"])

    results = [r for p in passes for r in p]
    problems = []
    for i, r in enumerate(results):
        found = workloads.check(workload, r["op"], r["out"], expect)
        if found:
            problems.append({"index": i, "op": r["op"], "problems": found})
    attempted, failed = len(results), len(problems)

    timed = [r for rep in reports for r in rep["results"]]
    lat = [r["seconds"] for r in timed]
    busy = sum(lat)
    named = [("scaled_s", busy, "s"), ("cpu_s", sum(r["cpu"] for r in timed), "s"),
             ("wall_s", sum(r["wall"] for r in timed), "s"),
             ("host_slowness", mean(rep["slowness"] for rep in reports), "ratio"),
             ("fail_ratio", failed / attempted, "ratio")]
    if trace:
        untraced = sum(r["seconds"] for r in reports[0]["results"])
        traced_s = sum(r["seconds"] for r in traced["results"])
        metrics = dict(traced["layers"])
        metrics["trace.overhead_ratio"] = traced_s / untraced
        units = LAYER_UNITS
        named.append(("traced_s", traced_s, "s"))
    else:
        setups += [rep["setup_s"] for rep in reports]
        metrics = {
            "setup_s": median(setups),
            "op_p50_s": hd_median(lat),
            "items_per_s": items_per_op * len(lat) / busy,
            "peak_rss_mb": max(rep["peak_rss_mb"] for rep in reports),
        }
        units = E2E_UNITS
        p50_name, rate_name = {"certify": ("verify_all_s", "checks_per_s"),
                               "sections": ("section_p50_s", "sections_per_s"),
                               "search": ("search_p50_s", "triples_per_s")}[workload]
        named += [("setup_s", metrics["setup_s"], "s"),
                  ("peak_rss_mb", metrics["peak_rss_mb"], "MB"),
                  (p50_name, metrics["op_p50_s"], "s"),
                  (rate_name, metrics["items_per_s"], "1/s")]

    if workload == "sections":
        prov.update(workloads.sections_provenance([r["op"] for r in timed]))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    record = {"provenance": dict(provenance(workload, seed, seconds, trace, smoke),
                                 **prov),
              "result": result, "named": {k: [v, u] for k, v, u in named},
              "problems": problems,
              "ops": [[r["op"], r["seconds"], r["cpu"], r["wall"]] for r in timed],
              "samples": [rep["samples"] for rep in reports]}
    lines = ["%s seed=%d trace=%d: %d ops, %d failed" % (
        workload, seed, trace, attempted, failed)]
    lines += ["  %-40s %.6g %s" % (k, v, u) for k, v, u in named]
    if trace:
        lines += ["  %-40s %.6g %s" % (k, metrics[k], units[k]) for k in metrics]
    return result, lines, record


def smoke():
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    errors = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from %s" % (WORKLOADS,))
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, lines, _ = run_workload(workload, 1, 0.01, trace, smoke=True)
            print(lines[0])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                errors.append("%s trace=%d: metrics %s differ from BENCHMARK.json"
                              % (workload, trace, sorted(set(got) ^ set(expected[trace]))
                                 or "units"))
            if result["failed"] or not result["correct"]:
                errors.append("%s trace=%d: %d failed" % (workload, trace,
                                                          result["failed"]))
        result, lines, _ = run_workload(workload, 1, 0.01, 0, smoke=True, tamper=True)
        if not result["failed"] or result["correct"]:
            errors.append("%s: a wrong expected value was not reported" % workload)
    for e in errors:
        print("smoke: " + e, file=sys.stderr)
    print("smoke: %s" % ("FAILED" if errors else "ok"))
    return 1 if errors else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "zerodiag" / "__init__.py").is_file():
        print("error: no zerodiag sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        result, lines, record = run_workload(args.workload, args.seed,
                                             args.seconds, args.trace)
    except BenchError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(OUT / name, "w") as f:
        json.dump(record, f, indent=1)
    for p in record["problems"][:5]:
        print("check failed: %s" % json.dumps(p), file=sys.stderr)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
