"""qbrach benchmark: one workload, one closed-loop process, checked outputs.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check [--seed N]

Run from the root of a qbrach checkout.  The workloads are listed in
workloads.py and explained in README.md.  With --trace 0 the last stdout
line holds the end-to-end metrics; with --trace 1 it holds the per-layer
metrics of the traced passes.  Details (samples, machine facts, layer
predictions) go to stderr.  --self-check runs every workload at minimal
size through the oracles and the output schema, without timing checks.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_SAMPLES = 6       # set-up-only processes, besides the workers
WORKER_GRACE_S = 120    # a worker may overrun --seconds by one long pass


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _check_checkout() -> None:
    if not os.path.isfile(os.path.join(ROOT, "src", "qbrach", "cli.py")):
        _fail(f"no qbrach sources under {ROOT}/src; run from the root of a "
              "qbrach checkout")


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # set-up is measured with the bytecode cache an installed package has;
    # the uncounted warm-up spawn writes it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _spawn(workload, seed, mode, seconds, size, out_dir) -> dict:
    """Run one worker process to completion and return its result."""
    os.makedirs(out_dir)
    argv = [sys.executable, os.path.join(HERE, "worker.py"), workload,
            str(seed), mode, size, repr(float(seconds)), out_dir]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(argv + [repr(t_spawn)], env=_worker_env(),
                              stdout=subprocess.DEVNULL,
                              timeout=seconds + WORKER_GRACE_S)
    except subprocess.TimeoutExpired:
        _fail(f"{workload} worker ({mode}) timed out")
    if proc.returncode != 0:
        _fail(f"{workload} worker ({mode}) exited with {proc.returncode}")
    with open(os.path.join(out_dir, "result.json"), encoding="utf-8") as fh:
        return json.load(fh)


def machine_facts() -> dict:
    import mpmath
    import numpy
    import platform
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__}


# ---------------------------------------------------------------------------
# checking
# ---------------------------------------------------------------------------

def check_outputs(workload, jobs, results):
    """Oracle-check the first pass of the first worker; every other pass of
    every worker must reproduce its outputs exactly.

    Returns (max_err, units per pass, attempted, failed, messages).  A job
    output is one check per pass, except that each record of a verify
    report is one check.
    """
    import oracles
    from qbrach import catalog

    try:
        max_err, job_fails, units = oracles.CHECKS[workload](
            jobs, results[0]["first_dir"], catalog)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        max_err, units = math.inf, sum(job.units for job in jobs)
        job_fails = [[f"oracle could not read the outputs: {exc!r}"]] * len(
            jobs)
    # a verify report whose records could not be read still counts as one
    per_job = max(units, 1) if workload == "verify" else 1
    messages = [m for fails in job_fails for m in fails]
    first = results[0]["passes"][0]["digests"]
    attempted = failed = 0
    passes = [(w, k, p) for w, result in enumerate(results)
              for k, p in enumerate(result["passes"])]
    for w, k, p in passes:
        for j, (rc, dig) in enumerate(zip(p["rcs"], p["digests"])):
            attempted += per_job
            where = f"worker {w} pass {k} {jobs[j].label}"
            if rc != 0 or dig is None:
                messages.append(f"{where}: exit {rc}")
                failed += per_job
            elif w == k == 0:
                failed += min(len(job_fails[j]), per_job)
            elif dig != first[j]:
                messages.append(f"{where}: output differs from the "
                                "oracle-checked pass")
                failed += per_job
    return max_err, units, attempted, failed, messages


# ---------------------------------------------------------------------------
# one benchmark run
# ---------------------------------------------------------------------------

def setup_samples(workload, seed, size, base, tag) -> list:
    return [_spawn(workload, seed, "setup", 0, size,
                   os.path.join(base, f"setup-{tag}-{i}"))
            for i in range(SETUP_SAMPLES // 2)]


def end_to_end(workload, seed, seconds, size, jobs, base) -> tuple:
    """Fresh workers run in turn, each a first pass and one warm pass.  A
    worker starts while one more, at the median duration so far, fits in
    the run's seconds; the first always runs.  Pass times are normalised to
    the reference machine (speed.py); the raw ones go to the detail line."""
    # the first spawn warms the file and bytecode caches and is not counted;
    # half the set-up samples come before the workers and half after, since
    # the machine's speed changes over tens of seconds
    _spawn(workload, seed, "setup", 0, size, os.path.join(base, "setup-warm"))
    setups = setup_samples(workload, seed, size, base, "before")
    start = time.monotonic()
    results, durations = [], []
    while not results or (time.monotonic() + statistics.median(durations)
                          <= start + seconds):
        t0 = time.monotonic()
        results.append(_spawn(workload, seed, "measure", 0, size,
                              os.path.join(base, f"worker-{len(results)}")))
        durations.append(time.monotonic() - t0)
    setups += setup_samples(workload, seed, size, base, "after") + results
    max_err, units, attempted, failed, messages = check_outputs(
        workload, jobs, results)
    firsts = [r["passes"][0] for r in results]
    warm = [p for r in results for p in r["passes"][1:]]
    wall = statistics.median(p["norm_s"] for p in warm)
    metrics = {
        "wall_s": (wall, "s"),
        "first_pass_s": (statistics.median(p["norm_s"] for p in firsts),
                         "s"),
        "setup_s": (statistics.median(r["setup_s"] for r in setups), "s"),
        "work_per_s": (units / wall, "1/s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in results), "MB"),
        "max_err": (max_err, "abs"),
    }
    detail = {"first_pass_s": [p["norm_s"] for p in firsts],
              "warm_pass_s": [p["norm_s"] for p in warm],
              "raw_first_pass_s": [p["wall_s"] for p in firsts],
              "raw_warm_pass_s": [p["wall_s"] for p in warm],
              "kernel_samples": [p["kernel_samples"] for p in warm],
              "samples": len(warm),
              "setup_s": [r["setup_s"] for r in setups],
              "raw_setup_s": [r["raw_setup_s"] for r in setups],
              "units_per_pass": units,
              "failed_ratio": failed / max(attempted, 1)}
    return metrics, attempted, failed, messages, detail


def predicted_zero(workload) -> list:
    """Per-layer counts the workload descriptions in README.md say are 0."""
    import tracing
    special = [name for name, _, _ in tracing.PER_LAYER
               if name.startswith("special.") and name.endswith(".calls")]
    return {"trajectory": ["matcore.expm_h.calls", *special],
            "census": ["matcore.expm_h.calls", "brach.evolve.calls",
                       *special],
            "verify": [],
            "closed-form": ["brach.evolve.calls", *special]}[workload]


def per_layer(workload, seed, seconds, size, jobs, base) -> tuple:
    import numpy as np
    import tracing

    result = _spawn(workload, seed, "trace", seconds, size,
                    os.path.join(base, "trace"))
    max_err, units, attempted, failed, messages = check_outputs(
        workload, jobs, [result])
    traced = [p["wall_s"] for p in result["passes"] if p["traced"]]
    untraced = [p["wall_s"] for p in result["passes"][1:]
                if not p["traced"]]
    spans_path = os.path.join(base, "trace", "spans.npz")
    with np.load(spans_path) as spans:
        per_pass = [tracing.aggregate(result["trace_names"], {
            "name": spans[f"{i}_name"], "parent": spans[f"{i}_parent"],
            "start": spans[f"{i}_start"], "end": spans[f"{i}_end"],
            "counters": counters})
            for i, counters in enumerate(result["trace_counters"])]
    values = {name: statistics.median(p[name] for p in per_pass)
              for name in per_pass[0]}
    values["trace.overhead_ratio"] = (statistics.median(traced)
                                      / statistics.median(untraced))
    metrics = {name: (values[name], unit)
               for name, unit, _ in tracing.PER_LAYER}
    shutil.copy(spans_path, os.path.join(OUT, f"spans-{workload}.npz"))
    zeros = {name: values[name] for name in predicted_zero(workload)}
    detail = {"traced_pass_s": traced, "untraced_pass_s": untraced,
              "units_per_pass": units, "max_err": max_err,
              "predicted_zero": zeros,
              "predictions_hold": not any(zeros.values())}
    return metrics, attempted, failed, messages, detail


def run(workload, seed, seconds, trace, size="full") -> tuple:
    """One benchmark run; returns (result line, detail)."""
    from workloads import plan
    jobs = plan(workload, seed, tiny=(size == "tiny"))
    base = os.path.join(OUT, f"{workload}-{seed}-{os.getpid()}")
    try:
        measure = per_layer if trace else end_to_end
        metrics, attempted, failed, messages, detail = measure(
            workload, seed, seconds, size, jobs, base)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    detail.update(workload=workload, seed=seed, seconds=seconds,
                  trace=trace, size=size, machine=machine_facts(),
                  failures=messages[:20])
    line = {"correct": failed == 0 and not messages, "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}
    return line, detail


# ---------------------------------------------------------------------------
# self-check
# ---------------------------------------------------------------------------

def self_check(seed) -> int:
    """Every workload at minimal size, untraced and traced: oracles, layer
    predictions and the result schema BENCHMARK.json declares."""
    from workloads import PLANS, WORKLOADS, plan

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from WORKLOADS")
    # a pass that crashed before writing its verify report must count as
    # failed checks, not break the run
    missing = os.path.join(OUT, f"self-check-{os.getpid()}")
    os.makedirs(missing, exist_ok=True)
    try:
        _, _, attempted, failed, _ = check_outputs(
            "verify", plan("verify", seed, tiny=True),
            [{"first_dir": missing, "passes": [{"rcs": [-1],
                                                "digests": [None]}]}])
    finally:
        shutil.rmtree(missing, ignore_errors=True)
    if attempted < 1 or failed != attempted:
        problems.append(f"a crashed verify pass gave {failed} failed of "
                        f"{attempted} checks")
    for workload in PLANS:
        for trace in (0, 1):
            line, detail = run(workload, seed, 0, trace, size="tiny")
            got = {k: m["unit"] for k, m in line["metrics"].items()}
            where = f"{workload} trace={trace}"
            if got != declared[trace]:
                problems.append(f"{where}: metrics differ from BENCHMARK.json")
            if not all(isinstance(m["value"], (int, float))
                       and math.isfinite(m["value"])
                       for m in line["metrics"].values()):
                problems.append(f"{where}: a metric is not a finite number")
            if not (line["correct"] and line["attempted"] >= 1
                    and line["failed"] == 0):
                problems.append(f"{where}: {line['failed']} of "
                                f"{line['attempted']} checks failed: "
                                f"{detail['failures']}")
            if trace and not detail["predictions_hold"]:
                problems.append(f"{where}: predicted-zero counts "
                                f"{detail['predicted_zero']}")
            summary = {k: line["metrics"][k]["value"] for k in
                       (("first_pass_s", "max_err") if not trace else
                        ("trace.overhead_ratio", "cli.rows_written"))}
            print(f"{where:26s} attempted={line['attempted']:<4d} "
                  f"failed={line['failed']} {summary}")
    for p in problems:
        print(f"self-check: {p}", file=sys.stderr)
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    _check_checkout()
    os.makedirs(OUT, exist_ok=True)
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    if args.self_check:
        return self_check(args.seed)
    from workloads import PLANS
    if args.workload not in PLANS:
        _fail(f"--workload must be one of {', '.join(PLANS)}")
    line, detail = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"detail": detail}), file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
