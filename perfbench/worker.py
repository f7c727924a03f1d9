"""The workload process: imports qbrach, then runs passes in a closed loop.

    python3 perfbench/worker.py WORKLOAD SEED MODE SIZE SECONDS OUT_DIR T_SPAWN

run.py starts it with PYTHONPATH=src and one BLAS/OpenMP thread.  MODE is
`setup` (measure set-up, then exit), `measure` (a first and a warm
untraced pass, for the end-to-end metrics) or `trace` (an untraced first
pass, then traced and untraced warm passes alternating until SECONDS
after set-up, at least one of each, for the per-layer metrics).  SIZE is
`full` or `tiny`.
T_SPAWN is run.py's `time.monotonic()` just before it started this
process; CLOCK_MONOTONIC is shared by all processes, so the set-up time
below runs from the spawn to the end of argv generation, less the time
spent timing speed.setup_kernel() before the imports.  It is reported raw
and normalised by that kernel, timed before and after the imports.

Passes in `measure` mode run under speed.Sampler and report both their
raw time and their time normalised to the reference machine.

Pass k writes its outputs to OUT_DIR/pass-k/.  Only the first pass's
directory is kept for the oracles; every later pass must produce the same
digests.  The result goes to OUT_DIR/result.json and the spans of traced
passes to OUT_DIR/spans.npz.
"""

import sys
import time

t_before = time.monotonic()
import speed  # noqa: E402  (standard library only until its kernel() runs)

setup_k0 = speed.time_setup_kernel()
t_before = time.monotonic() - t_before    # left out of set-up

workload, seed, mode, size = sys.argv[1], int(sys.argv[2]), *sys.argv[3:5]
seconds, out_dir, t_spawn = float(sys.argv[5]), sys.argv[6], float(sys.argv[7])

import qbrach.cli  # noqa: E402  (timed as part of set-up)
from workloads import plan  # noqa: E402

jobs = plan(workload, seed, tiny=(size == "tiny"))
t_ready = time.monotonic()
setup_k1 = speed.time_setup_kernel()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import traceback  # noqa: E402

cli = qbrach.cli


def run_pass(path, sampler=None):
    """One closed-loop pass over the plan.  Returns (seconds, exit codes,
    normalised seconds, kernel samples); the last two are None without a
    sampler, which also leaves the seconds raw."""
    os.makedirs(path)
    rcs = []
    t0 = time.perf_counter()
    if sampler is not None:
        sampler.start()
    for job in jobs:
        try:
            rc = cli.main([*job.argv, "--out", os.path.join(path, job.label)])
        except SystemExit as exc:         # argparse rejected the argv
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:                 # report, and count as failed
            traceback.print_exc()
            rc = -1
        rcs.append(rc)
    if sampler is None:
        return time.perf_counter() - t0, rcs, None, None
    raw, norm, samples = sampler.stop()
    return raw, rcs, norm, samples


def digest(path):
    """Output fingerprint; a verify report's timestamp is left out."""
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        data = fh.read()
    if workload == "verify":
        try:
            payload = json.loads(data)
            payload.pop("timestamp", None)
            data = json.dumps(payload, sort_keys=True).encode()
        except (ValueError, AttributeError):
            pass
    return hashlib.sha256(data).hexdigest()


def rows_in(path):
    if not os.path.exists(path):
        return 0
    if path.endswith(".csv"):
        with open(path, "rb") as fh:
            return max(sum(1 for _ in fh) - 1, 0)
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if isinstance(payload, dict):
        payload = payload.get("rows", payload.get("records", []))
    return len(payload)


def main():
    raw_setup = t_ready - t_spawn - t_before
    result = {"workload": workload, "seed": seed, "mode": mode,
              "raw_setup_s": raw_setup,
              "setup_s": (raw_setup * speed.SETUP_NOMINAL_S
                          / (0.5 * (setup_k0 + setup_k1)))}
    tracer = sampler = None
    if mode == "setup":
        _write(result)
        return
    if mode == "measure":
        sampler = speed.Sampler()
    else:
        from tracing import Tracer
        tracer = Tracer(qbrach)
    passes = []
    spans = []
    deadline = t_ready + seconds

    def one_pass(traced):
        path = os.path.join(out_dir, f"pass-{len(passes)}")
        if traced:
            tracer.reset()
            tracer.install()
        try:
            wall, rcs, norm, samples = run_pass(path, sampler)
        finally:
            if traced:
                tracer.uninstall()
        files = [os.path.join(path, job.label) for job in jobs]
        entry = {"wall_s": wall, "norm_s": norm, "kernel_samples": samples,
                 "traced": traced, "rcs": rcs,
                 "digests": [digest(f) for f in files]}
        if traced:
            snap = tracer.snapshot()
            snap["counters"]["bytes_written"] = sum(
                os.path.getsize(f) for f in files if os.path.exists(f))
            snap["counters"]["rows_written"] = sum(rows_in(f) for f in files)
            spans.append(snap)
        if passes:
            shutil.rmtree(path)
        passes.append(entry)
        return wall

    first = one_pass(False)
    if mode == "measure":
        one_pass(False)
    else:
        # traced and untraced warm passes alternate, at least one of each
        est = first
        while (len(passes) < 3
               or time.monotonic() + 2 * est <= deadline):
            est = max(one_pass(True), one_pass(False))
    result["passes"] = passes
    result["first_dir"] = os.path.join(out_dir, "pass-0")
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss / 1024.0)
    if spans:
        import numpy as np
        result["trace_names"] = list(tracer.names)
        arrays = {}
        for i, snap in enumerate(spans):
            for key in ("name", "parent", "start", "end"):
                arrays[f"{i}_{key}"] = snap[key]
        np.savez_compressed(os.path.join(out_dir, "spans.npz"), **arrays)
        result["trace_counters"] = [snap["counters"] for snap in spans]
    _write(result)


def _write(result):
    with open(os.path.join(out_dir, "result.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
