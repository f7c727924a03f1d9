"""Batch command-line front end.

Subcommands:
    run            -- sample a scenario trajectory (or integrate a
                      control family) and write CSV/JSON
    verify         -- run a module verification sweep, emit a report
    list-scenarios -- print the scenario registry

Exit codes: 0 success, 1 verification failure, 2 integrator drift abort,
64 unknown scenario, 65 bad parameters.
"""

from __future__ import annotations

import argparse
import itertools
import json
import logging
import math
import os
import sys

import numpy as np

from . import __version__, brach, catalog, report
from .matcore import ValidationError

log = logging.getLogger("qbrach")

EXIT_OK = 0
EXIT_DRIFT = 2
EXIT_UNKNOWN_SCENARIO = 64
EXIT_BAD_PARAMS = 65

SCENARIO_NAMES = (*catalog.SCENARIO_BUILDERS.keys(),
                  "sun-family", "su3-partitions")

FMT = "%.17g"

# `run` rejects a grid of more than this many steps (t_max / dt) before any
# work: 20x the longest documented run, the census at t_max 50, dt 1e-3
MAX_STEPS = 10**6
RUN_T_MAX = 1.0
RUN_DT = 1e-3
# grid times a closed-form scenario is evaluated on per call: one block's
# arrays stay small beside the rest of the process
SAMPLE_BLOCK = 256


def _setup_logging():
    level = {"error": logging.ERROR, "info": logging.INFO,
             "debug": logging.DEBUG}.get(
        os.environ.get("QBRACH_LOG", "error").lower(), logging.ERROR)
    logging.basicConfig(level=level,
                        format="%(levelname)s %(name)s: %(message)s")


def _parse_value(text: str):
    for cast in (int, float, complex):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _parse_params(pairs) -> dict:
    out = {}
    for item in pairs or ():
        if "=" not in item:
            raise ValidationError(f"--param expects key=value, got {item!r}")
        key, _, val = item.partition("=")
        value = out[key] = _parse_value(val)
        if isinstance(value, (float, complex)) and not np.isfinite(value):
            raise ValidationError(f"{key} is not finite")
    return out


# ---------------------------------------------------------------------------
# trajectory sampling
# ---------------------------------------------------------------------------

def _header(dim: int, target=None) -> list:
    header = (["t"] + [f"{part} c_{j}" for j in range(1, dim + 1)
                       for part in ("Re", "Im")] + ["trH2", "trHF", "norm"])
    if target is not None:
        header.append("fidelity_to_target")
    return header


def _scenario_rows(scn, t_max: float, dt: float):
    """Header and a generator of rows sampling a closed-form scenario at
    t = min(i dt, t_max), i = 0..round(t_max / dt).  The grid is evaluated
    SAMPLE_BLOCK times per call of each time function."""
    n = max(int(round(t_max / dt)), 1)

    def rows():
        for start in range(0, n + 1, SAMPLE_BLOCK):
            t = np.minimum(np.arange(start, min(start + SAMPLE_BLOCK, n + 1))
                           * dt, t_max)
            H = scn.hamiltonian_at(t)
            F = scn.constraint_at(t) if scn.constraint_at is not None \
                else np.zeros_like(H)
            psi = scn.state_at(t)
            cols = [t[:, None], psi.view(float),
                    np.trace(H @ H, axis1=-2, axis2=-1).real[:, None],
                    np.trace(H @ F, axis1=-2, axis2=-1).real[:, None]]
            # per row, the same sums in the same order as np.linalg.norm and
            # np.vdot, so both columns equal those calls bit for bit
            re, im = psi.real[:, None, :], psi.imag[:, None, :]
            cols.append(np.sqrt(re @ re.swapaxes(-1, -2)
                                + im @ im.swapaxes(-1, -2))[:, 0])
            if scn.target is not None:
                # Python's abs: np.abs differs from it in the last bit
                overlaps = (scn.target.conj() @ psi[..., None])[:, 0].tolist()
                cols.append(np.array([abs(z) ** 2 for z in overlaps])[:, None])
            yield from np.hstack(cols).tolist()

    return _header(scn.dim, scn.target), rows()


def _family_rows(params: dict, t_max: float, dt: float, seed: int):
    """Integrate one randomized control family; each row is written from
    one of brach.integrate's samples as it is made."""
    n = params.pop("n", 3)
    if not isinstance(n, int):
        raise ValidationError(f"sun-family n must be an integer, got {n!r}")
    kind = str(params.pop("kind", "antidiagonal"))
    if params:
        raise ValidationError(f"unknown sun-family params: {sorted(params)}")
    fam = catalog.family_sun(n, kind, seed=seed)
    psi0 = np.zeros(n, dtype=complex)
    psi0[0] = 1.0
    record_every = max(int(round(1e-3 / dt)), 1)
    samples = brach.integrate(fam.problem, fam.H0, fam.F0, psi0, t_max, dt,
                              record_every=record_every)
    return _header(n), ([s.t, *s.psi.view(float).tolist(),
                         s.trH2, s.trHF, s.norm] for s in samples)


def _write_text(lines, out) -> None:
    """Write each line and a newline to the file `out` (stdout when out is
    None) as the lines are produced.  A file is written under a temporary
    name beside `out` and renamed only when every line is written, so an
    error while producing them leaves no `out`; stdout keeps the lines
    written before it."""
    text = (line + "\n" for line in lines)
    if not out:
        sys.stdout.writelines(text)
        return
    tmp = f"{out}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(text)
        os.replace(tmp, out)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _json_lines(header, rows):
    """The lines of json.dumps({"columns": header, "rows": rows}, indent=2),
    each row's text made when the row is produced."""
    yield ('{\n  "columns": '
           + json.dumps(header, indent=2).replace("\n", "\n  ") + ",")
    last = None
    for row in rows:
        # a row's closing bracket takes its comma once the next row arrives
        yield '  "rows": [' if last is None else last + ","
        last = "    " + json.dumps(row, indent=2).replace("\n", "\n    ")
    yield '  "rows": []' if last is None else last + "\n  ]"
    yield "}"


def _write_table(header, rows, out, fmt: str) -> int:
    """Write a trajectory table row by row and return its row count.  JSON
    floats print as repr, which is FMT ("%.17g") read back."""
    count = 0

    def counted():
        nonlocal count
        for count, row in enumerate(rows, 1):
            yield row

    if fmt == "json":
        lines = _json_lines(header, counted())
    else:
        line = ",".join([FMT] * len(header))
        lines = itertools.chain([",".join(header)],
                                (line % tuple(row) for row in counted()))
    _write_text(lines, out)
    return count


def _grid(args) -> tuple[float, float]:
    """(t_max, dt) of a run, checked before any work.

    Absent values default to RUN_T_MAX/RUN_DT, or for su3-partitions to the
    census grid.  Both must be finite, with dt > 0, t_max >= dt and at most
    MAX_STEPS steps.
    """
    census = args.scenario == "su3-partitions"
    t_max = args.t_max if args.t_max is not None else (
        catalog.CENSUS_T_MAX if census else RUN_T_MAX)
    dt = args.dt if args.dt is not None else (
        catalog.CENSUS_DT if census else RUN_DT)
    if not (math.isfinite(t_max) and math.isfinite(dt)):
        raise ValidationError("t_max and dt must be finite")
    if dt <= 0 or t_max < dt:
        raise ValidationError("need dt > 0 and t_max >= dt")
    if t_max / dt > MAX_STEPS:
        raise ValidationError(f"t_max / dt exceeds {MAX_STEPS} steps")
    return t_max, dt


def _partition_output(out, fmt: str, t_max: float, dt: float, seed: int):
    results = catalog.su3_partitions(t_max=t_max, dt=dt, seed=seed)
    if fmt == "csv":
        header = ["pair", "description", "classification", "period",
                  "max_excursion"]
        lines = [",".join(header)]
        for r in results:
            lines.append(",".join([
                str(r.index), f'"{r.description}"', r.classification,
                FMT % r.period if r.period is not None else "",
                FMT % r.max_excursion]))
    else:
        lines = [json.dumps([{
            "pair": r.index, "description": r.description,
            "classification": r.classification,
            "period": r.period, "max_excursion": r.max_excursion}
            for r in results], indent=2)]
    _write_text(lines, out)


def cmd_run(args) -> int:
    if args.scenario not in SCENARIO_NAMES:
        print(f"unknown scenario: {args.scenario!r} "
              f"(choose from {', '.join(SCENARIO_NAMES)})", file=sys.stderr)
        return EXIT_UNKNOWN_SCENARIO
    try:
        params = _parse_params(args.param)
        t_max, dt = _grid(args)
        if args.scenario == "su3-partitions":
            if params:
                raise ValidationError("su3-partitions takes no --param")
            _partition_output(args.out, args.format, t_max, dt, args.seed)
            return EXIT_OK
        if args.scenario == "sun-family":
            header, rows = _family_rows(params, t_max, dt, args.seed)
        else:
            builder = catalog.SCENARIO_BUILDERS[args.scenario]
            scn = builder(**params)
            header, rows = _scenario_rows(scn, t_max, dt)
        n_rows = _write_table(header, rows, args.out, args.format)
    except brach.DriftAbort as exc:
        print(f"drift abort: {exc}", file=sys.stderr)
        return EXIT_DRIFT
    # ValidationError is a ValueError; a malformed --param value raises a
    # plain ValueError inside a builder
    except (ValueError, TypeError) as exc:
        print(f"bad parameters: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS
    # the grid is checked, so only an --param can be too large for float
    # arithmetic
    except OverflowError as exc:
        print(f"bad parameters: float overflow with "
              f"{', '.join(args.param or ())} ({exc})", file=sys.stderr)
        return EXIT_BAD_PARAMS
    log.info("wrote %d samples for scenario %s", n_rows, args.scenario)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    # numpy's generators take non-negative seeds only: reject one before
    # any suite runs, as `run` does
    if args.seed < 0:
        print(f"bad parameters: seed must be non-negative, got {args.seed}",
              file=sys.stderr)
        return EXIT_BAD_PARAMS
    env = report.run_suite(args.suite, seed=args.seed)
    if args.format == "json":
        lines = [json.dumps(env.to_dict(), indent=2)]
    else:
        width = max(len(r.id) for r in env.records) + 2
        lines = [f"suite: {env.suite}   version: {env.version}"]
        for r in env.records:
            tol = "" if r.tolerance is None else f"  (tol {r.tolerance:g})"
            lines.append(f"{r.status:13s} {r.id:{width}s} "
                         f"{r.residual:.3e}{tol}")
        n_fail = sum(r.status == "fail" for r in env.records)
        lines.append(f"{len(env.records)} checks, {n_fail} failures")
    _write_text(lines, args.out)
    return EXIT_OK if not env.has_failures() else 1


def cmd_list_scenarios(_args) -> int:
    for name in SCENARIO_NAMES:
        print(name)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbrach",
        description="Time-optimal quantum control: scenario trajectories "
                    "and verification reports.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="sample a scenario trajectory")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--param", action="append", metavar="k=v",
                       help="scenario parameter override (repeatable)")
    p_run.add_argument("--t-max", type=float, default=None,
                       help=f"default {RUN_T_MAX:g}; su3-partitions: "
                            f"{catalog.CENSUS_T_MAX:g}")
    p_run.add_argument("--dt", type=float, default=None,
                       help=f"default {RUN_DT:g}; su3-partitions: "
                            f"{catalog.CENSUS_DT:g}")
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--format", choices=("csv", "json"), default="csv")
    p_run.add_argument("--seed", type=int, default=42)
    p_run.set_defaults(func=cmd_run)

    p_ver = sub.add_parser("verify", help="run a verification sweep")
    p_ver.add_argument("--suite",
                       choices=("gates", "special", "catalog", "all"),
                       default="all")
    p_ver.add_argument("--format", choices=("json", "text"), default="text")
    p_ver.add_argument("--out", default=None)
    p_ver.add_argument("--seed", type=int, default=42,
                       help="seed of the randomized checks")
    p_ver.set_defaults(func=cmd_verify)

    p_list = sub.add_parser("list-scenarios",
                            help="print available scenario names")
    p_list.set_defaults(func=cmd_list_scenarios)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
