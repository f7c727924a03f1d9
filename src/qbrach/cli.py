"""Batch command-line front end.

Subcommands:
    run            -- sample a scenario trajectory (or integrate a
                      control family) and write CSV/JSON
    verify         -- run a module verification sweep, emit a report
    list-scenarios -- print the scenario registry

Exit codes: 0 success, 1 verification failure, 2 integrator drift abort,
64 unknown scenario, 65 bad parameters (a rejected command line too).
"""

from __future__ import annotations

import argparse
import itertools
import json
import logging
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
        if key in out:
            raise ValidationError(f"--param {key} is given twice")
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
    n = brach.grid_steps(t_max, dt)

    def rows():
        for start in range(0, n + 1, SAMPLE_BLOCK):
            t = np.minimum(np.arange(start, min(start + SAMPLE_BLOCK, n + 1))
                           * dt, t_max)
            H = scn.hamiltonian_at(t)
            F = scn.constraint_at(t)
            psi = scn.state_at(t)
            cols = [t, psi.view(float),
                    np.einsum("nij,nji->n", H, H).real,
                    np.einsum("nij,nji->n", H, F).real,
                    np.linalg.norm(psi, axis=-1)]
            if scn.target is not None:
                cols.append(np.abs(psi @ scn.target.conj()) ** 2)
            yield from np.column_stack(cols).tolist()

    return _header(scn.dim, scn.target), rows()


def _family_rows(params: dict, t_max: float, dt: float, seed: int):
    """Integrate one randomized control family; each block of
    brach.integrate's samples (at most brach.SAMPLE_BLOCK rows) is turned
    into rows as it is yielded."""
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
    blocks = brach.integrate(fam.problem, fam.H0, fam.F0, psi0, t_max, dt,
                             record_every=record_every)
    return _header(n), (row for s in blocks for row in np.column_stack(
        [s.t, s.psi.view(float), s.trH2, s.trHF, s.norm]).tolist())


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


def _check_args(args) -> None:
    """Reject, before any work, a negative --seed (numpy's generators take
    non-negative seeds only) and an --out that names a directory or lies in
    a directory that does not exist."""
    if args.seed < 0:
        raise ValidationError(f"seed must be non-negative, got {args.seed}")
    out = args.out
    if out and (os.path.isdir(out)
                or not os.path.isdir(os.path.dirname(out) or ".")):
        raise ValidationError(
            f"--out {out!r} is not a file in an existing directory")


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
    """(t_max, dt) of a run, checked by brach.grid_steps before any work.
    Absent values default to RUN_T_MAX/RUN_DT, or for su3-partitions to the
    census grid."""
    census = args.scenario == "su3-partitions"
    t_max = args.t_max if args.t_max is not None else (
        catalog.CENSUS_T_MAX if census else RUN_T_MAX)
    dt = args.dt if args.dt is not None else (
        catalog.CENSUS_DT if census else RUN_DT)
    brach.grid_steps(t_max, dt)
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
        _check_args(args)
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
    try:
        _check_args(args)
    except ValidationError as exc:
        print(f"bad parameters: {exc}", file=sys.stderr)
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

class _Parser(argparse.ArgumentParser):
    """argparse's parser, but a rejected command line exits EXIT_BAD_PARAMS:
    argparse's own status, 2, is a drift abort's.  Subparsers inherit it."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_PARAMS, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qbrach",
        description="Time-optimal quantum control: scenario trajectories "
                    "and verification reports.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="sample a scenario trajectory")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--param", action="append", metavar="k=v",
                       help="scenario parameter override (repeatable, "
                            "once per key)")
    p_run.add_argument("--t-max", type=float, default=None,
                       help=f"default {RUN_T_MAX:g}; su3-partitions: "
                            f"{catalog.CENSUS_T_MAX:g}")
    p_run.add_argument("--dt", type=float, default=None,
                       help=f"default {RUN_DT:g}: the spacing of the rows "
                            "(sun-family records every round(1e-3 / dt)-th "
                            "step, and its accuracy does not depend on "
                            "dt); su3-partitions: the census's RK4 step, "
                            f"default {catalog.CENSUS_DT:g}")
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--format", choices=("csv", "json"), default="csv")
    p_run.add_argument("--seed", type=int, default=42,
                       help="seed of sun-family and su3-partitions; the "
                            "closed-form scenarios ignore it "
                            "(su4-heisenberg takes --param seed)")
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
