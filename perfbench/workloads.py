"""Workload plans: the qbrach argv lists one pass runs, made from the seed.

A pass is a list of jobs, each one `qbrach.cli.main(argv + ["--out", path])`
call.  The plan is a pure function of (workload, seed, tiny), uses only the
standard library (it runs inside the timed set-up of the workload process),
and carries in `meta` everything an oracle needs to rebuild the job's input.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field

# The workloads BENCHMARK.json declares, in its order.
WORKLOADS = ("trajectory", "census", "verify", "closed-form")

# The census must run past the longest recurrence period it is meant to find
# (pair 3 at seed 42 recurs at t = 14.228), so both refinements run.
CENSUS_T_MAX = 15.0
CENSUS_DT = 1e-3

# (n, kind, t_max, dt): every step is recorded at dt = 1e-3 and every tenth
# step at dt = 1e-4 (the CLI records at 1e-3 spacing).  The last two rows
# include the ROADMAP timing case n=6 tridiagonal, t_max=1, dt=1e-4.
TRAJECTORY_MIX = (
    *((n, kind, 0.3, 1e-3) for n in (4, 6, 8)
      for kind in ("antidiagonal", "tridiagonal", "diagonal")),
    (6, "tridiagonal", 1.0, 1e-4),
    (8, "antidiagonal", 0.1, 1e-4),
)
TRAJECTORY_TINY = ((4, "antidiagonal", 0.02, 1e-3),
                   (6, "tridiagonal", 0.02, 1e-3),
                   (8, "diagonal", 0.005, 1e-4))
# The accuracy reference: the ROADMAP case at its default seed and a 100x
# coarser step, where RK4's truncation error (about 5e-11) dominates
# round-off.  At dt <= 1e-3 the error is at round-off level (1e-13) and
# would move with any reordering of floating-point operations.
TRAJECTORY_REFERENCE = (6, "tridiagonal", 1.0, 1e-2)
TRAJECTORY_REFERENCE_TINY = (6, "tridiagonal", 0.05, 1e-2)

# One period of each catalog scenario at its default frequencies; the
# seeded parameters below change phases and amplitudes, never the period.
SCENARIO_PERIODS = {
    "su2": 2 * math.pi,
    "so3": 2 * math.pi,
    "su3-elliptic": 2 * math.pi,
    "su3-geodesic": 2 * math.pi * math.sqrt(3),
    "frenet": 2 * math.pi / 0.7,
    "su4-heisenberg": math.pi,
    "dirac": math.pi,
}
CLOSED_FORM_DT = 1e-3
CLOSED_FORM_TINY_T = 0.05


@dataclass(frozen=True)
class Job:
    label: str               # output file name, unique within a pass
    argv: tuple              # qbrach argv without --out
    units: int               # work units (see README.md)
    meta: dict = field(default_factory=dict)


def n_steps(t_max: float, dt: float) -> int:
    """The step count qbrach uses for (t_max, dt)."""
    return max(int(round(t_max / dt)), 1)


def _complex_arg(z: complex) -> str:
    return f"{z.real!r}{z.imag:+.17g}j"


def _trajectory(seed: int, tiny: bool) -> list[Job]:
    rng = random.Random(seed)
    mix = [(*cfg, rng.randrange(1, 2**31))
           for cfg in (TRAJECTORY_TINY if tiny else TRAJECTORY_MIX)]
    mix.append((*(TRAJECTORY_REFERENCE_TINY if tiny
                  else TRAJECTORY_REFERENCE), None))
    jobs = []
    for i, (n, kind, t_max, dt, cli_seed) in enumerate(mix):
        argv = ("run", "--scenario", "sun-family", "--param", f"n={n}",
                "--param", f"kind={kind}", "--t-max", repr(t_max),
                "--dt", repr(dt), "--format", "csv")
        if cli_seed is not None:
            argv += ("--seed", str(cli_seed))
        jobs.append(Job(f"{i:02d}-sun{n}-{kind}.csv", argv,
                        n_steps(t_max, dt),
                        {"n": n, "kind": kind, "t_max": t_max, "dt": dt,
                         "seed": 42 if cli_seed is None else cli_seed,
                         "reference": cli_seed is None}))
    return jobs


def _census(seed: int, tiny: bool) -> list[Job]:
    t_max = 1.0 if tiny else CENSUS_T_MAX
    argv = ("run", "--scenario", "su3-partitions", "--t-max", repr(t_max),
            "--dt", repr(CENSUS_DT), "--format", "json", "--seed", str(seed))
    return [Job("census.json", argv, 4 * n_steps(t_max, CENSUS_DT),
                {"t_max": t_max, "dt": CENSUS_DT, "seed": seed})]


def _verify(seed: int, tiny: bool) -> list[Job]:
    suite = "gates" if tiny else "all"
    # --seed is parsed but not passed on by qbrach 0.1.0; it is sent anyway
    # so that the workload follows the CLI once it is.
    argv = ("verify", "--suite", suite, "--format", "json",
            "--seed", str(seed))
    return [Job("verify.json", argv, 0, {"suite": suite, "seed": seed})]


def _closed_form(seed: int, tiny: bool) -> list[Job]:
    rng = random.Random(seed)

    def phase():
        return cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))

    b = rng.uniform(0.3, 0.7)
    params = {
        "su2": {"eps0": rng.choice((1j, -1j))},
        "so3": {"eps": 0.8 * phase()},
        "su3-elliptic": {},
        "su3-geodesic": {"eps1_0": phase(), "kappa": phase() / math.sqrt(3)},
        "frenet": {"B": b, "C": -b},
        "su4-heisenberg": {"seed": rng.randrange(1, 2**31)},
        "dirac": {"eps": math.sqrt(0.5) * phase()},
    }
    names = list(SCENARIO_PERIODS)
    rng.shuffle(names)
    jobs = []
    for i, name in enumerate(names):
        t_max = CLOSED_FORM_TINY_T if tiny else SCENARIO_PERIODS[name]
        argv = ["run", "--scenario", name, "--t-max", repr(t_max),
                "--dt", repr(CLOSED_FORM_DT), "--format", "csv"]
        for key, val in params[name].items():
            text = _complex_arg(val) if isinstance(val, complex) else repr(val)
            argv += ["--param", f"{key}={text}"]
        jobs.append(Job(f"{i}-{name}.csv", tuple(argv),
                        n_steps(t_max, CLOSED_FORM_DT) + 1,
                        {"name": name, "params": params[name],
                         "t_max": t_max, "dt": CLOSED_FORM_DT,
                         "reference": not params[name]}))
    return jobs


PLANS = {"trajectory": _trajectory, "census": _census, "verify": _verify,
         "closed-form": _closed_form}


def plan(workload: str, seed: int, tiny: bool = False) -> list[Job]:
    return PLANS[workload](seed, tiny)
