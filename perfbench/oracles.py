"""Independent checks of each workload's outputs.

None of them uses qbrach's stepper or `expm_h`.  Each reference solution
comes from scipy's DOP853 at tight tolerances: the brachistochrone flow is
integrated in coordinates over the driver and constraint bases, so it never
forms qbrach's projections, and closed-form states are checked against
i psi' = H(t) psi with the scenario's own `hamiltonian_at`.

Every `check_*` returns (max_err, failures, units): the workload's largest
deviation from its oracle on the pass's fixed reference input, one list of
failure messages per job (empty when the job passed) and the work units its
outputs hold.  Only jobs whose input does not depend on the seed enter
max_err, so that it compares across runs; every job is held to the
tolerances below.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import minimize_scalar

RTOL, ATOL = 1e-12, 1e-14
PSI_TOL = 1e-8          # state rows against the reference solution
INVARIANT_TOL = 1e-9    # Tr H^2 drift, Tr HF, norm - 1
PERIOD_TOL = 1e-5       # census period against 2 pi sqrt(3)
RECURRENCE_TOL = 2e-6   # oracle |H(P) - H0| at a reported period P
MISSED_TOL = 5e-7       # an oracle recurrence this close was not reported
CONSTANT_TOL = 1e-8     # oracle excursion of a "constant" pair
EXCURSION_TOL = 1e-6    # reported max_excursion against the oracle's


class CoefficientFlow:
    """dH/dt = P_D(-i[H, F]), dF/dt = P_C(-i[H, F]), dpsi/dt = -i H psi
    in coordinates over the given (not necessarily orthonormal) bases."""

    def __init__(self, driver, constraint, with_state=True):
        self.D = np.array(driver, dtype=complex)
        self.C = np.array(constraint, dtype=complex)
        self.kd, self.kc = len(self.D), len(self.C)
        self.n = self.D.shape[1]
        self.with_state = with_state
        self._gd = np.linalg.inv(np.einsum("aij,bji->ab", self.D, self.D).real)
        self._gc = np.linalg.inv(np.einsum("aij,bji->ab", self.C, self.C).real)

    def coords(self, basis, X):
        gram = self._gd if basis is self.D else self._gc
        return gram @ np.einsum("kij,ji->k", basis, X).real

    def y0(self, H0, F0, psi0=None):
        parts = [self.coords(self.D, H0), self.coords(self.C, F0)]
        if self.with_state:
            psi0 = np.asarray(psi0, dtype=complex)
            parts += [psi0.real, psi0.imag]
        return np.concatenate(parts)

    def H(self, y):
        """H for a state vector y, or a stack of H for y of shape (dim, m)."""
        return np.tensordot(y[:self.kd].T, self.D, 1)

    def psi(self, y):
        o = self.kd + self.kc
        return (y[o:o + self.n] + 1j * y[o + self.n:]).T

    def __call__(self, t, y):
        H = self.H(y)
        F = np.tensordot(y[self.kd:self.kd + self.kc], self.C, 1)
        G = -1j * (H @ F - F @ H)
        out = [self._gd @ np.einsum("kij,ji->k", self.D, G).real,
               self._gc @ np.einsum("kij,ji->k", self.C, G).real]
        if self.with_state:
            dpsi = -1j * (H @ self.psi(y))
            out += [dpsi.real, dpsi.imag]
        return np.concatenate(out)


def _load_csv(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _state_columns(data, n):
    return data[:, 1:2 * n + 1:2] + 1j * data[:, 2:2 * n + 2:2]


def _expected_rows(t_max, dt, record_every=1):
    steps = max(int(round(t_max / dt)), 1)
    return steps // record_every + (1 if steps % record_every else 0) + 1


# ---------------------------------------------------------------------------
# trajectory: sun-family runs against DOP853 on the same (H0, F0, psi0)
# ---------------------------------------------------------------------------

def check_trajectory(jobs, out_dir, catalog):
    """max_err is the psi deviation of the accuracy reference job."""
    max_err, failures, units = 0.0, [], 0
    for job in jobs:
        m = job.meta
        fails = []
        fam = catalog.family_sun(m["n"], m["kind"], seed=m["seed"])
        n = m["n"]
        psi0 = np.zeros(n, dtype=complex)
        psi0[0] = 1.0
        flow = CoefficientFlow(fam.problem.driver_basis,
                               fam.problem.constraint_basis)
        header, data = _load_csv(f"{out_dir}/{job.label}")
        record_every = max(int(round(1e-3 / m["dt"])), 1)
        rows = _expected_rows(m["t_max"], m["dt"], record_every)
        if data.shape != (rows, 2 * n + 4) or header[-3:] != [
                "trH2", "trHF", "norm"]:
            failures.append([f"{job.label}: table shape {data.shape}, "
                             f"expected ({rows}, {2 * n + 4})"])
            continue
        t = data[:, 0]
        sol = solve_ivp(flow, (0.0, t[-1]), flow.y0(fam.H0, fam.F0, psi0),
                        method="DOP853", rtol=RTOL, atol=ATOL, t_eval=t)
        psi_err = float(np.max(np.abs(_state_columns(data, n)
                                      - flow.psi(sol.y))))
        trH2_0 = float(np.trace(fam.H0 @ fam.H0).real)
        drift = {"psi": psi_err,
                 "trH2": float(np.max(np.abs(data[:, -3] - trH2_0))),
                 "trHF": float(np.max(np.abs(data[:, -2]))),
                 "norm": float(np.max(np.abs(data[:, -1] - 1.0)))}
        for key, val in drift.items():
            tol = PSI_TOL if key == "psi" else INVARIANT_TOL
            if not val <= tol:
                fails.append(f"{job.label}: {key} deviation {val:.3e} > "
                             f"{tol:g}")
        if m["reference"]:
            max_err = max(max_err, psi_err)
        units += job.units
        failures.append(fails)
    return max_err, failures, units


# ---------------------------------------------------------------------------
# census: the four SU(3) splittings, re-integrated and re-searched
# ---------------------------------------------------------------------------

def census_inputs(seed, dt, catalog):
    """(driver, constraint, H0, F0) of the four splittings at this seed.

    They are read from `catalog.su3_partitions` run for a single step, as
    the trajectory oracle reads its inputs from `catalog.family_sun`; only
    the bases and the projected starting point of each result are used.
    """
    return [(r.problem.driver_basis, r.problem.constraint_basis, r.H0, r.F0)
            for r in catalog.su3_partitions(t_max=dt, dt=dt, seed=seed)]


def _recurrences(flow, sol, H0, grid, dist):
    """Refined local minima of |H(t) - H0| once H has moved away."""
    def d_at(t):
        return float(np.max(np.abs(flow.H(sol.sol(t)) - H0)))

    max_exc = float(np.max(dist))
    moved = int(np.argmax(dist > max(1e-3, 0.05 * max_exc)))
    out = []
    if moved == 0:
        return out
    for k in range(moved + 1, len(dist) - 1):
        if dist[k] < 1e-2 and dist[k] <= dist[k - 1] and \
                dist[k] <= dist[k + 1]:
            res = minimize_scalar(d_at, bounds=(grid[k - 1], grid[k + 1]),
                                  method="bounded",
                                  options={"xatol": 1e-12})
            out.append((float(res.x), float(res.fun)))
    return out


def check_census(jobs, out_dir, catalog):
    """max_err is |P2 - 2 pi sqrt(3)|: the seed sets only the phase of pair
    2's constraint, which leaves its period and refinement grid unchanged.
    Before t_max reaches that period it is pair 2's excursion error."""
    (job,) = jobs
    m = job.meta
    fails = []
    with open(f"{out_dir}/{job.label}", encoding="utf-8") as fh:
        reported = json.load(fh)
    if [r.get("pair") for r in reported] != [1, 2, 3, 4]:
        return math.inf, [[f"census: pairs {reported!r}"]], 0
    t_max, dt = m["t_max"], m["dt"]
    n = max(int(round(t_max / dt)), 1)
    grid = dt * np.arange(n + 1)
    max_err = 0.0
    for rep, (d, c, H0, F0) in zip(reported,
                                     census_inputs(m["seed"], dt, catalog)):
        label = f"pair {rep['pair']}"
        flow = CoefficientFlow(d, c, with_state=False)
        sol = solve_ivp(flow, (0.0, grid[-1]), flow.y0(H0, F0),
                        method="DOP853", rtol=RTOL, atol=ATOL,
                        dense_output=True)
        Hs = flow.H(sol.sol(grid))
        dist = np.max(np.abs(Hs - H0), axis=(1, 2))
        max_exc = float(np.max(dist))
        exc_err = abs(rep["max_excursion"] - max_exc)
        if rep["pair"] == 2:
            max_err = exc_err
        if not exc_err <= EXCURSION_TOL:
            fails.append(f"{label}: max_excursion off by {exc_err:.3e}")
        cls, period = rep["classification"], rep["period"]
        if cls == "constant":
            if not max_exc <= CONSTANT_TOL:
                fails.append(f"{label}: constant, but H moves {max_exc:.3e}")
            continue
        if max_exc <= CONSTANT_TOL:
            fails.append(f"{label}: {cls}, but H stays at H0")
            continue
        end = period - 1e-3 if cls == "periodic" else grid[-1] - 2e-3
        missed = [(t, dmin) for t, dmin in _recurrences(flow, sol, H0, grid,
                                                        dist)
                  if dmin < MISSED_TOL and t < end]
        if missed:
            fails.append(f"{label}: recurrence at t={missed[0][0]:.7f} "
                         f"(|H - H0| = {missed[0][1]:.2e}) not reported")
        if cls == "periodic":
            d_p = float(np.max(np.abs(flow.H(sol.sol(period)) - H0)))
            if not d_p <= RECURRENCE_TOL:
                fails.append(f"{label}: |H(P) - H0| = {d_p:.3e} at "
                             f"P = {period}")
        elif cls != "neither":
            fails.append(f"{label}: unknown classification {cls!r}")
    pair2 = reported[1]
    if t_max > 2 * math.pi * math.sqrt(3) + 0.1:
        if pair2["classification"] != "periodic":
            fails.append("pair 2: not periodic")
        else:
            err = abs(pair2["period"] - 2 * math.pi * math.sqrt(3))
            max_err = err
            if not err <= PERIOD_TOL:
                fails.append(f"pair 2: period off 2 pi sqrt(3) by {err:.3e}")
    return max_err, [fails], job.units


# ---------------------------------------------------------------------------
# verify: the ledger's ids and statuses against the seed commit's
# ---------------------------------------------------------------------------

EXPECTED_VERIFY = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               "expected_verify.json")


def check_verify(jobs, out_dir, catalog=None):
    """max_err is the worst residual/tolerance over the pass/fail records;
    units are the report's records."""
    (job,) = jobs
    with open(EXPECTED_VERIFY, encoding="utf-8") as fh:
        suites = json.load(fh)["suites"]
    names = list(suites) if job.meta["suite"] == "all" else [job.meta["suite"]]
    checked = {i for s in names for i in suites[s]["checked"]}
    reported = {i for s in names for i in suites[s]["reported_only"]}
    with open(f"{out_dir}/{job.label}", encoding="utf-8") as fh:
        records = json.load(fh)["records"]
    fails = [f"{r['id']}: fail (residual {r['residual']:.3e})"
             for r in records if r["status"] == "fail"]
    got_checked = {r["id"] for r in records if r["status"] != "reported-only"}
    got_reported = {r["id"] for r in records
                    if r["status"] == "reported-only"}
    if got_checked != checked:
        fails.append(f"checked ids differ: {sorted(got_checked ^ checked)}")
    if got_reported != reported:
        fails.append(f"reported-only ids differ: "
                     f"{sorted(got_reported ^ reported)}")
    ratios = [r["residual"] / r["tolerance"] for r in records
              if r["status"] != "reported-only" and r["tolerance"]]
    return max(ratios, default=0.0), [fails], len(records)


# ---------------------------------------------------------------------------
# closed-form: scenario rows against DOP853 on i psi' = H(t) psi
# ---------------------------------------------------------------------------

def check_closed_form(jobs, out_dir, catalog):
    """max_err is the psi deviation of the scenario run at its defaults."""
    max_err, failures, units = 0.0, [], 0
    for job in jobs:
        m = job.meta
        fails = []
        scn = catalog.SCENARIO_BUILDERS[m["name"]](**m["params"])
        n = scn.dim
        header, data = _load_csv(f"{out_dir}/{job.label}")
        rows = _expected_rows(m["t_max"], m["dt"])
        cols = 2 * n + 4 + (scn.target is not None)
        if data.shape != (rows, cols) or "norm" not in header:
            failures.append([f"{job.label}: table shape {data.shape}, "
                             f"expected ({rows}, {cols})"])
            continue

        def rhs(t, y):
            dpsi = -1j * (scn.hamiltonian_at(t) @ (y[:n] + 1j * y[n:]))
            return np.concatenate([dpsi.real, dpsi.imag])

        t = data[:, 0]
        psi0 = np.asarray(scn.psi0, dtype=complex)
        sol = solve_ivp(rhs, (0.0, t[-1]), np.concatenate([psi0.real,
                                                           psi0.imag]),
                        method="DOP853", rtol=RTOL, atol=ATOL, t_eval=t)
        psi_ref = (sol.y[:n] + 1j * sol.y[n:]).T
        psi_err = float(np.max(np.abs(_state_columns(data, n) - psi_ref)))
        norm_col = data[:, header.index("norm")]
        norm_err = float(np.max(np.abs(norm_col - 1.0)))
        if not psi_err <= PSI_TOL:
            fails.append(f"{job.label}: psi deviation {psi_err:.3e}")
        if not norm_err <= INVARIANT_TOL:
            fails.append(f"{job.label}: norm deviation {norm_err:.3e}")
        if m["reference"]:
            max_err = max(max_err, psi_err)
        units += job.units
        failures.append(fails)
    return max_err, failures, units


CHECKS = {"trajectory": check_trajectory, "census": check_census,
          "verify": check_verify, "closed-form": check_closed_form}
