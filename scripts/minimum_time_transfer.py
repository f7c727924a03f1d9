#!/usr/bin/env python3
"""Sweep transfer fidelity against evolution time for the two-level and
three-level geodesic scenarios and report the first time the target is
reached, alongside the closed-form minimum-time prediction."""

import numpy as np

from qbrach import catalog


def sweep(scn, t_lo, t_hi, n=2001):
    ts = np.linspace(t_lo, t_hi, n)
    fids = np.abs(scn.state_at(ts) @ scn.target.conj()) ** 2
    return ts, fids


def main():
    print("== two-level transfer (k=1, Omega=0) ==")
    scn = catalog.scenario_su2(k=1.0, Omega=0.0)
    ts, fids = sweep(scn, 0.0, np.pi)
    i = int(np.argmax(fids))
    print(f"predicted T_min = {scn.min_time:.9f} (pi/2 = {np.pi/2:.9f})")
    print(f"grid optimum    = {ts[i]:.9f}  fidelity {fids[i]:.12f}")

    print("\n== three-level geodesic transfer (R=1, |kappa|=1/sqrt(3)) ==")
    scn = catalog.scenario_su3_geodesic(1.0, 1 / np.sqrt(3))
    ts, fids = sweep(scn, 0.0, 2 * np.pi)
    i = int(np.argmax(fids))
    print(f"predicted T_min = {scn.min_time:.9f} "
          f"(sqrt(3) pi/2 = {np.sqrt(3)*np.pi/2:.9f})")
    print(f"grid optimum    = {ts[i]:.9f}  fidelity {fids[i]:.12f}")

    print("\n== two-qubit exchange: maximally entangled state ==")
    scn = catalog.scenario_su4_heisenberg(1.0)
    tb = scn.extras["bell_time"]
    psi = scn.state_at(tb)
    fid = abs(np.vdot(scn.target, psi)) ** 2
    print(f"bell time pi/(8 lx) = {tb:.9f}  fidelity {fid:.12f}")
    print(f"(printed claim pi/lx = {scn.extras['printed_min_time_claim']:.9f}"
          " is reported-only; see the verification sweep)")


if __name__ == "__main__":
    main()
