"""End-to-end acceptance checks: closed forms against the integrator,
invariant preservation, gate identities, exact polynomial identities,
special-function oracles, and the reported-only discrepancy records."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from qbrach import brach, catalog, gates, report, special
from qbrach.special import Polynomial, RationalFunction


@pytest.fixture(scope="session")
def gates_report():
    return report.verify_gates()


@pytest.fixture(scope="session")
def full_report():
    return report.run_suite("all")


class TestTwoLevelMinimumTime:
    def test_quantized_minimum_time(self):
        scn = catalog.scenario_su2(k=1.0)
        assert abs(scn.min_time * 1.0 - np.pi / 2) < 1e-14

    def test_transfer_at_minimum_time(self):
        scn = catalog.scenario_su2(k=1.0)
        psi = scn.state_at(scn.min_time)
        assert 1 - abs(np.vdot(scn.target, psi)) ** 2 <= 1e-8

    def test_integrator_matches_rotating_hamiltonian(self):
        scn = catalog.scenario_su2(k=1.0, Omega=0.7)
        traj = brach.evolve(scn.problem, scn.hamiltonian_at(0.0),
                            scn.constraint_at(0.0), scn.psi0,
                            scn.min_time, dt=1e-4, record_every=50)
        Hs = scn.problem.matrices(traj.y)[0]
        err = max(float(np.max(np.abs(H - scn.hamiltonian_at(t))))
                  for t, H in zip(traj.t, Hs))
        assert err <= 1e-6


class TestGeodesicTransfer:
    def test_transfer_time(self):
        scn = catalog.scenario_su3_geodesic(1.0, 1 / np.sqrt(3))
        T = np.sqrt(3) * np.pi / 2
        assert abs(scn.min_time - T) < 1e-12
        psi = scn.state_at(T)
        assert 1 - abs(psi[2]) ** 2 <= 1e-8

    def test_integrator_matches_closed_form(self):
        scn = catalog.scenario_su3_geodesic(1.0, 1 / np.sqrt(3))
        rep = catalog.validate(scn)
        assert rep.deviations["integrator_H"] <= 1e-6
        assert rep.deviations["integrator_state"] <= 1e-6


class TestRotorPeriodicity:
    def test_sign_flip_and_recurrence(self):
        scn = catalog.scenario_so3(0.6, 0.8)
        R = scn.extras["R"]
        psi0 = scn.state_at(0.0)
        assert np.max(np.abs(scn.state_at(np.pi / R) + psi0)) <= 1e-8
        assert np.max(np.abs(scn.state_at(2 * np.pi / R) - psi0)) <= 1e-8

    def test_middle_component_constant(self):
        scn = catalog.scenario_so3(0.6, 0.8)
        c2 = [scn.state_at(t)[1] for t in np.linspace(0, 7, 100)]
        assert max(abs(c - c2[0]) for c in c2) <= 1e-12


class TestInvariants:
    BOUNDS = dict(trH2=1e-8, trHF=1e-8, eig=1e-7, norm=1e-10)

    def check_trajectory(self, traj):
        assert np.max(traj.trH2_drift) <= self.BOUNDS["trH2"]
        assert np.max(traj.trHF_residual) <= self.BOUNDS["trHF"]
        assert np.max(traj.eigenvalue_drift) <= self.BOUNDS["eig"]
        assert np.max(traj.norm_drift) <= self.BOUNDS["norm"]

    @pytest.mark.parametrize("name", [n for n in catalog.SCENARIO_BUILDERS
                                      if n != "dirac"])
    def test_scenario_invariants(self, name):
        scn = catalog.SCENARIO_BUILDERS[name]()
        traj = brach.evolve(scn.problem, scn.hamiltonian_at(0.0),
                            scn.constraint_at(0.0), scn.psi0, scn.period,
                            dt=1e-3, record_every=10)
        self.check_trajectory(traj)

    def test_dirac_invariants_closed_form(self):
        # no trace-orthogonal driver/constraint split exists here, so the
        # invariants are checked on the closed-form flow itself
        scn = catalog.scenario_dirac()
        grid = np.linspace(0.0, scn.period, 100)
        trH2_0 = np.trace(scn.hamiltonian_at(0.0) @ scn.hamiltonian_at(0.0)).real
        eig0 = np.linalg.eigvalsh(scn.hamiltonian_at(0.0))
        for t in grid:
            H = scn.hamiltonian_at(t)
            assert abs(np.trace(H @ H).real / trH2_0 - 1.0) <= 1e-8
            assert np.max(np.abs(np.linalg.eigvalsh(H) - eig0)) <= 1e-7
            assert abs(np.linalg.norm(scn.state_at(t)) - 1.0) <= 1e-10

    @pytest.mark.parametrize("kind",
                             ["antidiagonal", "tridiagonal", "diagonal"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_family_invariants(self, n, kind):
        fam = catalog.family_sun(n, kind, seed=42)
        psi0 = np.zeros(n, dtype=complex)
        psi0[0] = 1.0
        traj = brach.evolve(fam.problem, fam.H0, fam.F0, psi0, 1.0,
                            dt=1e-3, record_every=10)
        self.check_trajectory(traj)


class TestExchangeBellState:
    def test_bell_infidelity(self):
        scn = catalog.scenario_su4_heisenberg(1.0)
        psi = scn.state_at(np.pi / 8)
        assert 1 - abs(np.vdot(scn.target, psi)) ** 2 <= 1e-8

    def test_coupling_constant_under_integrator(self):
        scn = catalog.scenario_su4_heisenberg(1.0)
        H0 = scn.hamiltonian_at(0.0)
        traj = brach.evolve(scn.problem, H0, scn.constraint_at(0.0),
                            scn.psi0, scn.extras["bell_time"], dt=1e-3,
                            record_every=10)
        drift = max(float(np.max(np.abs(H - H0)))
                    for H in scn.problem.matrices(traj.y)[0])
        assert drift <= 1e-10


class TestDiracStructure:
    def test_involution(self):
        scn = catalog.scenario_dirac()
        for t in np.linspace(0.0, np.pi, 100):
            H = scn.hamiltonian_at(t)
            assert np.max(np.abs(H @ H - np.eye(4))) <= 1e-10

    def test_periodicity(self):
        scn = catalog.scenario_dirac()
        for t in np.linspace(0.0, np.pi, 100):
            assert np.max(np.abs(scn.hamiltonian_at(t + np.pi)
                                 - scn.hamiltonian_at(t))) <= 1e-10


class TestGates:
    def test_all_claimed_unitaries(self, gates_report):
        checks = [r for r in gates_report.records
                  if "-unitary-" in r.id and r.status != "reported-only"]
        assert checks
        assert all(r.residual <= 1e-12 for r in checks)

    def test_dft_matrix_identities(self):
        rep = gates.dft_checks()
        assert rep["R_fourth_root"] <= 1e-14
        assert rep["RtR_permutation"] <= 1e-14

    def test_dihedral_closure(self):
        closure = gates.group_closure(gates.dihedral_generators())
        assert closure["order"] == 6
        assert not closure["abelian"]

    def test_quarter_angle_fourth_power(self):
        J0 = gates.j_gate(0.0)
        target = np.diag([-1.0, -1.0, 1.0])
        assert np.max(np.abs(np.linalg.matrix_power(J0, 4)
                             - target)) <= 1e-12

    def test_conjugation_to_sigma_z(self):
        M = gates.conjugation_to_sigma_z(0.9)
        assert np.max(np.abs(M - np.diag([1.0, -1.0]))) <= 1e-14


@pytest.fixture(scope="module")
def polys():
    return special.ell_polys()


class TestExactIdentities:
    def test_sum_identity(self, polys):
        assert polys["report"]["Q_equals_q_plus_P33"]

    def test_substitution_identity(self, polys):
        assert polys["report"]["b4_of_z2_equals_b1"]

    def test_residues(self, polys):
        p = polys["polys"]
        r1 = special.residue_at_origin(RationalFunction(p["b_q"], p["r_q"]))
        assert r1["exact"] == 1 and r1["agreement"] <= 1e-12
        r2 = special.residue_at_origin(RationalFunction(p["b_p"], p["r_p"]))
        assert r2["exact"] * 4 == 1 and r2["agreement"] <= 1e-12
        r3 = special.residue_at_origin(RationalFunction(p["b_Q"], p["r_Q"]))
        assert r3["exact"] * 32 == -1 and r3["agreement"] <= 1e-12

    def test_weight_integral(self, polys):
        val = special.gauss_chebyshev_integral(polys["polys"]["b1"])
        target = 12331 * np.pi / 128
        assert abs(val - target) / abs(target) <= 1e-10

    def test_marginal_limit(self):
        rep = special.weighted_integrals(special.ell_polys()["polys"]["b1"])
        assert rep["marginal_limit"] == -144


class TestSpecialFunctions:
    def test_chebyshev_ode(self):
        for m in range(11):
            assert special.cheb_ode_residual(m, 0.3) <= 1e-8

    def test_bessel_self_convergence(self):
        for n, r in ((0, 1.5), (2, 3.7), (10, 20.0), (32, 50.0)):
            assert abs(special.bessel_J(n, r, 512)
                       - special.bessel_J(n, r, 1024)) <= 1e-12

    def test_spinwave_vs_lattice(self):
        for t in (1.0, 3.0, 5.0):
            C = special.spinwave_lattice_oracle(t)
            mid = C.size // 2
            for dq in range(-10, 11):
                K = special.greens_spinwave(dq, t)
                assert abs(abs(C[mid + dq]) - abs(K)) <= 1e-6

    def test_oscillator_ode(self):
        for z in np.linspace(-0.9, 0.9, 19):
            assert special.oscillator_ode_residual(z, 0.8) <= 1e-8


class TestDiscrepancyLedger:
    REQUIRED = ("residue-bQ-printed", "eigenreflection-sum-identity",
                "triangular-commutator-printed",
                "bessel-inner-product-printed", "su4-min-time-printed")

    def test_reported_only_records_present(self, full_report):
        by_id = {r.id: r for r in full_report.records}
        for rid in self.REQUIRED:
            assert rid in by_id, f"missing discrepancy record {rid}"
            assert by_id[rid].status == "reported-only"

    def test_reported_only_never_fails_suite(self, full_report):
        assert not full_report.has_failures()
        for r in full_report.records:
            if r.id in self.REQUIRED:
                assert r.status not in ("pass", "fail")

    @pytest.mark.parametrize("rid", [
        "chebyshev-ode-residual", "bessel-ode-residual",
        "spinwave-lattice-recursion", "oscillator-first-order-ode",
        "oscillator-second-order-ode", "cosine-frame-second-order",
        "cosine-frame-first-order-corrected"])
    def test_derivative_records_far_inside_tolerance(self, rid,
                                                     full_report):
        # a residual near its tolerance measures the stencil, not the
        # closed form: oscillator-first-order-ode once sat at 0.57 of it
        rec = {r.id: r for r in full_report.records}[rid]
        assert rec.residual <= 0.1 * rec.tolerance

    def test_a_record_without_tolerance_is_reported_only(self):
        # one value decides the status: add(id, r) once raised TypeError
        env = report.ReportEnvelope("probe")
        env.add("no-tolerance", 5.0)
        env.add("within", 0.0, 0.0)
        env.add("beyond", 2.0, 1.0)
        assert [(r.status, r.tolerance) for r in env.records] == [
            ("reported-only", None), ("pass", 0.0), ("fail", 1.0)]


def test_verify_runs_without_mpmath():
    # a None entry in sys.modules makes any import of mpmath raise
    prelude = ("import sys; sys.modules['mpmath'] = None; "
               "from qbrach.cli import main; sys.exit(main(sys.argv[1:]))")
    env = dict(os.environ)
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", prelude, "verify", "--suite", "all",
         "--seed", "42", "--format", "json"],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    records = json.loads(proc.stdout)["records"]
    assert records
    assert not [r["id"] for r in records if r["status"] == "fail"]
