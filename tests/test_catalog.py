import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qbrach import brach, catalog
from qbrach.matcore import ValidationError, expm_h
from qbrach.special import fd_derivative


ALL_BUILDERS = list(catalog.SCENARIO_BUILDERS.items())


def _pair2_path(t_max, dt, f_scale=1.0):
    """Census pair 2 at seed 42 (F scaled by f_scale), integrated alone:
    its problem and its coarse path."""
    pair2 = catalog.su3_partitions(t_max=dt, dt=dt, seed=42)[1]
    y0 = pair2.problem.coefficients(pair2.H0, f_scale * pair2.F0)
    return pair2.problem, brach.rk4_path(pair2.problem._terms, y0,
                                         int(round(t_max / dt)), dt)


def _clock(hdot, t_max, dt):
    """A flow whose driver coordinates h follow dh/dt = hdot(t), integrated
    from h = 0: the state is (h, t) and H = diag(h), so |H - H0| is
    max |h - h0|.  Returns the flow's problem and its coarse path, stepped
    by brach.rk4_step (the flow depends on t, so it has no bilinear term
    list for brach.rk4_path)."""
    nd = len(hdot(0.0))
    problem = SimpleNamespace(_driver=np.array([np.diag(e)
                                                for e in np.eye(nd)]),
                              dim=nd,
                              flow=lambda y: np.append(hdot(y[-1]), 1.0))
    ys = [np.zeros(nd + 1)]
    for _ in range(int(round(t_max / dt))):
        ys.append(brach.rk4_step(problem.flow, ys[-1], dt))
    return problem, np.array(ys)


class TestValidation:
    @pytest.mark.parametrize("name,builder", ALL_BUILDERS)
    def test_scenario_self_consistent(self, name, builder):
        rep = catalog.validate(builder())
        assert rep.max_deviation() <= 1e-6, rep.deviations
        # at rounding level: a three-point quotient's truncation error once
        # put it at up to 1.5e-9
        assert rep.deviations["schrodinger_residual"] <= 1e-11

    def test_su2_off_locus_parameters(self):
        rep = catalog.validate(catalog.scenario_su2(1.0, 0.7))
        assert rep.max_deviation() <= 1e-6, rep.deviations

    @pytest.mark.parametrize("builder", [catalog.scenario_su2,
                                         catalog.scenario_su3_geodesic])
    def test_minimum_time_diagnostics_on_locus(self, builder):
        diag = catalog.validate(builder()).diagnostics
        assert {"quantization_0", "quantization_1",
                "transfer_infidelity"} <= set(diag)
        for key, value in diag.items():
            assert 0.0 <= value <= 1e-12, (key, value)

    def test_minimum_time_diagnostics_off_locus(self):
        diag = catalog.validate(catalog.scenario_su2(1.0, 0.7)).diagnostics
        assert diag["quantization_0"] > 0.1

    @pytest.mark.parametrize("scn", [
        catalog.scenario_su2(Omega=-0.5),
        catalog.scenario_su4_heisenberg(lambda_x=-0.7)],
        ids=lambda scn: scn.name)
    def test_negative_frequency(self, scn):
        # a negative frequency once gave a negative period, and validate
        # raised "dt must not exceed t_max"
        assert scn.period > 0
        rep = catalog.validate(scn)
        assert rep.max_deviation() <= 1e-6, rep.deviations

    def test_deterministic(self):
        # every scenario at seed 42; the integrator check runs for each
        # scenario with a control problem, which dirac lacks
        for scn in _seeded(42):
            first, again = catalog.validate(scn), catalog.validate(scn)
            assert first == again
            assert list(first.deviations) == list(again.deviations)
            assert ("integrator_H" in first.deviations) == (
                scn.problem is not None)
        assert catalog.scenario_dirac().problem is None


def _seeded(seed):
    return [builder() if name != "su4-heisenberg" else builder(seed=seed)
            for name, builder in ALL_BUILDERS]


# scenario, constant frame generator A with H(t) = e^{iAt} H(0) e^{-iAt}
FRAME_CASES = [
    ("su2", lambda: catalog.scenario_su2(Omega=0.8), None),
    ("su3-elliptic", catalog.scenario_su3_elliptic, None),
    ("su3-geodesic", catalog.scenario_su3_geodesic, None),
    ("frenet", catalog.scenario_frenet, None),
    ("dirac", catalog.scenario_dirac,
     -np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)),
    ("su4-heisenberg", catalog.scenario_su4_heisenberg,
     np.zeros((4, 4), dtype=complex)),
]


class TestFramePropagator:
    @pytest.mark.parametrize("name,builder,A", FRAME_CASES,
                             ids=[c[0] for c in FRAME_CASES])
    def test_matches_two_exponentials(self, name, builder, A):
        scn = builder()
        H0 = scn.hamiltonian_at(0.0)
        if A is None:
            A = scn.constraint_at(0.0)
        assert np.max(np.abs(A)) > 0 or name == "su4-heisenberg"
        for t in (-1.2, 0.0, 0.37, 5.1, 40.0):
            want = expm_h(A, -t) @ expm_h(H0 + A, t)
            assert np.max(np.abs(scn.propagator_at(t) - want)) < 1e-12, t


# (scenario, time function) for every time function of every scenario
TIME_CASES = [(name, fn_name) for name in catalog.SCENARIO_BUILDERS
              for fn_name in ("hamiltonian_at", "constraint_at",
                              "propagator_at", "state_at")]


class TestTimeArrays:
    """Every time function of a scenario takes an array of times."""

    @pytest.mark.parametrize("name,fn_name", TIME_CASES)
    def test_array_equals_stacked_scalars(self, name, fn_name):
        scn = catalog.SCENARIO_BUILDERS[name]()
        fn = getattr(scn, fn_name)
        ts = np.linspace(-1.0, 2 * scn.period, 50)
        want = np.stack([fn(t) for t in ts.tolist()])
        got = fn(ts)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-15

    @pytest.mark.parametrize("name,fn_name", TIME_CASES)
    def test_scalar_keeps_its_shape(self, name, fn_name):
        scn = catalog.SCENARIO_BUILDERS[name]()
        fn = getattr(scn, fn_name)
        want = (scn.dim,) if fn_name == "state_at" else (scn.dim, scn.dim)
        for t in (0.0, 0.7, np.float64(1.3)):
            assert fn(t).shape == want

    def test_validate_matches_scalar_loop(self):
        # the grid checks of validate, taken one scalar time at a time
        scn = catalog.scenario_dirac()
        rep = catalog.validate(scn)
        grid = np.linspace(0.0, scn.period, 100).tolist()
        schro = max(float(np.max(np.abs(
            1j * fd_derivative(scn.state_at, t, 1)
            - scn.hamiltonian_at(t) @ scn.state_at(t)))) for t in grid)
        trhf = max(abs(float(np.trace(scn.hamiltonian_at(t)
                                      @ scn.constraint_at(t)).real))
                   for t in grid)
        assert rep.deviations["schrodinger_residual"] == pytest.approx(
            schro, rel=1e-12, abs=1e-15)
        assert rep.deviations["trace_HF"] == pytest.approx(
            trhf, rel=1e-12, abs=1e-15)


# every scenario with a ControlProblem except dirac, whose F(t) is not yet
# settled: its co-rotating F leaves a flow residual of 1.6
FLOW_CASES = ["su2", "so3", "su3-elliptic", "su3-geodesic", "frenet",
              "su4-heisenberg"]


class TestFlowEquation:
    @pytest.mark.parametrize("name", FLOW_CASES)
    def test_h_plus_f_obeys_the_flow(self, name):
        # i d(H + F)/dt = [H, F] on 100 times over one period
        scn = catalog.SCENARIO_BUILDERS[name]()
        t = np.linspace(0.0, scn.period, 100)
        dHF = fd_derivative(
            lambda tt: scn.hamiltonian_at(tt) + scn.constraint_at(tt), t, 1)
        H, F = scn.hamiltonian_at(t), scn.constraint_at(t)
        assert np.max(np.abs(1j * dHF - (H @ F - F @ H))) <= 1e-11


class TestSu2:
    def test_min_time_and_transfer(self):
        scn = catalog.scenario_su2(k=1.0, Omega=0.0)
        assert scn.min_time == pytest.approx(np.pi / 2)
        psi = scn.state_at(scn.min_time)
        assert 1 - abs(np.vdot(scn.target, psi)) ** 2 < 1e-12

    @given(st.floats(0.2, 4.0))
    @settings(max_examples=15, deadline=None)
    def test_min_time_scales_with_bound(self, k):
        scn = catalog.scenario_su2(k=k)
        assert scn.min_time * np.sqrt(k) == pytest.approx(np.pi / 2)

    def test_rejects_inconsistent_eps0(self):
        with pytest.raises(ValidationError):
            catalog.scenario_su2(k=1.0, eps0=2.0)


class TestSo3:
    def test_sign_flip_and_period(self):
        scn = catalog.scenario_so3(0.6, 0.8)
        R = scn.extras["R"]
        psi0 = scn.state_at(0.0)
        assert np.max(np.abs(scn.state_at(np.pi / R) + psi0)) < 1e-10
        assert np.max(np.abs(scn.state_at(2 * np.pi / R) - psi0)) < 1e-10

    def test_constraint_is_zero(self):
        scn = catalog.scenario_so3(0.6, 0.8)
        assert np.array_equal(scn.constraint_at(0.37), np.zeros((3, 3)))
        assert np.array_equal(scn.constraint_at(np.linspace(0, 7, 5)),
                              np.zeros((5, 3, 3)))

    def test_middle_component_constant(self):
        scn = catalog.scenario_so3(0.6, 0.8)
        for t in np.linspace(0, 7, 30):
            assert abs(scn.state_at(t)[1]) < 1e-14


class TestElliptic:
    def test_default_delta_starts_at_e1(self):
        scn = catalog.scenario_su3_elliptic()
        assert np.max(np.abs(scn.psi0 - np.eye(3)[0])) < 1e-12

    def test_printed_state_formula_deviates(self):
        # the printed component expressions carry sign/frequency typos;
        # the evaluator is retained for the discrepancy record
        scn = catalog.scenario_su3_elliptic(1.0, 0.8)
        z = scn.extras["z"]
        printed = catalog.elliptic_printed_state(1.0, 0.8, z, 1.3)
        exact = scn.state_at(1.3)
        assert np.max(np.abs(printed - exact)) > 1e-3


class TestGeodesic:
    def test_transfer_time(self):
        scn = catalog.scenario_su3_geodesic(1.0, 1 / np.sqrt(3))
        assert scn.min_time == pytest.approx(np.sqrt(3) * np.pi / 2)
        psi = scn.state_at(scn.min_time)
        assert 1 - abs(psi[2]) ** 2 < 1e-10


class TestFrenet:
    def test_circle_constraint_enforced(self):
        with pytest.raises(ValidationError):
            catalog.scenario_frenet(A=1.0, B=0.5, C=0.7, N=0.9, eta=0.7)

    def test_mirrored_branch_rejected(self):
        # A = -N, C = B keeps K^2 + T^2 constant too, but the frame and the
        # eigenvectors assume A = N, C = -B: validate once gave a
        # Schrodinger residual of 2.1 here
        with pytest.raises(ValidationError, match="A = N and C = -B"):
            catalog.scenario_frenet(A=-1.0, B=0.5, C=0.5, N=1.0)

    @pytest.mark.parametrize("kwargs", [{"B": 0.3}, {"N": 0.8},
                                        {"B": -0.2, "N": 1.5, "eta": 0.4}])
    def test_A_and_C_default_to_the_branch(self, kwargs):
        # the fixed defaults A = 1, C = -0.5 once broke the constraint
        # whenever B or N alone was given
        scn = catalog.scenario_frenet(**kwargs)
        full = {"B": 0.5, "N": 1.0, **kwargs}
        branch = catalog.scenario_frenet(A=full["N"], C=-full["B"], **kwargs)
        assert np.array_equal(scn.hamiltonian_at(0.7),
                              branch.hamiltonian_at(0.7))
        assert catalog.validate(scn).max_deviation() <= 1e-6

    def test_other_point_of_the_branch(self):
        scn = catalog.scenario_frenet(A=0.8, B=-0.3, C=0.3, N=0.8, eta=-1.2)
        rep = catalog.validate(scn)
        assert rep.max_deviation() <= 1e-6, rep.deviations

    def test_eigvector_columns(self):
        scn = catalog.scenario_frenet()
        R = scn.extras["R"]
        for t in (0.0, 0.9):
            H = scn.hamiltonian_at(t)
            plus, zero, minus = scn.extras["eigvecs"](t)
            assert np.max(np.abs(H @ plus - R * plus)) < 1e-10
            assert np.max(np.abs(H @ zero)) < 1e-10
            assert np.max(np.abs(H @ minus + R * minus)) < 1e-10


class TestSu4:
    def test_bell_state(self):
        scn = catalog.scenario_su4_heisenberg(1.0)
        psi = scn.state_at(scn.extras["bell_time"])
        assert 1 - abs(np.vdot(scn.target, psi)) ** 2 < 1e-12

    def test_half_probability_at_pi_eighth(self):
        scn = catalog.scenario_su4_heisenberg(1.0)
        psi = scn.state_at(np.pi / 8)
        assert abs(psi[0]) ** 2 == pytest.approx(0.5, abs=1e-10)
        assert abs(psi[3]) ** 2 == pytest.approx(0.5, abs=1e-10)


class TestDirac:
    def test_unit_norm_precondition(self):
        with pytest.raises(ValidationError):
            catalog.scenario_dirac(alpha=1.0, p_z=1.0)

    def test_involutive_hamiltonian(self):
        scn = catalog.scenario_dirac()
        for t in np.linspace(0, np.pi, 20):
            H = scn.hamiltonian_at(t)
            assert np.max(np.abs(H @ H - np.eye(4))) < 1e-10


def _speed_limit(scn):
    """The quantum speed limit FS / sqrt(Tr H(0)^2 / 2) on reaching the
    scenario's target from psi0, FS = arccos |<target|psi0>|: Tr H^2 is
    fixed along the flow and bounds the energy spread (Mandelstam and
    Tamm; Anandan and Aharonov, PRL 65 (1990) 1697)."""
    fs = np.arccos(min(abs(np.vdot(scn.target, scn.psi0)), 1.0))
    H0 = scn.hamiltonian_at(0.0)
    return fs / np.sqrt(np.trace(H0 @ H0).real / 2)


class TestSpeedLimit:
    @pytest.mark.parametrize("name", [name for name, build in ALL_BUILDERS
                                      if build().target is not None])
    def test_no_claimed_time_below_the_bound(self, name):
        scn = catalog.SCENARIO_BUILDERS[name]()
        claims = [scn.min_time, scn.extras.get("bell_time"),
                  scn.extras.get("printed_min_time_claim")]
        claims = [T for T in claims if T is not None]
        assert claims
        bound = _speed_limit(scn)
        for T in claims:
            assert T >= bound * (1 - 1e-12), (T, bound)

    @pytest.mark.parametrize("name, claim", [("su2", "min_time"),
                                             ("su4-heisenberg", "bell_time")])
    def test_unconstrained_transfer_meets_the_bound(self, name, claim):
        scn = catalog.SCENARIO_BUILDERS[name]()
        T = scn.min_time if claim == "min_time" else scn.extras[claim]
        assert T / _speed_limit(scn) == pytest.approx(1.0, abs=1e-12)

    def test_geodesic_constraint_costs_sqrt3(self):
        scn = catalog.scenario_su3_geodesic()
        assert scn.min_time / _speed_limit(scn) == pytest.approx(
            np.sqrt(3), abs=1e-12)


class TestFamilies:
    @pytest.mark.parametrize("kind",
                             ["antidiagonal", "tridiagonal", "diagonal"])
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_structure(self, n, kind):
        fam = catalog.family_sun(n, kind, seed=42)
        assert np.max(np.abs(fam.H0 - fam.H0.conj().T)) < 1e-12
        assert np.trace(fam.H0 @ fam.H0).real == pytest.approx(2.0)
        # driver/constraint trace-orthogonality is enforced on build
        assert fam.problem.dim == n

    @pytest.mark.parametrize("n", range(2, 9))
    def test_flow_structure_classes(self, n):
        # (some term writes a driver coordinate, some term writes a
        # constraint coordinate) of each kind's projected flow
        expected = {"diagonal": (False, True),
                    "antidiagonal": (False, n > 2),
                    "tridiagonal": (True, n >= 4)}
        for kind, writes in expected.items():
            problem = catalog.family_sun(n, kind).problem
            k, nd = problem._terms[0], len(problem._driver)
            assert (bool(np.any(k < nd)), bool(np.any(k >= nd))) == writes, \
                kind

    @pytest.mark.parametrize("kind", ["diagonal", "antidiagonal"])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_constant_hamiltonian_kinds_match_exact_state(self, n, kind):
        # dh = 0: H stays H0 and psi(t) = e^{-i H0 t} psi0
        fam = catalog.family_sun(n, kind)
        nd = len(fam.problem._driver)
        psi0 = np.zeros(n, dtype=complex)
        psi0[0] = 1.0
        s = brach.evolve(fam.problem, fam.H0, fam.F0, psi0, 1.0, dt=1e-3,
                         record_every=100)
        assert len(s.step) == 11
        for y, t, psi in zip(s.y, s.t, s.psi):
            assert np.array_equal(y[:nd], s.y[0, :nd])
            exact = expm_h(fam.H0, t) @ psi0
            assert np.max(np.abs(psi - exact)) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    def test_constant_constraint_kinds_match_exact_solution(self, n):
        # df = 0 for tridiagonal at n = 2 and 3: F stays F0,
        # H(t) = e^{i F0 t} H0 e^{-i F0 t} and psi(t) = U(t) psi0 with U
        # the co-rotating-frame propagator e^{i F0 t} e^{-i (H0 + F0) t}
        fam = catalog.family_sun(n, "tridiagonal")
        nd = len(fam.problem._driver)
        psi0 = np.zeros(n, dtype=complex)
        psi0[0] = 1.0
        propagator = catalog._frame_propagator(fam.F0, fam.H0)
        s = brach.evolve(fam.problem, fam.H0, fam.F0, psi0, 1.0, dt=1e-3,
                         record_every=100)
        assert len(s.step) == 11
        for y, t, psi in zip(s.y, s.t, s.psi):
            assert np.array_equal(y[nd:], s.y[0, nd:])
            H, _ = fam.problem.matrices(y)
            exact_H = expm_h(fam.F0, -t) @ fam.H0 @ expm_h(fam.F0, t)
            assert np.max(np.abs(H - exact_H)) <= 1e-12
            exact_psi = propagator(t) @ psi0
            assert np.max(np.abs(psi - exact_psi)) <= 1e-12

    def test_seed_reproducible(self):
        a = catalog.family_sun(3, "antidiagonal", seed=7)
        b = catalog.family_sun(3, "antidiagonal", seed=7)
        assert np.array_equal(a.F0, b.F0)

    def test_rejects_bad_kind(self):
        with pytest.raises(ValidationError):
            catalog.family_sun(3, "bogus")


class TestPartitions:
    @pytest.fixture(scope="class")
    @staticmethod
    def results():
        return catalog.su3_partitions(t_max=16.0, dt=2e-3, seed=42)

    def test_constant_pairs(self, results):
        by_index = {r.index: r for r in results}
        assert by_index[1].classification == "constant"
        assert by_index[4].classification == "constant"

    def test_periodic_pairs(self, results):
        by_index = {r.index: r for r in results}
        assert by_index[2].classification == "periodic"
        assert by_index[2].period == pytest.approx(2 * np.pi * np.sqrt(3),
                                                   abs=1e-10)
        assert by_index[3].classification == "periodic"
        assert by_index[3].period == pytest.approx(14.2283276, abs=1e-7)

    def test_recurrence_on_first_step_of_a_hundred(self):
        # at this dt pair 2's period 2 pi sqrt(3) falls just before coarse
        # step 10000, whose bracket starts on the stored row 9999
        dt = 2 * np.pi * np.sqrt(3) / 9999.7
        problem, ys = _pair2_path(12.0, dt)
        cls, period, _ = catalog._classify_flow(problem, ys, dt)
        assert cls == "periodic"
        assert period == pytest.approx(2 * np.pi * np.sqrt(3), abs=1e-10)

    @pytest.mark.parametrize("t_max, dt", [
        (-1.0, 1e-3), (0.0, 1e-3), (1.0, -1e-3), (1.0, 0.0), (1.0, math.nan),
        (math.nan, 1e-3), (math.inf, 1e-3), (1.0, math.inf), (4e-4, 1e-3),
        (1e9, 1e-3)])
    def test_bad_grid_rejected(self, t_max, dt):
        # these once took no step (t_max 0) or died in numpy or Python with
        # a negative dimension, a ZeroDivisionError or an OverflowError;
        # t_max 4e-4 (round(0.4) steps) once took one step, and a grid
        # over matcore.MAX_STEPS was capped in `run` only
        with pytest.raises(ValidationError):
            catalog.su3_partitions(t_max=t_max, dt=dt)

    @pytest.mark.parametrize("seed, dt", [
        (3, 5e-2), (5, 5e-2), (42, 0.1), (7, 0.3), (3, 0.1)])
    def test_coarse_grid_finds_the_first_recurrence(self, seed, dt):
        # a fixed candidate window of 1e-2 let the grid step over the first
        # recurrences: pair 3 came out at 2x to 4x its period
        results = catalog.su3_partitions(t_max=50.0, dt=dt, seed=seed)
        pair2, pair3 = results[1], results[2]
        F0 = pair3.F0
        assert pair3.classification == "periodic"
        assert pair3.period == pytest.approx(
            2 * np.pi / abs(F0[0, 0] - F0[2, 2]), abs=1e-5)
        assert pair2.classification == "neither" or pair2.period == \
            pytest.approx(2 * np.pi * np.sqrt(3), abs=1e-5)

    @pytest.mark.parametrize("dt", [1.0, 10.0])
    def test_diverging_path_aborts(self, dt):
        # Tr H^2 = |h|^2 is conserved, but at these steps RK4 leaves it:
        # pairs 2 and 3 were once classified (as neither) all the same
        with pytest.raises(brach.DriftAbort) as info:
            catalog.su3_partitions(t_max=50.0, dt=dt)
        d = info.value.diagnostics
        assert set(d) == {"t", "step", "trH2_drift"}
        assert d["t"] == d["step"] * dt and d["step"] >= 1
        assert not d["trH2_drift"] <= brach.DRIFT_ABORT
        assert str(info.value).startswith("census pair 2: ")

    def test_first_bad_row_aborts(self):
        # a path that holds still, except pair 1's h doubled from row 5 and
        # a NaN in pair 3's f (Tr H^2 stays put) from row 3
        results = catalog.su3_partitions(t_max=1e-3, dt=1e-3)
        problems = [r.problem for r in results]
        _, y0, cols = brach._joined([(p._terms, p.coefficients(r.H0, r.F0))
                                     for p, r in zip(problems, results)])
        paths = np.tile(y0, (8, 1))
        h1 = slice(cols[0].start, cols[0].start + 2)
        f3 = cols[2].stop - 1
        paths[5:, h1] *= 2
        catalog._check_drift(problems, paths[:5], cols, 0.5)
        paths[3:, f3] = np.nan
        with pytest.raises(brach.DriftAbort) as info:
            catalog._check_drift(problems, paths, cols, 0.5)
        assert info.value.diagnostics == {"t": 1.5, "step": 3,
                                          "trH2_drift": 0.0}
        assert str(info.value).startswith("census pair 3: ")
        paths[3:, f3] = y0[f3]
        with pytest.raises(brach.DriftAbort) as info:
            catalog._check_drift(problems, paths, cols, 0.5)
        assert info.value.diagnostics == {"t": 2.5, "step": 5,
                                          "trH2_drift": 3.0}
        assert str(info.value).startswith("census pair 1: ")

    @pytest.mark.parametrize("seed", [42, 7, 1001])
    def test_structural_classes(self, seed):
        # (some term writes a driver coordinate, some term writes a
        # constraint coordinate): pairs 1 and 4 have dh = 0, so H stays H0
        # exactly; pair 2 has df = 0, so H(t) = e^{iF0 t} H0 e^{-iF0 t}
        # recurs at 2 pi / (smallest eigenvalue gap of F0); pair 3 has both
        results = catalog.su3_partitions(t_max=11.0, dt=2e-3, seed=seed)
        writes = []
        for r in results:
            k, nd = r.problem._terms[0], len(r.problem._driver)
            writes.append((bool(np.any(k < nd)), bool(np.any(k >= nd))))
        assert writes == [(False, True), (True, False), (True, True),
                          (False, True)]
        assert results[0].max_excursion == 0.0
        assert results[3].max_excursion == 0.0
        gaps = np.diff(np.linalg.eigvalsh(results[1].F0))
        assert results[1].period == pytest.approx(
            2 * np.pi / np.min(gaps[gaps > 1e-12]), abs=1e-10)

    @pytest.mark.parametrize("seed", [42, 1001])
    def test_batched_path_matches_each_pair_alone(self, seed, monkeypatch):
        # the census steps its four pairs as one batch; each pair's slice of
        # that path must be the path of the pair integrated on its own
        paths = []
        classify = catalog._classify_flow

        def spy(problem, ys, dt):
            paths.append(ys.copy())
            return classify(problem, ys, dt)

        monkeypatch.setattr(catalog, "_classify_flow", spy)
        results = catalog.su3_partitions(t_max=15.0, dt=1e-3, seed=seed)
        assert [r.classification for r in results] == \
            ["constant", "periodic", "periodic", "constant"]
        for r, ys in zip(results, paths):
            alone = brach.rk4_path(r.problem._terms,
                                   r.problem.coefficients(r.H0, r.F0),
                                   15000, 1e-3)
            np.testing.assert_allclose(ys, alone, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("seed", [42, 7, 1001])
    def test_steps_the_start_it_reports(self, seed, monkeypatch):
        # the census's start is each result's (H0, F0) in its problem's
        # coordinates, pair after pair, to the bit: a check that integrates
        # a reported start on its own integrates what the census stepped
        starts = []
        rk4_path = brach.rk4_path

        def spy(terms, z, n_steps, dt):
            starts.append(z.copy())
            return rk4_path(terms, z, n_steps, dt)

        monkeypatch.setattr(catalog, "rk4_path", spy)
        results = catalog.su3_partitions(t_max=1e-2, dt=1e-3, seed=seed)
        assert len(starts) == 1
        assert np.array_equal(starts[0], np.concatenate(
            [r.problem.coefficients(r.H0, r.F0) for r in results]))

    @pytest.mark.parametrize("miss,classification",
                             [(1e-4, "neither"), (1e-7, "periodic")])
    def test_refined_distance_decides_recurrence(self, miss, classification):
        # h = (sin pi t, miss t) crosses back past h0 at t = 1 at distance
        # miss: the root there counts only if H is within 1e-6 of H0
        problem, ys = _clock(lambda t: [np.pi * np.cos(np.pi * t), miss],
                             1.2, 1e-3)
        cls, period, _ = catalog._classify_flow(problem, ys, 1e-3)
        assert cls == classification
        if cls == "periodic":
            assert period == pytest.approx(1.0, abs=1e-12)

    def test_small_excursion_is_not_constant(self):
        # with F scaled down H drifts slowly: it moves, so it is not
        # constant, but never 1e-3 away, so no recurrence is searched for
        problem, ys = _pair2_path(1.0, 1e-3, f_scale=1e-5)
        cls, period, max_exc = catalog._classify_flow(problem, ys, 1e-3)
        assert 1e-10 < max_exc < 1e-3
        assert (cls, period) == ("neither", None)

    def test_recurrence_counts_once_five_percent_away(self):
        # h = 0.1 sin(10 pi t) makes a small loop (10 % of the largest
        # excursion) back through h0 at t = 0.1, then h = -sin(pi (t - 0.1))
        # makes the largest excursion, to -1 at t = 0.6
        def hdot(t):
            return np.pi * (np.cos(10 * np.pi * t) if t <= 0.1
                            else -np.cos(np.pi * (t - 0.1)))

        problem, ys = _clock(lambda t: [hdot(t)], 0.6, 1e-3)
        cls, period, max_exc = catalog._classify_flow(problem, ys, 1e-3)
        assert max_exc == pytest.approx(1.0)
        assert cls == "periodic"
        assert period == pytest.approx(0.1, abs=1e-12)

    def test_candidate_without_sign_change_is_rejected(self):
        # h = 1 - cos(2 pi t / P) is still closing on h0 when the grid ends
        # at t = 1 < P: g < 0 across the last candidate's bracket, so it is
        # no recurrence, although H at the grid's end is within 1e-6 of H0
        w = 2 * np.pi / 1.0001
        problem, ys = _clock(lambda t: [w * np.sin(w * t)], 1.0, 1e-3)
        assert catalog._h_distances(problem, ys[-1:], ys[0])[0] < 1e-6
        cls, period, _ = catalog._classify_flow(problem, ys, 1e-3)
        assert (cls, period) == ("neither", None)
