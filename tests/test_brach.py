import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qbrach import brach, catalog
from qbrach.matcore import ValidationError, check_hermitian, expm_h

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.diag([1.0, -1.0]).astype(complex)


def su2_problem():
    return brach.ControlProblem(
        dim=2,
        driver_basis=[SX / np.sqrt(2), SY / np.sqrt(2)],
        constraint_basis=[SZ / np.sqrt(2)])


KINDS = ("antidiagonal", "tridiagonal", "diagonal")


def commutator(A, B):
    return A @ B - B @ A


def projection(basis, A):
    """A projected onto the span of an orthonormal basis under Tr(A B)."""
    return sum((np.trace(E @ A) * E for E in basis), np.zeros_like(A))


def matrix_rhs(problem, H, F):
    """The flow's matrix form: -i[H, F] projected onto the driver and the
    constraint subspace."""
    C = -1j * commutator(H, F)
    return (projection(problem._driver, C),
            projection(problem._constraint, C))


def reference_samples(problem, H0, F0, psi0, t_max, dt, record_every):
    """integrate's samples made one at a time: each recorded state read
    alone from the run's Taylor path, each invariant by its own numpy call
    on one state, each yielded as a Samples of scalars (one row); raises
    DriftAbort as integrate does."""
    n, nd = problem.dim, len(problem._driver)
    y0 = problem.coefficients(H0, F0)
    m = len(y0)
    terms = tuple(map(np.concatenate,
                      zip(problem._terms, brach._psi_terms(problem, m))))
    X = problem._cross_gram
    B = np.concatenate([problem._driver, problem._constraint]).reshape(m, -1)
    trH2_0 = float(y0[:nd] @ y0[:nd])
    trH2_scale = max(abs(trH2_0), 1e-30)
    eig0 = np.linalg.eigvalsh((y0 @ B).reshape(n, n))
    eig_scale = max(np.max(np.abs(eig0)), 1e-30)
    n_steps = max(int(round(t_max / dt)), 1)

    def sample(step, z):
        y, w = z[:m], z[m:]
        h = y[:nd]
        trH2 = float(h @ h)
        trHF = float(h @ X @ y[nd:])
        norm = math.sqrt(w @ w)
        G = (y @ B).reshape(n, n)
        eig_d = (float(np.abs(np.linalg.eigvalsh(G) - eig0).max()) / eig_scale
                 if np.isfinite(G).all() else math.inf)
        s = brach.Samples(step, step * dt, y.copy(),
                          w.view(complex).copy(), trH2, trHF, norm,
                          abs(norm - 1.0), abs(trH2 - trH2_0) / trH2_scale,
                          abs(trHF), eig_d)
        if not all(d <= brach.DRIFT_ABORT for d in s[-4:]):
            raise brach.DriftAbort(
                f"invariant drift beyond {brach.DRIFT_ABORT:g} at t={s.t:.6f}",
                {"t": s.t, "step": step, **dict(zip(brach._DRIFTS, s[-4:]))})
        return s

    z = np.concatenate([y0, np.asarray(psi0, dtype=complex).view(float)])
    yield sample(0, z)
    path = brach._taylor_path(terms, z, slice(m, None), t_max)
    for step in range(1, n_steps + 1):
        if step % record_every == 0 or step == n_steps:
            yield sample(step, path(np.array([step * dt]))[0])


def stub_steps(monkeypatch, h, move):
    """brach's Taylor step replaced by steps of length h whose polynomial
    is the constant move(z) of the step's start z: the state recorded at
    t in ((s - 1) h, s h] is move applied s times to the start."""
    def step(terms, z):
        c = np.zeros((brach.TAYLOR_ORDER + 1, len(z)))
        c[0] = move(z)
        return c, h

    monkeypatch.setattr(brach, "_taylor_step", step)


def shift_f(problem, delta):
    """A move that adds delta to every constraint coordinate f: H stays, and
    the spectrum of H + F drifts."""
    nd = len(problem._driver)
    m = nd + len(problem._constraint)

    def move(z):
        z = z.copy()
        z[nd:m] += delta
        return z

    return move


def overflow(z):
    """A move that overflows the state within a few steps (its psi is
    renormalized until it is not finite)."""
    return 1e100 * z


def collect(blocks):
    """The Samples blocks a generator yields, and the DriftAbort it ends
    with (or None)."""
    got = []
    try:
        for block in blocks:
            got.append(block)
    except brach.DriftAbort as exc:
        return got, exc
    return got, None


def assert_samples_equal(blocks, rows):
    """The rows of the blocks equal the reference rows, field by field."""
    got = brach.Samples.concatenate(blocks)
    want = brach.Samples(*map(np.array, zip(*rows)))
    assert got.step.tolist() == want.step.tolist()
    for name, g, w in zip(brach.Samples._fields, got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w), name


class TestControlProblem:
    def test_rejects_overlapping_subspaces(self):
        # neither basis is orthonormal, so each warns before the cross check
        with pytest.warns(UserWarning) as seen, \
                pytest.raises(ValidationError, match="trace-orthogonal"):
            brach.ControlProblem(dim=2, driver_basis=[SX, SZ],
                                 constraint_basis=[SZ])
        assert [str(w.message).split()[0] for w in seen] == [
            "driver", "constraint"]

    def test_rejects_orthonormal_overlapping_subspaces(self):
        # both bases orthonormal on their own, so only the cross check fires
        with pytest.raises(ValidationError, match="trace-orthogonal"):
            brach.ControlProblem(dim=2, driver_basis=[SX / np.sqrt(2)],
                                 constraint_basis=[(SX + SZ) / 2])

    def test_non_orthonormal_basis_warns(self):
        with pytest.warns(UserWarning, match="driver basis.*Gram-Schmidt"):
            prob = brach.ControlProblem(dim=2, driver_basis=[SX, SX + SY],
                                        constraint_basis=[SZ / np.sqrt(2)])
        expected = np.stack([SX, SY]) / np.sqrt(2)
        assert np.max(np.abs(prob._driver - expected)) < 1e-15

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_family_bases_do_not_warn(self, n, kind):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            catalog.family_sun(n, kind)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_flow_tensor_matches_per_element_traces(self, n, kind):
        prob = catalog.family_sun(n, kind).problem
        D, C = prob._driver, prob._constraint
        B = np.concatenate([D, C])
        T = np.empty((len(B), len(D), len(C)))
        for a, Da in enumerate(D):
            for b, Cb in enumerate(C):
                comm = Da @ Cb - Cb @ Da
                for k, Bk in enumerate(B):
                    T[k, a, b] = np.trace(Bk @ comm).imag
        # scatter the terms dy_k += v y_a y_b back into a dense (k, a, b)
        # array on y = (h, f): only driver-constraint products may appear
        m = len(B)
        dense = np.zeros((m, m, m))
        np.add.at(dense, prob._terms[:3], prob._terms[3])
        assert np.max(np.abs(dense[:, :len(D), len(D):] - T)) < 1e-14
        dense[:, :len(D), len(D):] = 0.0
        assert not dense.any()

    def test_projections_are_idempotent(self):
        prob = su2_problem()
        rng = np.random.default_rng(0)
        C = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        C = C + C.conj().T
        P = prob.project_driver(C)
        assert np.max(np.abs(prob.project_driver(P) - P)) < 1e-12
        assert np.max(np.abs(prob.project_constraint(P))) < 1e-12


    def test_empty_constraint_basis(self):
        # so3 has no constraint: F projects to zero and H is constant
        prob = catalog.scenario_so3().problem
        A = np.arange(9.0).reshape(3, 3) + 1j * np.eye(3, k=1)
        A = A + A.conj().T
        assert not prob.project_constraint(A).any()
        assert not prob.flow(prob.coefficients(A, A)).any()


def su3_basis():
    """The standard basis of su(3), the driver of the split that takes all."""
    return catalog._split(3, lambda i, j: True)[0]


@st.composite
def splits(draw):
    """A split of su(n), n = 4..8, as the set of _split's (i, j) questions
    answered True; neither part is empty."""
    n = draw(st.integers(4, 8))
    cells = [(k, k) for k in range(n - 1)] + [
        (i, j) for i in range(n) for j in range(i + 1, n)]
    driver = draw(st.sets(st.sampled_from(cells), min_size=1,
                          max_size=len(cells) - 1))
    return n, driver


class TestRhs:
    def test_rhs_is_split_commutator(self):
        prob = su2_problem()
        H = 0.7 * SX + 0.2 * SY
        F = 0.9 * SZ
        dH, dF = brach.brach_rhs(H, F, prob)
        total = commutator(H, F) / 1j
        assert np.max(np.abs((dH + dF) - total)) < 1e-12
        assert np.max(np.abs(prob.project_constraint(dH))) < 1e-12
        assert np.max(np.abs(prob.project_driver(dF))) < 1e-12

    @pytest.mark.parametrize("kind", ["antidiagonal", "tridiagonal",
                                      "diagonal"])
    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_coefficient_flow_matches_matrix_rhs(self, n, kind):
        prob = catalog.family_sun(n, kind).problem
        rng = np.random.default_rng(n)
        for _ in range(3):
            A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            A = A + A.conj().T
            H, F = prob.project_driver(A), prob.project_constraint(A)
            y = prob.coefficients(H, F)
            expected = prob.coefficients(*matrix_rhs(prob, H, F))
            assert np.max(np.abs(prob.flow(y) - expected)) < 1e-12

    def test_every_su3_split(self):
        # each of the 2^8 - 2 driver/constraint splits of su(3)'s standard
        # basis: brach_rhs, made from the term list, against the projected
        # commutator, and each empty block of terms against the bracket:
        # [D, C] in span C <=> dh = 0, [D, C] in span D <=> df = 0
        basis = su3_basis()
        rng = np.random.default_rng(1)
        classes = Counter()
        for mask in range(1, 2 ** len(basis) - 1):
            D = [E for i, E in enumerate(basis) if mask >> i & 1]
            C = [E for i, E in enumerate(basis) if not mask >> i & 1]
            prob = brach.ControlProblem(dim=3, driver_basis=D,
                                        constraint_basis=C)
            H = sum(c * E for c, E in zip(rng.normal(size=len(D)), D))
            F = sum(c * E for c, E in zip(rng.normal(size=len(C)), C))
            got_dH, got_dF = brach.brach_rhs(H, F, prob)
            dH, dF = matrix_rhs(prob, H, F)
            assert np.max(np.abs(got_dH - dH)) < 1e-12, mask
            assert np.max(np.abs(got_dF - dF)) < 1e-12, mask
            brackets = [commutator(Da, Cb) for Da in D for Cb in C]
            k = prob._terms[0]
            dh_zero, df_zero = not np.any(k < len(D)), not np.any(k >= len(D))
            assert dh_zero == all(
                np.max(np.abs(X - projection(C, X))) < 1e-12
                for X in brackets), mask
            assert df_zero == all(
                np.max(np.abs(X - projection(D, X))) < 1e-12
                for X in brackets), mask
            classes[dh_zero, df_zero] += 1
        assert classes == {(True, False): 19, (False, True): 19,
                           (False, False): 216}

    @given(splits())
    # a diagonal driver (dh = 0) and a diagonal constraint (df = 0)
    @example((5, {(k, k) for k in range(4)}))
    @example((4, {(i, j) for i in range(4) for j in range(i + 1, 4)}))
    @settings(max_examples=20, deadline=None)
    def test_split_bracket_condition(self, split):
        # at any n, as at n = 3 above: dh = 0 <=> every [D_a, C_b] lies in
        # span C, and df = 0 <=> every [D_a, C_b] lies in span D
        n, cells = split
        D, C = (np.array(part) for part in
                catalog._split(n, lambda i, j: (i, j) in cells))
        assert len(D) + len(C) == n * n - 1
        prob = brach.ControlProblem(dim=n, driver_basis=list(D),
                                    constraint_basis=list(C))
        brackets = (np.einsum("aij,bjk->abik", D, C)
                    - np.einsum("bij,ajk->abik", C, D))

        def in_span(E):
            coeffs = np.einsum("cij,abji->abc", E, brackets)
            rest = brackets - np.einsum("abc,cij->abij", coeffs, E)
            return np.max(np.abs(rest)) < 1e-12

        k = prob._terms[0]
        assert (not np.any(k < len(D))) == in_span(C)
        assert (not np.any(k >= len(D))) == in_span(D)

    @pytest.mark.parametrize("H, F", [
        (SY + 1e-6 * SZ, SZ),               # H outside the driver span
        (SY, SZ + 1e-6 * SX),               # F outside the constraint span
        (np.pad(SY, (0, 1)), SZ),           # 3x3 for a 2-level problem
        (SY, np.array([[np.nan, 0], [0, 0]]))])
    def test_rejects_bad_input(self, H, F):
        with pytest.raises(ValidationError):
            brach.brach_rhs(H, F, su2_problem())


class TestEvolve:
    def test_invariants_su2(self):
        prob = su2_problem()
        H0 = SY  # eps0 = i
        F0 = 0.8 * SZ
        psi0 = np.array([1, 1], dtype=complex) / np.sqrt(2)
        traj = brach.evolve(prob, H0, F0, psi0, 2.0, dt=1e-3)
        assert np.max(traj.norm_drift) < 1e-10
        assert np.max(traj.trH2_drift) < 1e-8
        assert np.max(traj.trHF_residual) < 1e-8
        assert np.max(traj.eigenvalue_drift) < 1e-7

    def test_rotating_solution(self):
        # F = Omega sigma_z rotates the transverse driver at rate 2 Omega
        Omega = 0.8
        prob = su2_problem()
        traj = brach.evolve(prob, SY, Omega * SZ,
                            np.array([1, 0], dtype=complex), 1.5, dt=1e-3)
        Hs = prob.matrices(traj.y)[0]
        for t, H in zip(traj.t[::100], Hs[::100]):
            expected = (np.cos(2 * Omega * t) * SY
                        + np.sin(2 * Omega * t) * SX)
            assert np.max(np.abs(H - expected)) < 1e-8

    def test_rejects_bad_dt(self):
        with pytest.raises(ValidationError):
            brach.evolve(su2_problem(), SY, 0.1 * SZ,
                         np.array([1, 0], dtype=complex), 1.0, dt=0.0)

    def test_rejects_initial_data_outside_subspaces(self):
        psi0 = np.array([1, 0], dtype=complex)
        with pytest.raises(ValidationError):
            brach.evolve(su2_problem(), SZ, SX, psi0, 1.0, dt=1e-2)
        with pytest.raises(ValidationError):
            brach.evolve(su2_problem(), SY + 1e-6 * SZ, SZ, psi0, 1.0,
                         dt=1e-2)

    def test_spectrum_drift_aborts(self, monkeypatch):
        # steps that hold H and move F: only the spectrum of H + F drifts
        fam = catalog.family_sun(3, "diagonal")
        psi0 = np.array([1, 0, 0], dtype=complex)
        stub_steps(monkeypatch, 1.0, shift_f(fam.problem, 0.1))
        with pytest.raises(brach.DriftAbort) as info:
            brach.evolve(fam.problem, fam.H0, fam.F0, psi0, 4.0, dt=1.0)
        diag = info.value.diagnostics
        assert diag["step"] == 1
        assert diag["eigenvalue_drift"] > brach.DRIFT_ABORT
        assert diag["trH2_drift"] < 1e-12

    def test_rejects_nonfinite_state(self):
        fam = catalog.family_sun(4, "tridiagonal")
        with pytest.raises(ValidationError):
            brach.evolve(fam.problem, fam.H0, fam.F0, [np.nan, 0, 0, 0],
                         1.0, dt=0.1)

    def test_overflow_between_samples_aborts(self, monkeypatch):
        # the steps overflow the state long before the only recorded sample
        fam = catalog.family_sun(4, "tridiagonal")
        psi0 = np.array([1, 0, 0, 0], dtype=complex)
        stub_steps(monkeypatch, 10.0, overflow)
        with warnings.catch_warnings(record=True) as caught, \
                pytest.raises(brach.DriftAbort) as info:
            warnings.simplefilter("always")
            brach.evolve(fam.problem, fam.H0, fam.F0, psi0, 10000.0, dt=10.0,
                         record_every=1000)
        assert caught == []
        diag = info.value.diagnostics
        assert diag["step"] == 1000
        assert not np.isfinite(diag["eigenvalue_drift"])
        assert not np.isfinite(diag["trH2_drift"])

    @pytest.mark.parametrize("dt", [0.1, 0.05, 0.025, 1e-3])
    def test_exact_state_antidiagonal(self, dt):
        # dh = 0 for the antidiagonal kind, so psi(t) = e^{-i H0 t} psi0
        # exactly (a diagonal H0 would only turn the phase of this psi0)
        fam = catalog.family_sun(4, "antidiagonal")
        psi0 = np.array([1, 0, 0, 0], dtype=complex)
        s = brach.evolve(fam.problem, fam.H0, fam.F0, psi0, 2.0, dt=dt)
        exact = expm_h(fam.H0, s.t) @ psi0
        assert np.max(np.abs(s.psi - exact)) < 1e-12

    def test_records_do_not_depend_on_dt(self):
        # dt only places the records: the dt 0.1 rows are the dt 1e-3 rows
        # at the same times
        fam = catalog.family_sun(4, "tridiagonal")
        psi0 = np.array([1, 0, 0, 0], dtype=complex)
        coarse = brach.evolve(fam.problem, fam.H0, fam.F0, psi0, 1.0, dt=0.1)
        fine = brach.evolve(fam.problem, fam.H0, fam.F0, psi0, 1.0, dt=1e-3)
        assert coarse.step.tolist() == list(range(11))
        same = fine.step % 100 == 0
        assert np.allclose(fine.t[same], coarse.t, rtol=0, atol=1e-15)
        assert np.max(np.abs(fine.y[same] - coarse.y)) < 1e-14
        assert np.max(np.abs(fine.psi[same] - coarse.psi)) < 1e-14


def reversed_run(problem, H0, F0, psi0, T):
    """The run backwards from where (problem, H0, F0, psi0) is at T: since
    z(t) -> -z(T - t) maps the quadratic flow to itself and psi(T - t)
    solves i dpsi/dt = -H(T - t) psi, integrating from (-H(T), -F(T),
    psi(T)) over T returns to (-H0, -F0, psi0).  Returns the largest
    distance from there."""
    end = brach.evolve(problem, H0, F0, psi0, T, dt=T)
    H, F = problem.matrices(end.y[-1])
    back = brach.evolve(problem, -H, -F, end.psi[-1], T, dt=T)
    H1, F1 = problem.matrices(back.y[-1])
    return max(np.max(np.abs(H1 + H0)), np.max(np.abs(F1 + F0)),
               np.max(np.abs(back.psi[-1] - psi0)))


class TestTimeReversal:
    """Oracles that hold for any accurate stepper: the flow run backwards
    returns to its start to round-off, whatever its steps."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", range(3, 9))
    def test_family_returns_to_its_start(self, n, kind):
        assert reversed_run(*family_run(n, kind), 1.0) < 1e-12

    @pytest.mark.parametrize("name", [
        name for name, build in catalog.SCENARIO_BUILDERS.items()
        if build().problem is not None])
    def test_scenario_returns_to_its_start(self, name):
        scn = catalog.SCENARIO_BUILDERS[name]()
        assert reversed_run(*catalog._integrator_run(scn), 1.0) < 1e-12

    @pytest.mark.parametrize("seed", [42, 7, 1001])
    def test_census_pairs_return_to_their_start(self, seed):
        e0 = np.array([1, 0, 0], dtype=complex)
        for r in catalog.su3_partitions(t_max=1.0, seed=seed):
            assert reversed_run(r.problem, r.H0, r.F0, e0, 1.0) < 1e-12, \
                r.index


class TestIntegrate:
    def test_evolve_collects_the_samples(self):
        fam = catalog.family_sun(4, "tridiagonal")
        psi0 = np.array([1, 0, 0, 0], dtype=complex)
        args = (fam.problem, fam.H0, fam.F0, psi0, 0.05, 1e-3, 7)
        blocks = list(brach.integrate(*args))
        got = brach.evolve(*args)
        assert [b.step.tolist() for b in blocks] == [
            [0], [7, 14, 21, 28, 35, 42, 49, 50]]
        for name, g, w in zip(brach.Samples._fields, got,
                              brach.Samples.concatenate(blocks)):
            assert g.dtype == w.dtype and np.array_equal(g, w), name

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", range(3, 9))
    def test_coordinate_invariants_match_matrix_traces(self, n, kind):
        fam = catalog.family_sun(n, kind)
        psi0 = np.zeros(n, dtype=complex)
        psi0[0] = 1.0
        s = brach.evolve(fam.problem, fam.H0, fam.F0, psi0, 0.05, 1e-3, 5)
        Hs, Fs = fam.problem.matrices(s.y)
        for H, F, psi, trH2, trHF, norm in zip(Hs, Fs, s.psi, s.trH2, s.trHF,
                                               s.norm):
            assert abs(trH2 - np.trace(H @ H).real) < 1e-13
            assert abs(trHF - np.trace(H @ F).real) < 1e-13
            assert abs(norm - np.linalg.norm(psi)) < 1e-13

    def test_bad_input_raises_before_the_first_sample(self):
        with pytest.raises(ValidationError):
            brach.integrate(su2_problem(), SZ, SX,
                            np.array([1, 0], dtype=complex), 1.0, 1e-2)

    @pytest.mark.parametrize("bad", ["nan_psi", "h0_outside", "long_psi",
                                     "short_psi", "big_h0"])
    def test_bad_input_raises_before_any_step(self, bad, monkeypatch):
        # a 3-level run: a 4-entry psi0 once stepped with its 4th entry
        # fixed, a 2-entry one raised IndexError and a 4x4 H0 numpy's
        # broadcast ValueError
        def no_step(*args):
            raise AssertionError("stepped before checking the input")

        monkeypatch.setattr(brach, "_taylor_coefficients", no_step)
        problem, H0, F0, psi0 = family_run(3, "tridiagonal")
        if bad == "nan_psi":
            psi0 = np.array([np.nan, 0, 0], dtype=complex)
        elif bad == "h0_outside":
            H0 = H0 + F0
        elif bad == "long_psi":
            psi0 = unit_state(4)
        elif bad == "short_psi":
            psi0 = unit_state(2)
        else:
            H0 = np.pad(H0, (0, 1))
        with pytest.raises(ValidationError):
            brach.integrate(problem, H0, F0, psi0, 1.0, 1e-3)

    @pytest.mark.parametrize("t_max, dt, record_every", [
        (1.0, 1e-2, 0), (1.0, 1e-2, -3), (1.0, 1e-2, 1.5),
        (math.inf, 1e-2, 1), (math.nan, 1e-2, 1), (-1.0, 1e-2, 1),
        (0.0, 1e-2, 1), (1e300, 1e-10, 1),
        (1.0, math.inf, 1), (1.0, math.nan, 1), (1.0, -1e-2, 1)])
    @pytest.mark.parametrize("run", [brach.integrate, brach.evolve],
                             ids=["integrate", "evolve"])
    def test_bad_grid_raises_at_call_time(self, run, t_max, dt, record_every):
        fam = catalog.family_sun(3, "tridiagonal")
        psi0 = np.array([1, 0, 0], dtype=complex)
        with pytest.raises(ValidationError):
            run(fam.problem, fam.H0, fam.F0, psi0, t_max, dt, record_every)

    def test_renormalization_holds_the_norm(self):
        fam = catalog.family_sun(4, "antidiagonal")
        psi0 = np.array([1, 0, 0, 0], dtype=complex)
        traj = brach.evolve(fam.problem, fam.H0, fam.F0, psi0, 5.0, dt=5e-2)
        assert np.max(traj.norm_drift) <= brach.RENORM_THRESHOLD

    def test_drift_just_above_the_limit_aborts(self, monkeypatch):
        # one step that moves the spectrum of H + F by about 4e-4: above
        # DRIFT_ABORT, but far below 1e-2
        fam = catalog.family_sun(3, "diagonal")
        psi0 = np.array([1, 0, 0], dtype=complex)
        stub_steps(monkeypatch, 0.5, shift_f(fam.problem, 4e-4))
        with pytest.raises(brach.DriftAbort) as info:
            brach.evolve(fam.problem, fam.H0, fam.F0, psi0, 0.5, dt=0.5)
        diag = info.value.diagnostics
        assert diag["step"] == 1
        assert 1e-4 < diag["eigenvalue_drift"] < 1e-3

    def test_drift_just_below_the_limit_passes(self, monkeypatch):
        fam = catalog.family_sun(3, "diagonal")
        psi0 = np.array([1, 0, 0], dtype=complex)
        stub_steps(monkeypatch, 0.3, shift_f(fam.problem, 5e-5))
        traj = brach.evolve(fam.problem, fam.H0, fam.F0, psi0, 0.3, dt=0.3)
        assert 1e-5 < traj.eigenvalue_drift[-1] < brach.DRIFT_ABORT

    def test_step_cap_before_the_first_sample(self):
        # the flow is quadratic, so H0 and F0 scaled by 1e7 take steps 1e7
        # times shorter: about 4e7 steps to t = 1
        fam = catalog.family_sun(4, "tridiagonal")
        psi0 = np.array([1, 0, 0, 0], dtype=complex)
        with pytest.raises(ValidationError, match=str(brach.MAX_STEPS)):
            brach.integrate(fam.problem, 1e7 * fam.H0, 1e7 * fam.F0, psi0,
                            1.0, 1e-3)

    def test_step_cap_while_stepping(self, monkeypatch):
        # H0 and F0 scaled by 1e3 to t = 0.019 take 104 steps, the first of
        # them long enough for 95.5: under a cap of 100 the first step
        # passes and a later one stops the run, after its first samples
        fam = catalog.family_sun(5, "tridiagonal")
        run = (fam.problem, 1e3 * fam.H0, 1e3 * fam.F0, unit_state(5))
        monkeypatch.setattr(brach, "MAX_STEPS", 100)
        got = []
        with pytest.raises(ValidationError, match="more than 100 Taylor"):
            for block in brach.integrate(*run, 0.019, 1e-5, 100):
                got.append(block)
        assert [b.step[0] for b in got][:2] == [0, 100]


class TestRk4Path:
    def test_matches_a_step_loop(self):
        # the census's four pairs joined into one flat state, as
        # su3_partitions steps them
        results = catalog.su3_partitions(t_max=1e-3, dt=1e-3, seed=42)
        systems = [(r.problem._terms,
                    brach._coordinates(r.problem, r.H0, r.F0))
                   for r in results]
        terms, z, cols = brach._joined(systems)
        assert len(z) == 32
        assert [c.stop - c.start for c in cols] == [8, 8, 8, 8]
        for (_, z0), c in zip(systems, cols):
            assert np.array_equal(z[c], z0)
        dt = catalog.CENSUS_DT
        path = brach.rk4_path(terms, z, 40, dt)
        assert path.shape == (41, len(z))
        assert np.array_equal(path[0], z)
        for s in range(1, 41):
            z = brach.rk4_step(lambda v: brach._bilinear(terms, v), z, dt)
            assert np.array_equal(path[s], z), s


class TestBlockGate:
    @pytest.mark.parametrize("record_every", [1, 7])
    @pytest.mark.parametrize("n", [4, 8])
    def test_samples_match_the_per_sample_reference(self, n, record_every):
        # 600 steps: step 0, then blocks 1-256, 257-512 and 513-600
        fam = catalog.family_sun(n, "tridiagonal")
        psi0 = np.zeros(n, dtype=complex)
        psi0[0] = 1.0
        args = (fam.problem, fam.H0, fam.F0, psi0, 0.6, 1e-3, record_every)
        assert 600 > 2 * brach.SAMPLE_BLOCK
        got = list(brach.integrate(*args))
        want = list(reference_samples(*args))
        # one block for step 0 and one for each block of steps
        assert [(b.step[0], b.step[-1]) for b in got] == [
            (0, 0), (record_every, 256 // record_every * record_every),
            (-(-257 // record_every) * record_every,
             512 // record_every * record_every),
            (-(-513 // record_every) * record_every, 600)]
        assert_samples_equal(got, want)

    def test_abort_inside_a_block(self, monkeypatch):
        # steps of dt 0.3 that each move the spectrum of H + F by about
        # 2.2e-5: it first drifts past 1e-4 at step 5, in the middle of the
        # first block of steps
        fam = catalog.family_sun(3, "diagonal")
        psi0 = np.array([1, 0, 0], dtype=complex)
        stub_steps(monkeypatch, 0.3, shift_f(fam.problem, 2.4e-5))
        args = (fam.problem, fam.H0, fam.F0, psi0, 300.0, 0.3, 1)
        got, abort = collect(brach.integrate(*args))
        want, ref_abort = collect(reference_samples(*args))
        assert ref_abort is not None and ref_abort.diagnostics["step"] == 5
        assert_samples_equal(got, want)
        assert str(abort) == str(ref_abort)
        assert abort.diagnostics == ref_abort.diagnostics

    @pytest.mark.parametrize("kind, dt", [("tridiagonal", 10.0),
                                          ("antidiagonal", 50.0)])
    def test_overflowing_block_aborts_at_its_first_sample(self, kind, dt,
                                                          monkeypatch):
        # the state overflows within the block, after the sample at step 1
        # has drifted: no LinAlgError from the non-finite rows and no numpy
        # warning from stepping or gating them (the gate's products meet
        # inf * 0)
        fam = catalog.family_sun(4, kind)
        psi0 = np.array([1, 0, 0, 0], dtype=complex)
        stub_steps(monkeypatch, dt, overflow)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got, abort = collect(brach.integrate(fam.problem, fam.H0, fam.F0, psi0,
                                         1000 * dt, dt, 1))
        assert caught == []
        assert brach.Samples.concatenate(got).step.tolist() == [0]
        assert abort is not None and abort.diagnostics["step"] == 1


def unit_state(n):
    psi0 = np.zeros(n, dtype=complex)
    psi0[0] = 1.0
    return psi0


def family_run(n, kind):
    fam = catalog.family_sun(n, kind)
    return fam.problem, fam.H0, fam.F0, unit_state(n)


def reference_orthonormalize(basis, dim, label):
    """_orthonormalize one element at a time: each element's checks, its
    projection and its normalization in turn."""
    out = np.empty((len(basis), dim * dim), dtype=complex)
    adjusted = False
    for k, B in enumerate(basis):
        A = check_hermitian(B)
        if A.shape != (dim, dim):
            raise ValidationError(f"{label} basis element is not {dim}x{dim}")
        if abs(np.trace(A)) > 1e-10:
            raise ValidationError(f"{label} basis element not traceless")
        a = A.reshape(-1)
        a = a - (out[:k].conj() @ a).real @ out[:k]
        nrm = np.linalg.norm(a)
        if nrm < 1e-12:
            raise ValidationError(f"{label} basis is linearly dependent")
        out[k] = a / nrm
        if np.max(np.abs(out[k] - A.reshape(-1))) > 1e-10:
            adjusted = True
    if adjusted:
        warnings.warn(f"{label} basis was not orthonormal under Tr(A B); "
                      "Gram-Schmidt applied")
    return out.reshape(-1, dim, dim)


def every_problem():
    for n in range(2, 9):
        for kind in KINDS:
            yield f"su{n}-{kind}", catalog.family_sun(n, kind).problem
    for name, builder in catalog.SCENARIO_BUILDERS.items():
        problem = builder().problem
        if problem is not None:
            yield name, problem
    for r in catalog.su3_partitions(t_max=1e-3, dt=1e-3):
        yield f"census-pair-{r.index}", r.problem


class TestOrthonormalize:
    @pytest.mark.parametrize("name, problem", list(every_problem()),
                             ids=lambda v: v if isinstance(v, str) else "")
    def test_matches_the_per_element_loop(self, name, problem):
        for basis in (problem.driver_basis, problem.constraint_basis):
            got = brach._orthonormalize(basis, problem.dim, name)
            want = reference_orthonormalize(basis, problem.dim, name)
            assert np.array_equal(got, want)

    def test_non_orthonormal_basis_matches_the_per_element_loop(self):
        basis = [SX, SX + SY, SZ + 0.5 * SX]
        with pytest.warns(UserWarning):
            got = brach._orthonormalize(basis, 2, "driver")
        with pytest.warns(UserWarning):
            want = reference_orthonormalize(basis, 2, "driver")
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("basis", [
        [SX, np.eye(3)],                       # ragged
        [SX, SY, SZ, SX],                      # dependent
        [SX, np.array([[0, 1], [0, 0]])],      # not Hermitian
        [SX, np.eye(2)],                       # not traceless
        [SX, np.array([[np.nan, 0], [0, 0]])],  # not finite
        [np.eye(3) - np.diag([0, 0, 3])],      # not 2x2
        [np.zeros(4), np.zeros(4), np.zeros(4), np.zeros(4)],  # not matrices
        [SX, None],
    ])
    def test_bad_basis_raises_validation_error(self, basis):
        with pytest.raises(ValidationError):
            brach._orthonormalize(basis, 2, "driver")

    def test_empty_basis(self):
        assert brach._orthonormalize([], 3, "constraint").shape == (0, 3, 3)


class TestSu2Vector:
    @given(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2),
           st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2))
    @settings(max_examples=25, deadline=None)
    def test_vector_rhs_matches_matrix(self, a, b, c, d, e, f):
        H = np.array([[a, b + 1j * c], [b - 1j * c, -a]])
        F = np.array([[d, e + 1j * f], [e - 1j * f, -d]])
        h, fv = brach.su2_vectorize(H), brach.su2_vectorize(F)
        lhs = brach.su2_vector_rhs(h, fv)
        rhs = 1j * brach.su2_vectorize(commutator(H, F) / 1j)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_round_trip(self):
        H = 0.4 * SX - 0.9 * SY + 0.2 * SZ
        back = brach.su2_devectorize(brach.su2_vectorize(H))
        assert np.max(np.abs(back - H)) < 1e-12
