import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qbrach import catalog, matcore as mc


def random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return A + A.conj().T


class TestValidation:
    def test_as_matrix_rejects_nonsquare(self):
        with pytest.raises(mc.ValidationError):
            mc.as_matrix(np.zeros((2, 3)))

    def test_as_matrix_rejects_nonfinite(self):
        with pytest.raises(mc.ValidationError):
            mc.as_matrix([[np.inf, 0], [0, 1]])

    def test_as_matrix_accepts_noncontiguous(self):
        M = np.eye(3)[[0, 2, 1]].T
        assert mc.as_matrix(M).shape == (3, 3)

    def test_check_hermitian_rejects(self):
        with pytest.raises(mc.ValidationError):
            mc.check_hermitian([[0, 1], [2, 0]])

    def test_check_hermitian_empty_stack(self):
        empty = np.empty((0, 3, 3))
        out = mc.check_hermitian(empty, stack=True)
        assert out.shape == (0, 3, 3) and out.dtype == complex

    def test_check_state_rejects_unnormalized(self):
        with pytest.raises(mc.ValidationError):
            mc.check_state([1.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_check_state_rejects_nonfinite(self, bad):
        # a NaN norm is not "beyond" the tolerance, so the norm test alone
        # lets it through
        with pytest.raises(mc.ValidationError):
            mc.check_state([bad, 0.0])


class TestAlgebra:
    def test_trace_inner_symmetry(self):
        A, B = random_hermitian(3, 3), random_hermitian(3, 4)
        assert mc.trace_inner(A, B) == pytest.approx(mc.trace_inner(B, A))

    @given(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3))
    @settings(max_examples=25, deadline=None)
    def test_expm_h_unitary(self, a, b, c):
        H = np.array([[a, b + 1j * c], [b - 1j * c, -a]])
        U = mc.expm_h(H, 0.7)
        assert np.max(np.abs(U.conj().T @ U - np.eye(2))) < 1e-12

    def test_expm_h_matches_series(self):
        H = random_hermitian(3, 5)
        t = 0.31
        S = np.eye(3, dtype=complex)
        term = np.eye(3, dtype=complex)
        for k in range(1, 40):
            term = term @ (-1j * t * H) / k
            S = S + term
        assert np.max(np.abs(mc.expm_h(H, t) - S)) < 1e-12


class TestSpectral:
    def test_hermitian_eig_reconstructs(self):
        H = random_hermitian(4, 6)
        spec = mc.hermitian_eig(H)
        V, w = spec.eigenvectors, spec.eigenvalues
        assert np.max(np.abs((V * w) @ V.conj().T - H)) < 1e-12

    def test_eigenvectors_deterministic(self):
        H = random_hermitian(4, 7)
        V1 = mc.hermitian_eig(H).eigenvectors
        V2 = mc.hermitian_eig(H.copy()).eigenvectors
        assert np.array_equal(V1, V2)


class TestPropagation:
    def test_ordered_exponential_constant(self):
        H = random_hermitian(3, 8)
        U = mc.ordered_exponential(lambda t: H, 1.0, 1e-3)
        assert np.max(np.abs(U - mc.expm_h(H, 1.0))) < 1e-10

    def test_ordered_exponential_time_dependent(self):
        # H is called once, on the Gauss points (k + 1/2 -+ sqrt(3)/6) h in
        # step order, h = t_max / grid_steps; the reference steps one
        # Magnus generator at a time
        t_max, dt = 0.2537, 1e-2
        n = mc.grid_steps(t_max, dt)
        h = t_max / n
        U, times = _recording_times(_rotating, t_max, dt)
        nodes = np.add.outer(np.arange(n) + 0.5,
                             np.array([-1, 1]) * np.sqrt(3) / 6) * h
        assert np.max(np.abs(times - nodes.reshape(-1))) <= 1e-15
        assert np.max(np.abs(U - _expm_h_loop(_rotating, t_max, dt))) <= 1e-14

    def test_ordered_exponential_is_fourth_order(self):
        # fourth-order Magnus on equal steps: halving h cuts the error 16x
        ref = mc.ordered_exponential(_rotating, 1.0, 1e-3)
        err = [np.max(np.abs(mc.ordered_exponential(_rotating, 1.0, h) - ref))
               for h in (0.1, 0.05)]
        assert err[0] / err[1] == pytest.approx(16.0, rel=0.1)


def _rotating(t):
    """A time-dependent H, cos(t) A + sin(t) B, on a scalar or an array."""
    A, B = random_hermitian(3, 9), random_hermitian(3, 10)
    return np.multiply.outer(np.cos(t), A) + np.multiply.outer(np.sin(t), B)


def _recording_times(H, t_max, dt):
    """ordered_exponential(H, t_max, dt) and the one array of times it
    called H on."""
    calls = []

    def recorded(t):
        calls.append(t)
        return H(t)

    U = mc.ordered_exponential(recorded, t_max, dt)
    assert len(calls) == 1
    return U, calls[0]


def _expm_h_loop(H, t_max, dt):
    """The ordered exponential with one expm_h per step, a reference for
    the stacked form: H is called on the same array of Gauss times, and
    each step's Magnus generator is built from its two matrices alone."""
    n = mc.grid_steps(t_max, dt)
    h = t_max / n
    Hs = np.broadcast_to(H(_recording_times(H, t_max, dt)[1]),
                         (2 * n,) + np.shape(H(0.0)))
    U = np.eye(Hs.shape[-1], dtype=complex)
    for Hm, Hp in zip(Hs[0::2], Hs[1::2]):
        M = (h / 2 * (Hm + Hp)
             + 1j * np.sqrt(3) / 12 * h * h * (Hm @ Hp - Hp @ Hm))
        U = mc.expm_h(M, 1.0) @ U
    return U


class TestStackedOrderedExponential:
    @pytest.mark.parametrize("name", sorted(catalog.SCENARIO_BUILDERS))
    @pytest.mark.parametrize("t_max, dt", [(1.0, 1e-3), (0.2537, 1e-2)])
    def test_equals_expm_h_loop(self, name, t_max, dt):
        scn = catalog.SCENARIO_BUILDERS[name]()
        assert np.array_equal(
            mc.ordered_exponential(scn.hamiltonian_at, t_max, dt),
            _expm_h_loop(scn.hamiltonian_at, t_max, dt))

    @pytest.mark.parametrize("name", sorted(catalog.SCENARIO_BUILDERS))
    def test_matches_the_closed_form_at_validates_step(self, name):
        # validate's check: the midpoint rule at 10x finer steps missed
        # dirac's propagator by 2.2e-7
        scn = catalog.SCENARIO_BUILDERS[name]()
        t = min(scn.period, 1.0)
        U = mc.ordered_exponential(scn.hamiltonian_at, t, catalog.ORDERED_DT)
        assert np.max(np.abs(U - scn.propagator_at(t))) <= 1e-9

    @staticmethod
    def _spoiled_at_one_midpoint(value):
        H0 = random_hermitian(3, 13)

        def H(t):
            Hs = np.array(np.broadcast_to(H0, np.shape(t) + (3, 3)))
            Hs[np.shape(t)[0] // 2, 0, 1] += value
            return Hs
        return H

    def test_rejects_non_hermitian_midpoint(self):
        with pytest.raises(mc.ValidationError, match="not Hermitian"):
            mc.ordered_exponential(self._spoiled_at_one_midpoint(1e-9),
                                   1.0, 1e-2)

    @pytest.mark.parametrize("t_max, dt", [(np.inf, 1e-3), (np.nan, 1e-3),
                                           (1.0, np.nan)])
    def test_rejects_non_finite_grid(self, t_max, dt):
        def H(t):
            raise AssertionError("H called on a non-finite grid")

        with pytest.raises(mc.ValidationError, match="finite"):
            mc.ordered_exponential(H, t_max, dt)

    @pytest.mark.parametrize("t_max, dt", [(1.0, 0.0), (1.0, -1e-3),
                                           (1e-3, 1e-2)])
    def test_rejects_a_grid_without_a_full_step(self, t_max, dt):
        def H(t):
            raise AssertionError("H called on a grid without a full step")

        with pytest.raises(mc.ValidationError,
                           match="need dt > 0 and t_max >= dt"):
            mc.ordered_exponential(H, t_max, dt)

    @pytest.mark.parametrize("t_max, dt", [(1e18, 1e-3), (2e3, 1e-3)])
    def test_rejects_a_grid_over_the_step_cap(self, t_max, dt):
        def H(t):
            raise AssertionError("H called on a grid over the step cap")

        with pytest.raises(mc.ValidationError, match=str(mc.MAX_STEPS)):
            mc.ordered_exponential(H, t_max, dt)

    def test_rejects_nan_midpoint(self):
        with pytest.raises(mc.ValidationError, match="finite"):
            mc.ordered_exponential(self._spoiled_at_one_midpoint(np.nan),
                                   1.0, 1e-2)


class TestSpectrumExpm:
    def test_array_equals_stacked_scalars(self):
        spec = mc.hermitian_eig(random_hermitian(4, 11))
        ts = np.linspace(-2.0, 3.0, 50)
        got = spec.expm(ts)
        assert got.shape == (50, 4, 4)
        want = np.stack([spec.expm(t) for t in ts.tolist()])
        assert np.max(np.abs(got - want)) <= 1e-15

    def test_scalar_keeps_its_shape(self):
        spec = mc.hermitian_eig(random_hermitian(3, 12))
        for t in (0.0, -0.4, np.float64(2.5)):
            assert spec.expm(t).shape == (3, 3)
