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
        # H is called once on the midpoints; the reference steps one
        # scalar midpoint (k + 1/2) h at a time, h = t_max / grid_steps
        t_max, dt = 0.2537, 1e-2
        n = mc.grid_steps(t_max, dt)
        h = t_max / n
        want = np.eye(3, dtype=complex)
        for k in range(n):
            want = mc.expm_h(_rotating((k + 0.5) * h), h) @ want
        U = mc.ordered_exponential(_rotating, t_max, dt)
        assert np.max(np.abs(U - want)) <= 1e-14

    def test_ordered_exponential_is_second_order(self):
        # the midpoint rule on equal steps: halving h quarters the error
        ref = mc.ordered_exponential(_rotating, 1.0, 1e-4)
        err = [np.max(np.abs(mc.ordered_exponential(_rotating, 1.0, h) - ref))
               for h in (0.05, 0.025)]
        assert err[0] / err[1] == pytest.approx(4.0, rel=0.1)


def _rotating(t):
    """A time-dependent H, cos(t) A + sin(t) B, on a scalar or an array."""
    A, B = random_hermitian(3, 9), random_hermitian(3, 10)
    return np.multiply.outer(np.cos(t), A) + np.multiply.outer(np.sin(t), B)


def _expm_h_loop(H, t_max, dt):
    """The ordered exponential with one expm_h per midpoint, a reference
    for the stacked form: H is called on the same array of midpoints."""
    n = mc.grid_steps(t_max, dt)
    h = t_max / n
    U = np.eye(H(0.0).shape[-1], dtype=complex)
    for Hk in H((np.arange(n) + 0.5) * h):
        U = mc.expm_h(Hk, h) @ U
    return U


class TestStackedOrderedExponential:
    @pytest.mark.parametrize("name", sorted(catalog.SCENARIO_BUILDERS))
    @pytest.mark.parametrize("t_max, dt", [(1.0, 1e-3), (0.2537, 1e-2)])
    def test_equals_expm_h_loop(self, name, t_max, dt):
        scn = catalog.SCENARIO_BUILDERS[name]()
        assert np.array_equal(
            mc.ordered_exponential(scn.hamiltonian_at, t_max, dt),
            _expm_h_loop(scn.hamiltonian_at, t_max, dt))

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
