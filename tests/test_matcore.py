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

    def test_phase_convention_deterministic(self):
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
        # scalar midpoint at a time, t advancing by repeated addition
        A, B = random_hermitian(3, 9), random_hermitian(3, 10)

        def H(t):
            return np.multiply.outer(np.cos(t), A) + np.multiply.outer(
                np.sin(t), B)

        t_max, dt = 0.2537, 1e-2
        n_full = int(t_max / dt)
        remainder = t_max - n_full * dt
        want, t = np.eye(3, dtype=complex), 0.0
        for _ in range(n_full):
            want = mc.expm_h(H(t + dt / 2.0), dt) @ want
            t += dt
        want = mc.expm_h(H(t + remainder / 2.0), remainder) @ want
        U = mc.ordered_exponential(H, t_max, dt)
        assert np.max(np.abs(U - want)) <= 1e-14


def _expm_h_loop(H, t_max, dt):
    """The ordered exponential with one expm_h per midpoint, a reference
    for the stacked form: H is called on the same array of midpoints."""
    n_full = int(t_max / dt)
    remainder = t_max - n_full * dt
    starts = np.concatenate(([0.0], np.cumsum(np.full(n_full, dt))))
    steps = [dt] * n_full + ([remainder] if remainder > 1e-15 else [])
    Hs = H(starts[:len(steps)] + np.array(steps) / 2.0)
    U = np.eye(Hs.shape[-1], dtype=complex)
    for Hk, step in zip(Hs, steps):
        U = mc.expm_h(Hk, step) @ U
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

    def test_rejects_nan_midpoint(self):
        with pytest.raises(mc.ValidationError, match="finite"):
            mc.ordered_exponential(self._spoiled_at_one_midpoint(np.nan),
                                   1.0, 1e-2)

    def test_fix_phases_stack_equals_column_loop(self):
        # the convention as one column at a time with the scalar abs();
        # the stack and each single matrix must match it bit for bit
        def column_loop(V):
            W = V.copy()
            for j in range(W.shape[1]):
                col = W[:, j]
                piv = col[int(np.argmax(np.abs(col)))]
                if abs(piv) > 0:
                    W[:, j] = col * (piv.conjugate() / abs(piv))
            return W

        rng = np.random.default_rng(14)
        A = rng.normal(size=(256, 4, 4)) + 1j * rng.normal(size=(256, 4, 4))
        _, V = np.linalg.eigh(A + A.conj().swapaxes(-1, -2))
        W = mc._fix_phases(V)
        for k in range(len(V)):
            want = column_loop(V[k])
            assert np.array_equal(W[k], want)
            assert np.array_equal(mc._fix_phases(V[k]), want)


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
