"""Quantum brachistochrone engine.

Integrates the coupled evolution law

    i d(H + F)/dt = [H, F],    i dpsi/dt = H psi,

with H confined to a "driver" subspace and F to a trace-orthogonal
"constraint" subspace of traceless Hermitian matrices.  Tracks the
conserved quantities (Tr H^2, Tr(HF), the spectrum of H + F, state norm).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .matcore import (ValidationError, as_matrix, check_hermitian, check_state,
                      commutator, trace_inner)

DRIFT_ABORT = 1e-4
RENORM_THRESHOLD = 1e-12


class DriftAbort(RuntimeError):
    """Raised when an invariant drifts beyond the hard limit during evolve."""

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(message)
        self.diagnostics = diagnostics


def _orthonormalize(basis: Sequence[np.ndarray], label: str,
                    warn_tol: float = 1e-10) -> np.ndarray:
    """Gram-Schmidt under the trace inner product Tr(A B); returns a stack."""
    out = []
    adjusted = False
    for B in basis:
        A = check_hermitian(B)
        if abs(np.trace(A)) > 1e-10:
            raise ValidationError(f"{label} basis element not traceless")
        for E in out:
            A = A - trace_inner(E, A) * E
        nrm = np.sqrt(trace_inner(A, A))
        if nrm < 1e-12:
            raise ValidationError(f"{label} basis is linearly dependent")
        Anew = A / nrm
        if np.max(np.abs(Anew - as_matrix(B))) > warn_tol:
            adjusted = True
        out.append(Anew)
    if adjusted:
        warnings.warn(f"{label} basis was not orthonormal under Tr(A B); "
                      "Gram-Schmidt applied", stacklevel=3)
    return np.stack(out)


@dataclass
class ControlProblem:
    """One brachistochrone instance: the driver and constraint subspace bases.

    driver_basis spans the admissible Hamiltonians H, constraint_basis the
    multiplier operator F; the two spans must be trace-orthogonal.

    In the orthonormalized bases D (driver) and C (constraint), H = h . D and
    F = f . C, and the projected flow is the real bilinear system

        dy_k = sum_ab T[k, a, b] h_a f_b,   T[k, a, b] = Re Tr(B_k (-i)[D_a, C_b])

    on y = (h, f), with B = D stacked on C.  The subspaces hold exactly in
    these coordinates, so no projection is needed while stepping.
    """

    dim: int
    driver_basis: Sequence[np.ndarray]
    constraint_basis: Sequence[np.ndarray]

    _driver: np.ndarray = field(init=False, repr=False)
    _constraint: np.ndarray = field(init=False, repr=False)
    _flow_tensor: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self._driver = _orthonormalize(self.driver_basis, "driver")
        self._constraint = (_orthonormalize(self.constraint_basis, "constraint")
                            if len(self.constraint_basis) > 0
                            else np.zeros((0, self.dim, self.dim), dtype=complex))
        for D in self._driver:
            for G in self._constraint:
                ip = trace_inner(D, G)
                if abs(ip) > 1e-10:
                    raise ValidationError(
                        f"driver and constraint subspaces not trace-orthogonal "
                        f"(Tr(d g) = {ip:.3e})")
        D, C = self._driver, self._constraint
        B = np.concatenate([D, C])
        T = np.empty((len(B), len(D), len(C)))
        for a, Da in enumerate(D):
            # Re Tr(B_k (-i) X) = Im Tr(B_k X)
            T[:, a, :] = np.einsum("kij,bji->kb", B, Da @ C - C @ Da).imag
        # stored as (k*a, b) so that flow() is two matrix products
        self._flow_tensor = T.reshape(len(B) * len(D), len(C))

    def coefficients(self, H, F) -> np.ndarray:
        """y = (h, f): coordinates of H and F in the orthonormal bases."""
        return np.concatenate([np.einsum("kij,ji->k", self._driver, H).real,
                               np.einsum("kij,ji->k", self._constraint, F).real])

    def matrices(self, y) -> tuple[np.ndarray, np.ndarray]:
        """(H, F) from coordinates y; leading axes of y are kept."""
        nd, n = self._driver.shape[0], self.dim
        lead = np.shape(y)[:-1]
        H = y[..., :nd] @ self._driver.reshape(nd, n * n)
        F = y[..., nd:] @ self._constraint.reshape(-1, n * n)
        return H.reshape(*lead, n, n), F.reshape(*lead, n, n)

    def flow(self, y) -> np.ndarray:
        """dy/dt of the projected flow at y = (h, f)."""
        nd = self._driver.shape[0]
        return (self._flow_tensor @ y[nd:]).reshape(-1, nd) @ y[:nd]

    def project_driver(self, C: np.ndarray) -> np.ndarray:
        coeffs = np.einsum("kij,ji->k", self._driver, C).real
        return np.einsum("k,kij->ij", coeffs, self._driver)

    def project_constraint(self, C: np.ndarray) -> np.ndarray:
        if self._constraint.shape[0] == 0:
            return np.zeros_like(C)
        coeffs = np.einsum("kij,ji->k", self._constraint, C).real
        return np.einsum("k,kij->ij", coeffs, self._constraint)


@dataclass(frozen=True)
class Trajectory:
    """Time-indexed record of (H, F, psi) plus invariant diagnostics."""

    times: np.ndarray
    Hs: np.ndarray
    Fs: np.ndarray
    psis: np.ndarray
    norm_drift: np.ndarray
    trH2_drift: np.ndarray      # relative drift of Tr H^2
    trHF_residual: np.ndarray
    eigenvalue_drift: np.ndarray   # spectrum drift of G = H + F


class BrachRhs(NamedTuple):
    dH: np.ndarray
    dF: np.ndarray


def brach_rhs(H, F, problem: ControlProblem) -> BrachRhs:
    """Right-hand side of the evolution law.

    C = -i[H, F] is Hermitian; the returned derivatives are its
    trace-orthogonal projections onto the driver and constraint subspaces.
    """
    H, F = check_hermitian(H), check_hermitian(F)
    res_H = np.max(np.abs(H - problem.project_driver(H))) if H.size else 0.0
    res_F = np.max(np.abs(F - problem.project_constraint(F)))
    if res_H > 1e-8 or res_F > 1e-8:
        raise ValidationError(
            f"H/F not in their subspaces (residuals {res_H:.3e}, {res_F:.3e})")
    C = -1j * commutator(H, F)
    return BrachRhs(problem.project_driver(C), problem.project_constraint(C))


def rk4_step(rhs, y: np.ndarray, dt: float) -> np.ndarray:
    """One classical Runge-Kutta step of dy/dt = rhs(y)."""
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * dt * k1)
    k3 = rhs(y + 0.5 * dt * k2)
    k4 = rhs(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def evolve(problem: ControlProblem, H0, F0, psi0, t_max: float,
           dt: float = 1e-4, record_every: int = 1) -> Trajectory:
    """Fixed-step RK4 on the joint system (psi, H, F).

    H and F are stepped in their subspace coordinates (ControlProblem.flow),
    so they stay in their subspaces exactly; psi is stepped alongside and
    renormalized if its norm drifts beyond 1e-12.  H0 and F0 must lie in
    their subspaces to 1e-8.  Aborts with DriftAbort if any tracked
    invariant (norm, Tr H^2, Tr HF, spectrum of H + F) drifts beyond 1e-4
    or is not finite at a recorded sample.
    """
    if dt <= 0:
        raise ValidationError("dt must be positive")
    H, F = check_hermitian(H0), check_hermitian(F0)
    psi = check_state(psi0)
    brach_rhs(H, F, problem)  # validate subspace membership at t=0

    trH2_0 = trace_inner(H, H)
    # the isospectral object is G = H + F: dG/dt = -i [G, F]
    eig0 = np.linalg.eigvalsh(H + F)
    eig_scale = max(np.max(np.abs(eig0)), 1e-30)

    n_steps = max(int(round(t_max / dt)), 1)
    times, Hs, Fs, psis = [], [], [], []
    norm_d, trH2_d, trHF_r, eig_d = [], [], [], []

    def record(step, t, H, F, psi):
        times.append(t)
        Hs.append(H)
        Fs.append(F)
        psis.append(psi)
        # plain traces, not trace_inner: a non-finite H or F must reach the
        # gate below as a non-finite drift, not raise ValidationError
        norm_d.append(abs(np.linalg.norm(psi) - 1.0))
        trH2_d.append(abs(np.trace(H @ H).real - trH2_0)
                      / max(abs(trH2_0), 1e-30))
        trHF_r.append(abs(np.trace(H @ F).real))
        G = H + F
        # eigvalsh can return finite values for a non-finite matrix
        eig_d.append(np.max(np.abs(np.linalg.eigvalsh(G) - eig0)) / eig_scale
                     if np.all(np.isfinite(G)) else np.inf)
        # NaN compares False, so the gate asks for every drift to be in range
        drifts = (norm_d[-1], trH2_d[-1], trHF_r[-1], eig_d[-1])
        if not all(d <= DRIFT_ABORT for d in drifts):
            raise DriftAbort(
                f"invariant drift beyond {DRIFT_ABORT:g} at t={t:.6f}",
                {"t": t, "step": step, "norm_drift": norm_d[-1],
                 "trH2_drift": trH2_d[-1], "trHF_residual": trHF_r[-1],
                 "eigenvalue_drift": eig_d[-1]})

    # state z = (h, f, Re/Im psi) as one real array
    y = problem.coefficients(H, F)
    m, nd, n = y.shape[0], problem._driver.shape[0], problem.dim
    driver = problem._driver.reshape(nd, n * n)

    def rhs(z):
        H = (z[:nd] @ driver).reshape(n, n)
        dpsi = -1j * (H @ z[m:].view(complex))
        return np.concatenate([problem.flow(z[:m]), dpsi.view(float)])

    z = np.concatenate([y, psi.view(float)])
    record(0, 0.0, *problem.matrices(y), psi)
    for step in range(1, n_steps + 1):
        z = rk4_step(rhs, z, dt)
        psi = z[m:].view(complex)
        nrm = np.linalg.norm(psi)
        if abs(nrm - 1.0) > RENORM_THRESHOLD:
            z[m:] /= nrm
        if step % record_every == 0 or step == n_steps:
            record(step, step * dt, *problem.matrices(z[:m]), psi.copy())

    return Trajectory(np.array(times), np.array(Hs), np.array(Fs),
                      np.array(psis), np.array(norm_d), np.array(trH2_d),
                      np.array(trHF_r), np.array(eig_d))


# --- SU(2) multivector form -------------------------------------------------
#
# A traceless Hermitian 2x2 matrix [[m_z, eps], [eps*, -m_z]] maps to the
# triple (sqrt(2) m_z, eps, eps*); the sqrt(2) keeps Tr(A B) = <a|b>.

_SQRT2 = np.sqrt(2.0)

A1 = _SQRT2 * np.array([[0, 0, 0], [0, 1, 0], [0, 0, -1]], dtype=complex)
A2 = _SQRT2 * np.array([[0, -1, 0], [0, 0, 0], [1, 0, 0]], dtype=complex)
A3 = _SQRT2 * np.array([[0, 0, 1], [-1, 0, 0], [0, 0, 0]], dtype=complex)


def su2_vectorize(M) -> np.ndarray:
    A = check_hermitian(M)
    if A.shape[0] != 2:
        raise ValidationError("su2_vectorize requires a 2x2 matrix")
    if abs(np.trace(A)) > 1e-10:
        raise ValidationError("su2_vectorize requires a traceless matrix")
    return np.array([_SQRT2 * A[0, 0].real, A[0, 1], A[1, 0]], dtype=complex)


def su2_devectorize(v) -> np.ndarray:
    v = np.asarray(v, dtype=complex).reshape(3)
    return np.array([[v[0] / _SQRT2, v[1]], [v[2], -v[0] / _SQRT2]])


def su2_vector_rhs(h, f) -> np.ndarray:
    """Vector form of the rhs: component j is <f| A_j |h>.

    This is the Schrodinger-like form i dh/dt: it equals
    i * su2_vectorize(-i [H, F]) for the corresponding matrices.
    """
    h = np.asarray(h, dtype=complex).reshape(3)
    f = np.asarray(f, dtype=complex).reshape(3)
    return np.array([np.vdot(f, A @ h) for A in (A1, A2, A3)])
