"""Dense complex matrix algebra for small Hermitian systems.

Everything downstream (the brachistochrone integrator, the scenario catalog,
the gate checks) works with plain square numpy arrays at desk scale
(dim <= ~16).  This module provides the validated primitives: the
commutator, trace inner products, Hermitian eigendecomposition with a
deterministic phase convention, the spectral matrix exponential and the
step-ordered exponential.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

HERM_TOL = 1e-12
STATE_TOL = 1e-10


class ValidationError(ValueError):
    """Raised when a matrix/state fails a structural precondition."""


def as_matrix(M) -> np.ndarray:
    """Coerce to a square complex ndarray."""
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValidationError(f"expected square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValidationError("matrix entries must be finite")
    return A


def check_hermitian(M) -> np.ndarray:
    A = as_matrix(M)
    dev = np.max(np.abs(A - A.conj().T))
    if dev > HERM_TOL:
        raise ValidationError(f"matrix not Hermitian: max |M - M^dag| = {dev:.3e}")
    return A


def check_state(psi) -> np.ndarray:
    v = np.asarray(psi, dtype=complex).reshape(-1)
    if not np.all(np.isfinite(v)):
        raise ValidationError("state entries must be finite")
    nrm = np.linalg.norm(v)
    if abs(nrm - 1.0) > STATE_TOL:
        raise ValidationError(f"state not normalized: ||psi|| = {nrm:.12f}")
    return v


def commutator(A, B) -> np.ndarray:
    A, B = as_matrix(A), as_matrix(B)
    if A.shape != B.shape:
        raise ValidationError("dimension mismatch in commutator")
    return A @ B - B @ A


def trace_inner(A, B) -> float:
    """Tr(A B), real part (imaginary residue is O(1e-12) for Hermitian pairs)."""
    A, B = as_matrix(A), as_matrix(B)
    if A.shape != B.shape:
        raise ValidationError("dimension mismatch in trace_inner")
    return float(np.trace(A @ B).real)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (ascending) and orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def expm(self, t) -> np.ndarray:
        """U = exp(-i H t) for the H this spectrum decomposes: (d, d) for a
        scalar t, (N, d, d) for an array of N times."""
        phases = np.exp(-1j * self.eigenvalues * np.asarray(t)[..., None])
        V = self.eigenvectors
        return (V * phases[..., None, :]) @ V.conj().T


def _fix_phases(V: np.ndarray) -> np.ndarray:
    """Make each column's largest-magnitude component real positive.

    Ties broken by lowest index (np.argmax convention).
    """
    W = V.copy()
    for j in range(W.shape[1]):
        col = W[:, j]
        i = int(np.argmax(np.abs(col)))
        piv = col[i]
        if abs(piv) > 0:
            W[:, j] = col * (piv.conjugate() / abs(piv))
    return W


def hermitian_eig(M) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix with deterministic phases."""
    A = check_hermitian(M)
    vals, vecs = np.linalg.eigh(A)
    return Spectrum(eigenvalues=vals, eigenvectors=_fix_phases(vecs))


def expm_h(H, t: float = 1.0) -> np.ndarray:
    """U = exp(-i H t) for Hermitian H, via spectral decomposition."""
    return hermitian_eig(H).expm(t)


def ordered_exponential(H: Callable[[np.ndarray], np.ndarray],
                        t_max: float, dt: float) -> np.ndarray:
    """Step-ordered product of exp(-i H(t_k + dt/2) dt), midpoint rule.

    H is called once, on the array of midpoints, and returns one matrix per
    midpoint (or one matrix for all of them).  Recovers the closed-form
    exponential only when the integrand self-commutes; otherwise it is the
    time-ordered propagator.
    """
    if dt <= 0:
        raise ValidationError("dt must be positive")
    if dt > t_max:
        raise ValidationError("dt must not exceed t_max")
    n_full = int(t_max / dt)
    remainder = t_max - n_full * dt
    # t_k as the running sum of the steps, the last one the remainder's start
    starts = np.concatenate(([0.0], np.cumsum(np.full(n_full, dt))))
    steps = [dt] * n_full + ([remainder] if remainder > 1e-15 else [])
    mids = starts[:len(steps)] + np.array(steps) / 2.0
    Hs = H(mids)
    Hs = np.broadcast_to(Hs, mids.shape + np.shape(Hs)[-2:])
    U = np.eye(Hs.shape[-1], dtype=complex)
    for Hk, step in zip(Hs, steps):
        U = expm_h(Hk, step) @ U
    return U
