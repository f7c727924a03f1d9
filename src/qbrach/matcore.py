"""Dense complex matrix algebra for small Hermitian systems.

Everything downstream (the brachistochrone integrator, the scenario catalog,
the gate checks) works with plain square numpy arrays at desk scale
(dim <= ~16).  This module provides the validated primitives: trace
inner products, Hermitian eigendecomposition with a deterministic phase
convention, the spectral matrix exponential and the step-ordered
exponential.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

HERM_TOL = 1e-12
STATE_TOL = 1e-10


class ValidationError(ValueError):
    """Raised when a matrix/state fails a structural precondition."""


def as_matrix(M, stack: bool = False) -> np.ndarray:
    """Coerce to a square complex ndarray; with stack=True, to a stack
    (..., d, d) of square matrices."""
    A = np.asarray(M, dtype=complex)
    if (A.ndim < 2 if stack else A.ndim != 2) or A.shape[-2] != A.shape[-1]:
        raise ValidationError(f"expected square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValidationError("matrix entries must be finite")
    return A


def check_hermitian(M, stack: bool = False) -> np.ndarray:
    """A finite Hermitian matrix, or with stack=True a stack (..., d, d)
    of them checked at once (the error names the worst deviation).  An
    empty stack has no entries to check and is returned as it is."""
    A = as_matrix(M, stack)
    if not A.size:
        return A
    dev = np.max(np.abs(A - A.conj().swapaxes(-1, -2)))
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


def trace_inner(A, B) -> float:
    """Tr(A B), real part (imaginary residue is O(1e-12) for Hermitian pairs)."""
    A, B = as_matrix(A), as_matrix(B)
    if A.shape != B.shape:
        raise ValidationError("dimension mismatch in trace_inner")
    return float(np.trace(A @ B).real)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (ascending) and orthonormal eigenvector columns, of one
    matrix ((d,) and (d, d)) or of a stack ((..., d) and (..., d, d))."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def expm(self, t) -> np.ndarray:
        """U = exp(-i H t) for the H this spectrum decomposes: (d, d) for a
        scalar t, (N, d, d) for an array of N times.  For a stack, t
        broadcasts against its leading axes (one time per matrix)."""
        phases = np.exp(-1j * self.eigenvalues * np.asarray(t)[..., None])
        V = self.eigenvectors
        return (V * phases[..., None, :]) @ V.conj().swapaxes(-1, -2)


def _fix_phases(V: np.ndarray) -> np.ndarray:
    """Make each column's largest-magnitude component real positive, for
    one matrix (d, d) or a stack (..., d, d).

    Ties broken by lowest index (np.argmax convention); a zero column
    stays zero.  The modulus is np.hypot of the parts, which rounds as the
    scalar abs() of one complex pivot does.
    """
    rows = np.argmax(np.abs(V), axis=-2)
    piv = np.take_along_axis(V, rows[..., None, :], axis=-2)[..., 0, :]
    mod = np.hypot(piv.real, piv.imag)
    return V * (piv.conj() / np.where(mod > 0, mod, 1.0))[..., None, :]


def hermitian_eig(M, stack: bool = False) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix with deterministic phases;
    with stack=True, of a stack (..., d, d) in one call."""
    A = check_hermitian(M, stack)
    vals, vecs = np.linalg.eigh(A)
    return Spectrum(eigenvalues=vals, eigenvectors=_fix_phases(vecs))


def expm_h(H, t: float = 1.0) -> np.ndarray:
    """U = exp(-i H t) for Hermitian H, via spectral decomposition."""
    return hermitian_eig(H).expm(t)


def ordered_exponential(H: Callable[[np.ndarray], np.ndarray],
                        t_max: float, dt: float) -> np.ndarray:
    """Step-ordered product of exp(-i H(t_k + dt/2) dt), midpoint rule.

    H is called once, on the array of midpoints, and returns one matrix per
    midpoint (or one matrix for all of them).  The (n_steps, d, d) stack is
    checked for finite Hermitian entries and diagonalized in one call, every
    step propagator is built in one batched product, and only the ordered
    product U = U_k @ U runs step by step.  Recovers the closed-form
    exponential only when the integrand self-commutes; otherwise it is the
    time-ordered propagator.  A t_max or dt that is not finite, a dt <= 0
    or a dt > t_max raises ValidationError before H is called.
    """
    if not (np.isfinite(t_max) and np.isfinite(dt)):
        raise ValidationError("t_max and dt must be finite")
    if dt <= 0:
        raise ValidationError("dt must be positive")
    if dt > t_max:
        raise ValidationError("dt must not exceed t_max")
    n_full = int(t_max / dt)
    remainder = t_max - n_full * dt
    # t_k as the running sum of the steps, the last one the remainder's start
    starts = np.concatenate(([0.0], np.cumsum(np.full(n_full, dt))))
    steps = np.array([dt] * n_full + ([remainder] if remainder > 1e-15 else []))
    mids = starts[:len(steps)] + steps / 2.0
    Hs = H(mids)
    Hs = np.broadcast_to(Hs, mids.shape + np.shape(Hs)[-2:])
    Us = hermitian_eig(Hs, stack=True).expm(steps)
    U = np.eye(Hs.shape[-1], dtype=complex)
    for Uk in Us:
        U = Uk @ U
    return U
