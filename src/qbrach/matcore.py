"""Dense complex matrix algebra for small Hermitian systems.

Everything downstream (the brachistochrone integrator, the scenario catalog,
the gate checks) works with plain square numpy arrays at desk scale
(dim <= ~16).  This module provides the validated primitives: trace
inner products, Hermitian eigendecomposition, the spectral matrix
exponential and the step-ordered exponential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

HERM_TOL = 1e-12
STATE_TOL = 1e-10
# a grid of more than this many steps (t_max / dt) is rejected by
# grid_steps: 20x the longest documented run, the census at t_max 50, dt 1e-3
MAX_STEPS = 10**6
# ordered_exponential's Gauss-Legendre nodes on a unit step, 1/2 -+ sqrt(3)/6,
# and the factor i sqrt(3)/12 of the commutator in its Magnus generator
_GAUSS_NODES = 0.5 + np.array([-1.0, 1.0]) * (math.sqrt(3) / 6)
_MAGNUS_BRACKET = 1j * math.sqrt(3) / 12


class ValidationError(ValueError):
    """Raised when a matrix/state fails a structural precondition."""


def grid_steps(t_max: float, dt: float) -> int:
    """The number of steps of dt that a run to t_max takes, round(t_max /
    dt).  t_max and dt must be finite, with dt > 0, t_max >= dt and at most
    MAX_STEPS steps; a bad grid raises ValidationError."""
    if not (math.isfinite(t_max) and math.isfinite(dt)):
        raise ValidationError("t_max and dt must be finite")
    if dt <= 0 or t_max < dt:
        raise ValidationError("need dt > 0 and t_max >= dt")
    if t_max / dt > MAX_STEPS:
        raise ValidationError(f"t_max / dt exceeds {MAX_STEPS} steps")
    return int(round(t_max / dt))


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


def hermitian_eig(M, stack: bool = False) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix; with stack=True, of a
    stack (..., d, d) in one call."""
    return Spectrum(*np.linalg.eigh(check_hermitian(M, stack)))


def expm_h(H, t: float = 1.0) -> np.ndarray:
    """U = exp(-i H t) for Hermitian H, via spectral decomposition."""
    return hermitian_eig(H).expm(t)


def ordered_exponential(H: Callable[[np.ndarray], np.ndarray],
                        t_max: float, dt: float) -> np.ndarray:
    """Step-ordered product of fourth-order Magnus steps exp(-i M_k) on the
    grid_steps(t_max, dt) equal steps h = t_max / n.

    Step k takes H at its Gauss points t-, t+ = (k + 1/2 -+ sqrt(3)/6) h
    and M_k = h (H- + H+) / 2 + i (sqrt(3)/12) h^2 [H-, H+], which is
    Hermitian (Iserles and Norsett, Phil. Trans. R. Soc. A 357 (1999) 983).
    H is called once, on the array of 2n Gauss times in step order, and
    returns one matrix per time (or one matrix for all of them).  That
    stack is checked for finite Hermitian entries in one call, the n
    generators come from one batched commutator and are diagonalized in one
    call, and only the ordered product U = U_k @ U runs step by step.
    Recovers the closed-form exponential when the integrand self-commutes;
    otherwise it is the time-ordered propagator to O(h^4).  A grid that
    grid_steps rejects raises ValidationError before H is called.
    """
    n = grid_steps(t_max, dt)
    h = t_max / n
    times = ((np.arange(n)[:, None] + _GAUSS_NODES) * h).reshape(-1)
    Hs = H(times)
    Hs = check_hermitian(np.broadcast_to(Hs, times.shape + np.shape(Hs)[-2:]),
                         stack=True)
    Hm, Hp = Hs[0::2], Hs[1::2]
    M = h / 2 * (Hm + Hp) + _MAGNUS_BRACKET * h * h * (Hm @ Hp - Hp @ Hm)
    U = np.eye(Hs.shape[-1], dtype=complex)
    for Uk in hermitian_eig(M, stack=True).expm(1.0):
        U = Uk @ U
    return U
