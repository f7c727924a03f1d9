"""Quantum brachistochrone engine.

Integrates the coupled evolution law

    i d(H + F)/dt = [H, F],    i dpsi/dt = H psi,

with H confined to a "driver" subspace and F to a trace-orthogonal
"constraint" subspace of traceless Hermitian matrices.  Tracks the
conserved quantities (Tr H^2, Tr(HF), the spectrum of H + F, state norm).
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .matcore import (MAX_STEPS, ValidationError, check_hermitian,
                      check_state, grid_steps)

DRIFT_ABORT = 1e-4
RENORM_THRESHOLD = 1e-12
# integrate gates the states recorded over this many grid steps in one call
SAMPLE_BLOCK = 256
# integrate's Taylor steps: the order of their polynomials, and the step
# h = min(rho_{p-1}, rho_p) * TAYLOR_STEP_SCALE at order p, with
# rho_j = ||c_j||_inf^(-1/j) from the step's coefficients c_j
TAYLOR_ORDER = 20
TAYLOR_STEP_SCALE = math.exp(-2.0)


class DriftAbort(RuntimeError):
    """Raised when an invariant drifts beyond the hard limit while stepping."""

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(message)
        self.diagnostics = diagnostics


def _orthonormalize(basis: Sequence[np.ndarray], dim: int,
                    label: str) -> np.ndarray:
    """Gram-Schmidt under the trace inner product Tr(A B); returns a stack.

    The elements are checked as one stack.  For Hermitian E and A,
    Tr(E A) = sum(conj(E) * A), so each element is projected against the
    stacked orthonormal set in one product.
    """
    if len(basis) == 0:
        return np.empty((0, dim, dim), dtype=complex)
    try:
        A = np.asarray(basis, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{label} basis elements are not matrices "
                              "of one shape") from exc
    if A.shape[1:] != (dim, dim):
        raise ValidationError(f"{label} basis element is not {dim}x{dim}")
    A = check_hermitian(A, stack=True)
    if np.any(np.abs(np.trace(A, axis1=1, axis2=2)) > 1e-10):
        raise ValidationError(f"{label} basis element not traceless")
    A = A.reshape(len(A), dim * dim)
    out = np.empty_like(A)
    for k, a in enumerate(A):
        a = a - (out[:k].conj() @ a).real @ out[:k]
        nrm = np.linalg.norm(a)
        if nrm < 1e-12:
            raise ValidationError(f"{label} basis is linearly dependent")
        out[k] = a / nrm
    if np.max(np.abs(out - A)) > 1e-10:
        warnings.warn(f"{label} basis was not orthonormal under Tr(A B); "
                      "Gram-Schmidt applied", stacklevel=3)
    return out.reshape(-1, dim, dim)


def _bilinear(terms, z) -> np.ndarray:
    """dz of the bilinear system held as the term list (k, a, b, v), four
    equal-length arrays: each term adds v * z[a] * z[b] to dz[k]."""
    k, a, b, v = terms
    return np.bincount(k, v * z[a] * z[b], len(z))


def _joined(systems):
    """Several bilinear systems laid out as one flat state z, as the census
    steps its four pairs: systems holds (terms, z0) pairs, placed in
    order.  Returns the joined term list (each system's terms shifted to
    its place in z), z's start (the z0s one after another) and each
    system's slice of z."""
    parts, cols, offset = [], [], 0
    for (k, a, b, v), z0 in systems:
        parts.append((k + offset, a + offset, b + offset, v))
        cols.append(slice(offset, offset + len(z0)))
        offset += len(z0)
    return (tuple(map(np.concatenate, zip(*parts))),
            np.concatenate([z0 for _, z0 in systems]), cols)


@dataclass
class ControlProblem:
    """One brachistochrone instance: the driver and constraint subspace bases.

    driver_basis spans the admissible Hamiltonians H, constraint_basis the
    multiplier operator F; the two spans must be trace-orthogonal.

    In the orthonormalized bases D (driver) and C (constraint), H = h . D and
    F = f . C, and the projected flow is the real bilinear system

        dy_k = sum_ab T[k, a, b] h_a f_b,   T[k, a, b] = Re Tr(B_k (-i)[D_a, C_b])

    on y = (h, f), with B = D stacked on C.  Only the entries of T above
    round-off (1e-13) are kept, as the term list that flow() evaluates (see
    _bilinear).  The subspaces hold exactly in these coordinates, so no
    projection is needed while stepping.  Tr H^2 is |h|^2 and Tr HF is
    h . X . f, with X[a, b] = Tr(D_a C_b) the cross-Gram matrix (zero to
    round-off).
    """

    dim: int
    driver_basis: Sequence[np.ndarray]
    constraint_basis: Sequence[np.ndarray]

    _driver: np.ndarray = field(init=False, repr=False)
    _constraint: np.ndarray = field(init=False, repr=False)
    _cross_gram: np.ndarray = field(init=False, repr=False)
    _terms: tuple = field(init=False, repr=False)

    def __post_init__(self):
        n = self.dim
        D = self._driver = _orthonormalize(self.driver_basis, n, "driver")
        C = self._constraint = _orthonormalize(self.constraint_basis, n,
                                               "constraint")
        nd, nc = len(D), len(C)
        X = self._cross_gram = (D.reshape(nd, n * n).conj()
                                @ C.reshape(nc, n * n).T).real
        if X.size and np.max(np.abs(X)) > 1e-10:
            ip = X.flat[np.argmax(np.abs(X))]
            raise ValidationError(
                f"driver and constraint subspaces not trace-orthogonal "
                f"(Tr(d g) = {ip:.3e})")
        # Re Tr(B_k (-i) X) = Im Tr(B_k X), and Tr(B_k X) = B_k^T . X
        Bt = np.concatenate([D, C]).transpose(0, 2, 1).reshape(nd + nc, n * n)
        comm = D[:, None] @ C
        comm -= C @ D[:, None]
        T = (Bt @ comm.reshape(nd * nc, n * n).T).imag
        T = T.reshape(nd + nc, nd, nc)
        # an entry that the algebra makes zero comes out as round-off (about
        # 4e-17 for the su(7) families), which would put a term in an empty
        # block of the flow
        k, a, b = np.nonzero(np.abs(T) > 1e-13)
        self._terms = (k, a, nd + b, T[k, a, b])

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
        return _bilinear(self._terms, y)

    def project_driver(self, C: np.ndarray) -> np.ndarray:
        coeffs = np.einsum("kij,ji->k", self._driver, C).real
        return np.einsum("k,kij->ij", coeffs, self._driver)

    def project_constraint(self, C: np.ndarray) -> np.ndarray:
        coeffs = np.einsum("kij,ji->k", self._constraint, C).real
        return np.einsum("k,kij->ij", coeffs, self._constraint)


def _coordinates(problem: ControlProblem, H, F) -> np.ndarray:
    """y = (h, f) of the checked H and F: finite Hermitian dim x dim
    matrices that lie in their subspaces, i.e. matrices(y) returns them to
    1e-8.  Bad input raises ValidationError."""
    H, F = check_hermitian(H), check_hermitian(F)
    n = problem.dim
    if H.shape != (n, n) or F.shape != (n, n):
        raise ValidationError(f"H and F must be {n}x{n}, got {H.shape} "
                              f"and {F.shape}")
    y = problem.coefficients(H, F)
    H1, F1 = problem.matrices(y)
    res_H, res_F = np.max(np.abs(H - H1)), np.max(np.abs(F - F1))
    if res_H > 1e-8 or res_F > 1e-8:
        raise ValidationError(
            f"H/F not in their subspaces (residuals {res_H:.3e}, {res_F:.3e})")
    return y


def brach_rhs(H, F, problem: ControlProblem) -> tuple:
    """Right-hand side (dH, dF) of the evolution law, -i[H, F] projected
    onto the driver and constraint subspaces: the problem's flow at (H, F)."""
    y = _coordinates(problem, H, F)
    return problem.matrices(problem.flow(y))


def rk4_step(rhs, y: np.ndarray, dt: float) -> np.ndarray:
    """One classical Runge-Kutta step of dy/dt = rhs(y).  Only the census
    (catalog.su3_partitions) steps by RK4, until it moves to the Taylor
    steps integrate takes."""
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * dt * k1)
    k3 = rhs(y + 0.5 * dt * k2)
    k4 = rhs(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def rk4_path(terms, z: np.ndarray, n_steps: int, dt: float) -> np.ndarray:
    """The RK4 path of the bilinear system held as the term list terms (see
    _bilinear): an (n_steps + 1, len(z)) array whose row s is the state
    after s steps of dt, row 0 being z.  A state that overflows gives
    non-finite rows, without a numpy warning.  Only the census steps by
    this path (integrate steps by _taylor_path)."""
    def flow(v):
        return _bilinear(terms, v)

    ys = np.empty((n_steps + 1, len(z)))
    ys[0] = z
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(1, n_steps + 1):
            z = ys[s] = rk4_step(flow, z, dt)
    return ys


def _taylor_coefficients(terms, z: np.ndarray) -> np.ndarray:
    """The Taylor coefficients c_0 .. c_TAYLOR_ORDER, as rows, of the
    solution through z of the bilinear system held as the term list terms
    (see _bilinear): c_0 = z and, one Cauchy product per order,

        c_{j+1} = bincount(k, v * sum_{i<=j} c_i[a] c_{j-i}[b]) / (j + 1).
    """
    k, a, b, v = terms
    c = np.empty((TAYLOR_ORDER + 1, len(z)))
    ca, cb = np.empty((TAYLOR_ORDER, len(a))), np.empty((TAYLOR_ORDER, len(b)))
    c[0] = z
    for j in range(TAYLOR_ORDER):
        ca[j], cb[j] = c[j, a], c[j, b]
        s = np.einsum("it,it->t", ca[:j + 1], cb[j::-1])
        c[j + 1] = np.bincount(k, v * s, len(z)) / (j + 1)
    return c


def _taylor_step(terms, z: np.ndarray) -> tuple[np.ndarray, float]:
    """The Taylor step from z: its coefficients (see _taylor_coefficients)
    and its length h (see TAYLOR_STEP_SCALE).  h is infinite when the last
    two coefficients are 0, and when they are not finite (an overflowing
    state is then held to the end of the run)."""
    orders = np.arange(TAYLOR_ORDER - 1, TAYLOR_ORDER + 1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        c = _taylor_coefficients(terms, z)
        rho = np.abs(c[-2:]).max(axis=1) ** (-1.0 / orders)
    h = float(rho.min()) * TAYLOR_STEP_SCALE
    return c, (h if h > 0 else math.inf)


def _horner(c: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """The polynomial with coefficient rows c at the times tau, as rows."""
    Z = c[-1] * tau[:, None]
    for cj in c[-2:0:-1]:
        Z += cj
        Z *= tau[:, None]
    return Z + c[0]


def _taylor_path(terms, z: np.ndarray, psi: slice, t_max: float):
    """The Taylor path of the bilinear system held as the term list terms
    from z at t = 0, as a function that takes times (increasing, none
    before the times it was last given) and returns the states there as
    rows, each from its step's polynomial (dense output).

    The path steps (see _taylor_step) only past the last time it is given,
    so its steps do not depend on the times.  After each step, the unit
    vector z[psi] is renormalized if its norm has moved by more than
    RENORM_THRESHOLD.  A first step that puts t_max more than MAX_STEPS
    steps away raises ValidationError here; a path that takes more than
    MAX_STEPS steps raises it when it does.  A state that overflows gives
    non-finite rows, without a numpy warning.
    """
    c, h = _taylor_step(terms, z)
    if t_max / h > MAX_STEPS:
        raise ValidationError(
            f"t_max {t_max:g} is over {MAX_STEPS} Taylor steps away "
            f"(first step {h:.3e})")
    t0, n_steps = 0.0, 1

    def states(t: np.ndarray) -> np.ndarray:
        nonlocal c, h, t0, n_steps
        out = np.empty((len(t), c.shape[1]))
        i = 0
        with np.errstate(over="ignore", invalid="ignore"):
            while True:
                j = int(np.searchsorted(t, t0 + h, side="right"))
                out[i:j] = _horner(c, t[i:j] - t0)
                if j == len(t):
                    return out
                i = j
                n_steps += 1
                if n_steps > MAX_STEPS:
                    raise ValidationError(
                        f"more than {MAX_STEPS} Taylor steps before "
                        f"t = {t[i]:g}")
                z = _horner(c, np.array([h]))[0]
                w = z[psi]
                nrm = math.sqrt(w @ w)
                if abs(nrm - 1.0) > RENORM_THRESHOLD:
                    w /= nrm
                t0 += h
                c, h = _taylor_step(terms, z)

    return states


class Samples(NamedTuple):
    """Recorded points as columns, one row per recorded step: a block of
    integrate's, or the whole record of one run that evolve returns.

    The drift fields are the ones the gate reads and DriftAbort reports.
    """

    step: np.ndarray
    t: np.ndarray
    y: np.ndarray              # coordinates (h, f) of H and F, one row each
    psi: np.ndarray
    trH2: np.ndarray           # Tr H^2 = |h|^2
    trHF: np.ndarray           # Tr HF = h . X . f
    norm: np.ndarray           # ||psi||
    norm_drift: np.ndarray
    trH2_drift: np.ndarray     # relative drift of Tr H^2
    trHF_residual: np.ndarray
    eigenvalue_drift: np.ndarray   # spectrum drift of G = H + F

    def head(self, k: int) -> "Samples":
        """The block's first k rows."""
        return Samples(*(column[:k] for column in self))

    @staticmethod
    def concatenate(blocks) -> "Samples":
        """The rows of the blocks, in order, as one block."""
        return Samples(*map(np.concatenate, zip(*blocks)))


# the last four fields of Samples, in order
_DRIFTS = Samples._fields[-4:]


def _psi_terms(problem: ControlProblem, offset: int):
    """Terms of dpsi = -i H psi on the interleaved (Re, Im) pairs of psi at
    z[offset:], with h at z[:nd]: -i D_a acts on each pair as the 2x2
    blocks [[Im D_a, Re D_a], [-Re D_a, Im D_a]]."""
    D, n = problem._driver, problem.dim
    R = np.empty((len(D), n, 2, n, 2))
    R[:, :, 0, :, 0] = R[:, :, 1, :, 1] = D.imag
    R[:, :, 0, :, 1] = D.real
    R[:, :, 1, :, 0] = -D.real
    R = R.reshape(len(D), 2 * n, 2 * n)
    a, i, j = np.nonzero(R)
    return offset + i, a, offset + j, R[a, i, j]


def integrate(problem: ControlProblem, H0, F0, psi0, t_max: float,
              dt: float, record_every: int = 1):
    """The run (problem, H0, F0, psi0), stepped by Taylor series and
    recorded on the grid of dt.

    Returns a generator of Samples blocks whose rows are step 0, every
    record_every-th step and the last of grid_steps(t_max, dt), at t =
    step * dt.  The run's z = (h, f, psi) (psi as interleaved (Re, Im)
    pairs) follows one _taylor_path through its terms: the problem's flow
    terms and those of dpsi = -i H psi.  The path picks its steps from its
    coefficients and reads each recorded state from its step's polynomial,
    so dt sets only where the states are recorded, not their accuracy, and
    a run costs its steps to t_max and its records.  H and F stay in their
    subspaces exactly, and psi is renormalized (norm drift beyond 1e-12)
    after each step.  Step 0 is gated first, then the states recorded over
    each SAMPLE_BLOCK grid steps together (one stacked eigvalsh), so a
    sample lags the state by at most SAMPLE_BLOCK grid steps.

    The grid, record_every (a positive integer), H0 and F0 (see
    _coordinates) and psi0 (a finite unit vector of problem.dim entries)
    are checked here, then the first step: a first step that puts t_max
    more than MAX_STEPS steps away raises ValidationError before the first
    sample, as does bad input, and a run that takes more than MAX_STEPS
    steps raises it when it does.  The run aborts at a sample where any
    tracked invariant (norm, Tr H^2, Tr HF, spectrum of H + F) drifts
    beyond 1e-4 or is not finite: the samples before it are yielded and
    DriftAbort is raised.  A state that overflows aborts without a numpy
    warning.
    """
    n_steps = grid_steps(t_max, dt)
    if not (isinstance(record_every, numbers.Integral) and record_every >= 1):
        raise ValidationError(
            f"record_every must be a positive integer, got {record_every!r}")
    y0 = _coordinates(problem, H0, F0)
    psi = check_state(psi0)
    n, nd = problem.dim, problem._driver.shape[0]
    if psi.shape != (n,):
        raise ValidationError(f"psi0 must have {n} entries, got {psi.size}")
    m = y0.shape[0]
    z0 = np.concatenate([y0, psi.view(float)])
    terms = tuple(map(np.concatenate,
                      zip(problem._terms, _psi_terms(problem, m))))
    X = problem._cross_gram
    # G = H + F = y . B, the isospectral object: dG/dt = -i [G, F]
    B = np.concatenate([problem._driver, problem._constraint]).reshape(m, -1)
    trH2_0 = float(y0[:nd] @ y0[:nd])
    trH2_scale = max(abs(trH2_0), 1e-30)
    eig0 = np.linalg.eigvalsh((y0 @ B).reshape(n, n))
    eig_scale = max(np.max(np.abs(eig0)), 1e-30)
    path = _taylor_path(terms, z0, slice(m, None), t_max)

    def gate(steps, Z):
        """The Samples of the recorded states Z (one row per step of
        steps) up to the first row whose drifts are not all in range, and
        the DriftAbort there (None if there is none)."""
        Y, W = Z[:, :m], Z[:, m:]
        h, f = Y[:, None, :nd], Y[:, nd:, None]
        # each stacked product does per row what h @ h, h @ X @ f, w @ w
        # and y @ B do on one row, so the values are the same to the bit
        with np.errstate(over="ignore", invalid="ignore"):
            trH2 = (h @ h.mT)[:, 0, 0]
            trHF = ((h @ X) @ f)[:, 0, 0]
            norm = np.sqrt((W[:, None, :] @ W[:, :, None])[:, 0, 0])
            G = (Y[:, None, :] @ B).reshape(-1, n, n)
            # eigvalsh can return finite values for a non-finite matrix
            finite = np.isfinite(G).all(axis=(1, 2))
            eig_d = np.full(len(Z), math.inf)
            if finite.any():
                eig_d[finite] = np.abs(np.linalg.eigvalsh(G[finite])
                                       - eig0).max(axis=1) / eig_scale
            drifts = np.stack([np.abs(norm - 1.0),
                               np.abs(trH2 - trH2_0) / trH2_scale,
                               np.abs(trHF), eig_d], axis=1)
        block = Samples(steps, steps * dt, Y,
                        np.ascontiguousarray(W).view(complex), trH2, trHF,
                        norm, *drifts.T)
        # NaN compares False, so the gate asks for every drift to be in range
        bad = np.flatnonzero(~(drifts <= DRIFT_ABORT).all(axis=1))
        if not bad.size:
            return block, None
        k = bad[0]
        t = float(block.t[k])
        return block.head(k), DriftAbort(
            f"invariant drift beyond {DRIFT_ABORT:g} at t={t:.6f}",
            {"t": t, "step": int(steps[k]),
             **dict(zip(_DRIFTS, drifts[k].tolist()))})

    def records():
        yield np.zeros(1, dtype=int), z0[None]
        for start in range(1, n_steps + 1, SAMPLE_BLOCK):
            steps = np.arange(start, min(start + SAMPLE_BLOCK, n_steps + 1))
            steps = steps[(steps % record_every == 0) | (steps == n_steps)]
            if steps.size:
                yield steps, path(steps * dt)

    def blocks():
        for steps, Z in records():
            block, abort = gate(steps, Z)
            yield block
            if abort is not None:
                raise abort

    return blocks()


def evolve(problem: ControlProblem, H0, F0, psi0, t_max: float,
           dt: float = 1e-4, record_every: int = 1) -> Samples:
    """The samples of the run (problem, H0, F0, psi0) as one Samples:
    integrate's blocks concatenated (same checks and DriftAbort)."""
    return Samples.concatenate(integrate(problem, H0, F0, psi0, t_max, dt,
                                         record_every))


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
