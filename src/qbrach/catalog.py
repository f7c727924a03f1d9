"""Closed-form time-optimal scenario catalog.

Each scenario packages an analytic Hamiltonian H(t), constraint F(t),
propagator U(t,0), state psi(t) and minimum-time data for one of the
solvable control families: two-level resonant control, the real
three-level rotor, the three-level elliptic and geodesic families, the
Frenet frame flow, the two-qubit exchange chain, and the relativistic
co-rotating-frame problem.  Scenarios cross-validate against the
brachistochrone integrator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .matcore import (ValidationError, check_hermitian, hermitian_eig,
                      ordered_exponential, trace_inner)
from .brach import (DRIFT_ABORT, ControlProblem, DriftAbort, _coordinates,
                    _joined, evolve, grid_steps, rk4_path, rk4_step)
from .special import fd_derivative

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# corner coupling generator used by the co-rotating closed forms
_CORNER = np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex)


def _sym(n, i, j):
    M = np.zeros((n, n), dtype=complex)
    M[i, j] = M[j, i] = 1.0 / np.sqrt(2.0)
    return M


def _asym(n, i, j):
    M = np.zeros((n, n), dtype=complex)
    M[i, j] = -1j / np.sqrt(2.0)
    M[j, i] = 1j / np.sqrt(2.0)
    return M


def _cartan(n):
    """Orthonormal traceless diagonal generators."""
    out = []
    for k in range(1, n):
        d = np.zeros(n)
        d[:k] = 1.0
        d[k] = -k
        out.append(np.diag(d).astype(complex) / np.sqrt(k * (k + 1)))
    return out


def _stack(t, rows):
    """np.block(rows) at every time of t, whose shape leads the result's.

    An entry with more axes than t is a square block (its last two axes);
    any other entry, a scalar or an array shaped like t, is one element.
    A flat list of elements stacks into a vector.
    """
    if not isinstance(rows[0], list):
        return _stack(t, [rows])[..., 0, :]
    lead = np.ndim(t)

    def spans(entries):
        """The index (an element) or slice (a block) of each entry."""
        out, n = [], 0
        for e in entries:
            w = e.shape[-1] if getattr(e, "ndim", 0) > lead else 0
            out.append(slice(n, n + w) if w else n)
            n += w or 1
        return out, n

    (rs, m), (cs, n) = spans([row[0] for row in rows]), spans(rows[0])
    out = np.empty(np.shape(t) + (m, n), dtype=complex)
    for row, r in zip(rows, rs):
        for e, c in zip(row, cs):
            out[..., r, c] = e
    return out


def _constant(M) -> Callable:
    """A time function that is M at every time."""
    return lambda t: np.broadcast_to(M, np.shape(t) + M.shape)


@dataclass(frozen=True)
class Scenario:
    """A named closed-form solution family.

    Every scenario has H(t), F(t) (zero where the flow has no constraint),
    psi0 and a period.  Every time function (hamiltonian_at, constraint_at,
    propagator_at, state_at) takes a scalar t, returning (dim, dim) or
    (dim,), or an array of N times, returning (N, dim, dim) or (N, dim).
    """

    name: str
    dim: int
    hamiltonian_at: Callable[[float], np.ndarray]
    propagator_at: Callable[[float], np.ndarray]
    constraint_at: Callable[[float], np.ndarray]
    psi0: np.ndarray
    period: float
    target: Optional[np.ndarray] = None
    min_time: Optional[float] = None
    quantization: Sequence = ()
    problem: Optional[ControlProblem] = None
    extras: dict = field(default_factory=dict)
    _state_fn: Optional[Callable] = None

    def __post_init__(self):
        # a parameter that is not finite, or so large that the energy
        # overflows, shows in H(0) or F(0): reject it before any sample
        for at in (self.hamiltonian_at, self.constraint_at):
            M = check_hermitian(at(0.0))
            # an overflowing entry times a zero one is NaN inside the trace
            with np.errstate(over="ignore", invalid="ignore"):
                if not np.isfinite(trace_inner(M, M)):
                    raise ValidationError(
                        f"{self.name}: Tr M^2 of H(0) or F(0) overflows")

    def state_at(self, t) -> np.ndarray:
        """psi(t) from psi0: the dedicated closed form if the scenario has
        one, else U(t) psi0."""
        if self._state_fn is not None:
            return self._state_fn(t)
        return self.propagator_at(t) @ self.psi0


def _frame_propagator(A, H0) -> Callable[[float], np.ndarray]:
    """U(t) = e^{iAt} e^{-i(H0+A)t} for a constant generator A.

    This is the co-rotating-frame solution of H(t) = e^{iAt} H0 e^{-iAt};
    both spectra are taken once, here, so each U(t) costs two products.
    """
    frame, body = hermitian_eig(A), hermitian_eig(H0 + A)
    return lambda t: frame.expm(-t) @ body.expm(t)


def _nearest_multiple_residual(x: float, unit: float) -> float:
    """Distance of x from the nearest integer multiple of `unit`."""
    m = round(x / unit)
    return abs(x - m * unit)


# ---------------------------------------------------------------------------
# two-level resonant control
# ---------------------------------------------------------------------------

def scenario_su2(k: float = 1.0, Omega: float = 0.0,
                 eps0: complex | None = None) -> Scenario:
    """Two-level time-optimal control with a diagonal constraint.

    H(t) = [[0, eps0 e^{2i Omega t}], [eps0* e^{-2i Omega t}, 0]],
    F = Omega sigma_z, U(t) = e^{+i Omega sigma_z t} e^{-i(H(0)+Omega sigma_z)t},
    T_min = pi / (2 sqrt(k)).
    """
    if k <= 0:
        raise ValidationError("k must be positive")
    if eps0 is None:
        eps0 = 1j * np.sqrt(k)
    eps0 = complex(eps0)
    if abs(abs(eps0) ** 2 - k) > 1e-10:
        raise ValidationError("|eps0|^2 must equal the energy bound k")
    H0 = np.array([[0, eps0], [np.conj(eps0), 0]])
    Op = np.sqrt(k + Omega**2)

    def ham(t):
        ph = np.exp(2j * Omega * t)
        return _stack(t, [[0, eps0 * ph], [np.conj(eps0 * ph), 0]])

    psi0 = np.array([1, 1], dtype=complex) / np.sqrt(2)
    # boundary transfer target exists when eps0 = -eps0* (pure imaginary)
    target = (np.array([1, -1], dtype=complex) / np.sqrt(2)
              if abs(eps0.real) < 1e-12 else None)
    problem = ControlProblem(
        dim=2,
        driver_basis=[SIGMA_X / np.sqrt(2), SIGMA_Y / np.sqrt(2)],
        constraint_basis=[SIGMA_Z / np.sqrt(2)])
    quant = (
        ("rotating-frame angle quantization: Omega' T = m pi/2",
         lambda T: _nearest_multiple_residual(Op * T, np.pi / 2)),
        ("frame angle quantization: Omega T = n pi/2",
         lambda T: _nearest_multiple_residual(Omega * T, np.pi / 2)),
    )
    return Scenario(
        name="su2", dim=2,
        hamiltonian_at=ham,
        propagator_at=_frame_propagator(Omega * SIGMA_Z, H0),
        constraint_at=_constant(Omega * SIGMA_Z),
        psi0=psi0, target=target,
        min_time=np.pi / (2 * np.sqrt(k)),
        period=(np.pi / abs(Omega) if Omega else 2 * np.pi / np.sqrt(k)),
        quantization=quant,
        problem=problem)


# ---------------------------------------------------------------------------
# real three-level rotor
# ---------------------------------------------------------------------------

def scenario_so3(n_z: float = 0.6, eps: complex = 0.8) -> Scenario:
    """Constant three-level Hamiltonian with spectrum {-R, 0, R}.

    U(t) = 1 - i (sin Rt / R) H + (cos Rt - 1) diag(1,0,1);
    states from e1 are 2pi/R-periodic and acquire a global sign at pi/R.
    """
    eps = complex(eps)
    R2 = n_z**2 + abs(eps) ** 2
    if R2 <= 0:
        raise ValidationError("R = sqrt(n_z^2 + |eps|^2) must be positive")
    R = np.sqrt(R2)
    H = np.array([[n_z, 0, eps], [0, 0, 0], [np.conj(eps), 0, -n_z]])

    def prop(t):
        t = np.asarray(t)[..., None, None]
        return (np.eye(3)
                - 1j * (np.sin(R * t) / R) * H
                + (np.cos(R * t) - 1.0) * np.diag([1.0, 0.0, 1.0]))

    def state(t):
        return _stack(t, [
            np.cos(R * t) - 1j * (n_z / R) * np.sin(R * t),
            0.0,
            -1j * (np.conj(eps) / R) * np.sin(R * t)])

    psi0 = np.array([1, 0, 0], dtype=complex)
    problem = ControlProblem(
        dim=3,
        driver_basis=[_sym(3, 0, 2), _asym(3, 0, 2),
                      np.diag([1.0, 0.0, -1.0]).astype(complex) / np.sqrt(2)],
        constraint_basis=[])
    return Scenario(
        name="so3", dim=3,
        hamiltonian_at=_constant(H),
        propagator_at=prop,
        constraint_at=_constant(np.zeros((3, 3), dtype=complex)),
        psi0=psi0,
        period=2 * np.pi / R,
        problem=problem,
        extras={"R": R},
        _state_fn=state)


# ---------------------------------------------------------------------------
# three-level elliptic family
# ---------------------------------------------------------------------------

def scenario_su3_elliptic(R: float = 1.0, Omega: float = 1.0,
                          Delta0: Sequence[complex] = (1 / np.sqrt(2), 0.0,
                                                       1 / np.sqrt(2))
                          ) -> Scenario:
    """Rotating elliptic coupling pattern on three levels.

    H(t) = R [[0, cos Omega t, 0], [cos Omega t, 0, -i sin Omega t],
              [0, i sin Omega t, 0]].
    Delta0 holds the initial eigenbasis coefficients (Delta1, Delta2, Delta3)
    of the state along the {+R, 0, -R} eigenvectors of H(0); the z-parameters
    are z = [[Omega, -iR, 0], [-iR, Omega, 0], [0, 0, 1]] (Delta2, Delta-,
    Delta+) with Delta+- = (Delta1 +- Delta3)/sqrt(2).
    """
    if R <= 0:
        raise ValidationError("R must be positive")
    D = np.asarray(Delta0, dtype=complex).reshape(3)
    if abs(np.linalg.norm(D) - 1.0) > 1e-8:
        raise ValidationError("Delta0 must be normalized")
    Dm = (D[0] - D[2]) / np.sqrt(2)
    Dp = (D[0] + D[2]) / np.sqrt(2)
    T = np.array([[Omega, -1j * R, 0], [-1j * R, Omega, 0], [0, 0, 1]])
    z1, z2, z3 = T @ np.array([D[1], Dm, Dp])
    Op = np.sqrt(R**2 + Omega**2)
    psi0 = np.array([z3,
                     (Omega * z2 + 1j * R * z1) / Op**2,
                     1j * (Omega * z1 + 1j * R * z2) / Op**2])

    H0 = R * np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)

    def ham(t):
        c, s = np.cos(Omega * t), np.sin(Omega * t)
        return R * _stack(t, [[0, c, 0], [c, 0, -1j * s], [0, 1j * s, 0]])

    problem = ControlProblem(
        dim=3,
        driver_basis=[_sym(3, 0, 1), _asym(3, 1, 2)],
        constraint_basis=[_sym(3, 0, 2)])
    return Scenario(
        name="su3-elliptic", dim=3,
        hamiltonian_at=ham,
        propagator_at=_frame_propagator(Omega * _CORNER, H0),
        constraint_at=_constant(Omega * _CORNER),
        psi0=psi0,
        period=(2 * np.pi / abs(Omega) if Omega else 2 * np.pi / R),
        problem=problem,
        extras={"z": (z1, z2, z3)})


def elliptic_printed_state(R: float, Omega: float, z: Sequence[complex],
                           t: float) -> np.ndarray:
    """The c_j(t) display exactly as printed.

    The display is internally inconsistent: c1's leading prefactor reads
    sin(Omega' t) where the dynamics require sin(Omega t), c2's sin term is
    short one factor of Omega', and c3/psi(0) disagree about the phase of
    the third component; scenario_su3_elliptic's state_at is the consistent
    form.
    """
    z1, z2, z3 = z
    Op = np.sqrt(R**2 + Omega**2)
    c, s = np.cos(Omega * t), np.sin(Omega * t)
    cp, sp = np.cos(Op * t), np.sin(Op * t)
    c1 = (-(sp / Op) * (1j * z2 * R / Op + Omega * ((z1 / Op) * cp - z3 * sp))
          + c * (z3 * cp + z1 * sp / Op))
    c2 = (Omega * z2 + 1j * R * (z1 * cp - z3 * sp)) / Op**2
    c3 = ((c / Op) * (1j * z2 * R / Op + Omega * (z1 * cp / Op - z3 * sp))
          - 1j * s * (z3 * cp + (z1 / Op) * sp))
    return np.array([c1, c2, c3])


# ---------------------------------------------------------------------------
# three-level geodesic family
# ---------------------------------------------------------------------------

def scenario_su3_geodesic(eps1_0: complex = 1.0,
                          kappa: complex = 1 / np.sqrt(3)) -> Scenario:
    """Three-level ladder driver with a corner constraint (omega1=omega2=0).

    U(t) = exp(+itF) exp(-it(H(0)+F)); minimum transfer time e1 -> e3 is
    pi/(2|kappa|), equal to sqrt(3) pi/(2|eps1(0)|) on the consistency locus
    |kappa| = |eps1(0)|/sqrt(3).  The phase theta of H's (2, 3) entry
    follows from arg(eps1(0)) and arg(kappa).
    """
    eps1_0, kappa = complex(eps1_0), complex(kappa)
    if abs(kappa) == 0:
        raise ValidationError("kappa must be nonzero")
    if abs(eps1_0) == 0:
        raise ValidationError("eps1(0) must be nonzero")
    R = abs(eps1_0)
    kmod = abs(kappa)
    phi = np.angle(eps1_0)
    theta = float(np.angle(1j * np.exp(1j * phi) * np.conj(kappa)))
    Delta = np.sqrt(kmod**2 + R**2)
    H0 = np.array([[0, eps1_0, 0], [np.conj(eps1_0), 0, 0], [0, 0, 0]])
    F = np.array([[0, 0, kappa], [0, 0, 0], [np.conj(kappa), 0, 0]])

    def ham(t):
        ck, sk = np.cos(kmod * t), np.sin(kmod * t)
        return R * _stack(t, [
            [0, np.exp(1j * phi) * ck, 0],
            [np.exp(-1j * phi) * ck, 0, np.exp(-1j * theta) * sk],
            [0, np.exp(1j * theta) * sk, 0]])

    def state(t):
        cd, sd = np.cos(t * Delta), np.sin(t * Delta)
        ck, sk = np.cos(kmod * t), np.sin(kmod * t)
        return _stack(t, [
            cd * ck + (kmod / Delta) * sk * sd,
            -(1j * np.conj(eps1_0) / Delta) * sd,
            1j * np.conj(kappa) * (sk * cd / kmod - sd * ck / Delta)])

    psi0 = np.array([1, 0, 0], dtype=complex)
    problem = ControlProblem(
        dim=3,
        driver_basis=[_sym(3, 0, 1), _asym(3, 0, 1),
                      _sym(3, 1, 2), _asym(3, 1, 2)],
        constraint_basis=[_sym(3, 0, 2), _asym(3, 0, 2)])
    quant = (
        ("node condition: T Delta = n pi",
         lambda T: _nearest_multiple_residual(T * Delta, np.pi)),
        ("transfer condition: T |kappa| = (2n'+1) pi/2",
         lambda T: _nearest_multiple_residual(T * kmod - np.pi / 2,
                                              np.pi)),
    )
    return Scenario(
        name="su3-geodesic", dim=3,
        hamiltonian_at=ham,
        propagator_at=_frame_propagator(F, H0),
        constraint_at=_constant(F),
        psi0=psi0,
        target=np.array([0, 0, 1], dtype=complex),
        min_time=np.pi / (2 * kmod),
        period=2 * np.pi / kmod,
        quantization=quant,
        problem=problem,
        _state_fn=state)


# ---------------------------------------------------------------------------
# Frenet frame flow
# ---------------------------------------------------------------------------

def scenario_frenet(A: float | None = None, B: float = 0.5,
                    C: float | None = None, N: float = 1.0,
                    eta: float = 0.7) -> Scenario:
    """Curvature/torsion rotor: K = C sin(eta t) + N cos(eta t),
    T = A sin(eta t) + B cos(eta t), H = i * antisymmetric(K, T).

    Requires K^2 + T^2 = const on the branch A = N, C = -B (to 1e-8
    relative to R) that the frame assumes, not on its mirror A = -N, C = B.
    A and C default to that branch: A = N and C = -B.
    """
    A = N if A is None else A
    C = -B if C is None else C
    R2 = N**2 + B**2
    if R2 <= 0:
        raise ValidationError("K(0)^2 + T(0)^2 must be positive")
    R = np.sqrt(R2)
    if not (abs(A - N) <= 1e-8 * R and abs(C + B) <= 1e-8 * R):
        raise ValidationError("circle constraint violated: need A = N and "
                              "C = -B")
    MF = np.array([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]])

    def ham(t):
        K = C * np.sin(eta * t) + N * np.cos(eta * t)
        T = A * np.sin(eta * t) + B * np.cos(eta * t)
        return _stack(t, [[0, -1j * K, 0], [1j * K, 0, -1j * T],
                          [0, 1j * T, 0]])

    delta = np.arctan2(B, N)    # K = R cos(eta t + delta), T = R sin(...)

    def eigvecs(t):
        """Eigenvector triple of H at angle u = eta t + delta: columns for
        eigenvalues (+R, 0, -R)."""
        u = eta * t + delta
        plus = np.array([-1j * np.cos(u), 1, 1j * np.sin(u)]) / np.sqrt(2)
        zero = np.array([1j * np.sin(u), 0, 1j * np.cos(u)])
        minus = np.array([1j * np.cos(u), 1, -1j * np.sin(u)]) / np.sqrt(2)
        return plus, zero, minus

    psi0 = np.array([1, 0, 0], dtype=complex)
    problem = ControlProblem(
        dim=3,
        driver_basis=[_asym(3, 0, 1), _asym(3, 1, 2)],
        constraint_basis=[_asym(3, 0, 2)])
    return Scenario(
        name="frenet", dim=3,
        hamiltonian_at=ham,
        propagator_at=_frame_propagator(eta * MF, ham(0.0)),
        constraint_at=_constant(eta * MF),
        psi0=psi0,
        period=(2 * np.pi / abs(eta) if eta else 2 * np.pi / R),
        problem=problem,
        extras={"R": R, "eigvecs": eigvecs})


# ---------------------------------------------------------------------------
# two-qubit exchange chain
# ---------------------------------------------------------------------------

def scenario_su4_heisenberg(lambda_x: float = 1.0, seed: int = 42) -> Scenario:
    """Isotropic-exchange driver with lambda_y = -lambda_x, lambda_z = 0.

    H is constant, so the flow rotates F: F(t) = U(t) F0 U(t)^dag.  From e1
    the state is (cos 2 lx t, 0, 0, -i sin 2 lx t),
    reaching the maximally entangled (|00> - i|11>)/sqrt(2) at t = pi/(8 lx).
    The printed transfer-time claim T = pi/lambda_x is recorded alongside the
    computed first-passage time; neither is asserted as "the" minimum.
    """
    if lambda_x == 0:
        raise ValidationError("lambda_x must be nonzero")
    lx = float(lambda_x)
    sig = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}
    driver = [np.kron(sig[a], sig[a]) / 2.0 for a in ("x", "y", "z")]
    constraint = ([np.kron(sig[a], np.eye(2)) / 2.0 for a in "xyz"]
                  + [np.kron(np.eye(2), sig[a]) / 2.0 for a in "xyz"]
                  + [np.kron(sig[a], sig[b]) / 2.0
                     for a in "xyz" for b in "xyz" if a != b])
    H0 = lx * (np.kron(SIGMA_X, SIGMA_X) - np.kron(SIGMA_Y, SIGMA_Y))
    rng = np.random.default_rng(seed)
    F0 = _combine(4, rng.normal(scale=0.5, size=len(constraint)), constraint)
    propagator = hermitian_eig(H0).expm

    def constraint_at(t):
        U = propagator(t)
        return U @ F0 @ U.conj().swapaxes(-1, -2)

    def state(t):
        return _stack(t, [np.cos(2 * lx * t), 0, 0,
                          -1j * np.sin(2 * lx * t)])

    psi0 = np.array([1, 0, 0, 0], dtype=complex)
    bell = np.array([1, 0, 0, -1j], dtype=complex) / np.sqrt(2)
    problem = ControlProblem(dim=4, driver_basis=driver,
                             constraint_basis=constraint)
    return Scenario(
        name="su4-heisenberg", dim=4,
        hamiltonian_at=_constant(H0),
        propagator_at=propagator,
        constraint_at=constraint_at,
        psi0=psi0,
        target=bell,
        period=np.pi / abs(lx),
        problem=problem,
        extras={"bell_time": np.pi / (8 * lx),
                "printed_min_time_claim": np.pi / lx},
        _state_fn=state)


# ---------------------------------------------------------------------------
# relativistic co-rotating frame
# ---------------------------------------------------------------------------

def scenario_dirac(alpha: float = 0.5, p_z: float = 0.5,
                   eps: complex = complex(np.sqrt(0.5)),
                   xi1: complex = 0.3, xi2: complex = -0.2) -> Scenario:
    """Four-level problem with H(t)^2 = 1 and pi-periodic Hamiltonian.

    H(t) = [[alpha 1, e^{-2it} B], [e^{+2it} B, -alpha 1]] with the
    Hermitian block B = [[p_z, eps], [eps*, -p_z]]; requires the unit-energy
    rescaling alpha^2 + p_z^2 + |eps|^2 = 1.  The frame transform is
    U_frame(t) = diag(e^{it} 1, e^{-it} 1).
    """
    eps = complex(eps)
    norm2 = alpha**2 + p_z**2 + abs(eps) ** 2
    if abs(norm2 - 1.0) > 1e-10:
        raise ValidationError(
            f"alpha^2 + p_z^2 + |eps|^2 must equal 1 (got {norm2:.12f})")
    B = np.array([[p_z, eps], [np.conj(eps), -p_z]])
    # off-diagonal block of F, chosen so that Tr(H F) = 0 at all times
    A = np.array([[0, 1j * eps], [1j * np.conj(eps), 0]])
    X1 = np.array([[0, xi1], [np.conj(xi1), 0]])
    X2 = np.array([[0, xi2], [np.conj(xi2), 0]])
    H0 = np.block([[alpha * np.eye(2), B], [B.conj().T, -alpha * np.eye(2)]])
    K = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)

    def ham(t):
        ph = np.exp(-2j * np.asarray(t))[..., None, None]
        return _stack(t, [[alpha * np.eye(2), ph * B],
                          [np.conj(ph) * B.conj().T, -alpha * np.eye(2)]])

    def constraint(t):
        ph = np.exp(-2j * np.asarray(t))[..., None, None]
        return _stack(t, [[X1, ph * A], [np.conj(ph) * A.conj().T, X2]])

    psi0 = np.array([1, 0, 0, 0], dtype=complex)
    return Scenario(
        name="dirac", dim=4,
        hamiltonian_at=ham,
        propagator_at=_frame_propagator(-K, H0),
        constraint_at=constraint,
        psi0=psi0,
        period=np.pi,
        min_time=np.pi)  # T_min * ||E|| = pi with ||E|| = 1 after rescaling


# ---------------------------------------------------------------------------
# dimensional families and three-level partitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilyInstance:
    """A randomized (H0, F0) pair on one of the sparsity-pattern families."""

    n: int
    kind: str
    H0: np.ndarray
    F0: np.ndarray
    problem: ControlProblem


def _split(n, in_driver):
    """The (driver, constraint) bases of a split of su(n): its standard
    basis, _cartan(n) then _sym and _asym of each pair i < j, each element
    in the driver when in_driver(i, j).  in_driver is asked once per
    element: with (k, k) for _cartan(n)[k] and with (i, j) for both
    generators of the pair.  Each part keeps basis order."""
    basis = [((k, k), M) for k, M in enumerate(_cartan(n))] + [
        ((i, j), M) for i in range(n) for j in range(i + 1, n)
        for M in (_sym(n, i, j), _asym(n, i, j))]
    parts = ([], [])
    for (i, j), M in basis:
        parts[not in_driver(i, j)].append(M)
    return parts


def _combine(n, coeffs, basis):
    """The n x n matrix sum of c * g over the coefficients and the basis
    (zero for an empty basis)."""
    return sum((c * g for c, g in zip(coeffs, basis)),
               np.zeros((n, n), dtype=complex))


# family_sun's kinds as sparsity patterns: at dimension n, a kind's split is
# _split(n, partial(pattern, n))
_FAMILY_PATTERNS = {
    "antidiagonal": lambda n, i, j: i == j or i + j == n - 1,
    "tridiagonal": lambda n, i, j: j == i + 1,
    "diagonal": lambda n, i, j: i == j,
}


def family_sun(n: int, kind: str, seed: int = 42) -> FamilyInstance:
    """Build one of the three sparsity-pattern control families.

    kind 'antidiagonal': H = diagonal + antidiagonal couplings, F = the rest.
    kind 'tridiagonal':  H = nearest-neighbor couplings (zero diagonal),
                         F = diagonal + couplings with |i-j| >= 2.
    kind 'diagonal':     H = traceless diagonal, F = all off-diagonal.

    For the diagonal and antidiagonal kinds, at every n, no term of the
    projected flow (ControlProblem._terms) writes a driver coordinate, so H
    is exactly constant: F(t) = e^{-iHt} F0 e^{iHt} and psi(t) = e^{-iHt}
    psi0.  For the tridiagonal kind at n = 2 and 3 no term writes a
    constraint coordinate, so F is constant; from n = 4 both H and F move.
    """
    if not (2 <= n <= 8):
        raise ValidationError("n must be between 2 and 8")
    if kind not in _FAMILY_PATTERNS:
        raise ValidationError(f"unknown family kind: {kind}")
    driver, constraint = _split(n, partial(_FAMILY_PATTERNS[kind], n))
    rng = np.random.default_rng(seed)
    hc = rng.normal(size=len(driver))
    hc *= np.sqrt(2.0) / np.linalg.norm(hc)      # Tr(H^2)/2 = 1
    fc = rng.normal(scale=0.6, size=len(constraint))
    H0, F0 = _combine(n, hc, driver), _combine(n, fc, constraint)
    problem = ControlProblem(dim=n, driver_basis=driver,
                             constraint_basis=constraint)
    return FamilyInstance(n=n, kind=kind, H0=H0, F0=F0, problem=problem)


# census grid: long enough to find the recurrences of pairs 2 and 3 (periods
# 10.88 and 14.23 at seed 42)
CENSUS_T_MAX = 50.0
CENSUS_DT = 1e-3

# the census's four su(3) splits as (description, pattern), each pattern as
# in _FAMILY_PATTERNS
_CENSUS_PAIRS = (
    ("diagonal driver | off-diagonal constraint",
     _FAMILY_PATTERNS["diagonal"]),
    ("ladder driver | diagonal + corner constraint",
     _FAMILY_PATTERNS["tridiagonal"]),
    ("corner driver | tridiagonal + diagonal constraint",
     lambda n, i, j: (i, j) == (0, 2)),
    ("two-level block driver | complementary constraint",
     lambda n, i, j: i == 0 and j <= 1),
)


@dataclass(frozen=True)
class PartitionResult:
    index: int
    description: str
    H0: np.ndarray
    F0: np.ndarray
    problem: ControlProblem
    classification: str         # constant | periodic | neither
    period: Optional[float]
    max_excursion: float


# rows of coordinates turned into H matrices at once by _h_distances
_BLOCK = 4096


def _h_distances(problem, ys, refs):
    """Max-entry distance |H(y) - H(r)| for each row y of ys and the row r
    of refs beside it (or refs itself, if it is one row), taken a block of
    rows at a time so that the H stack is never held whole.  Only the
    driver coordinates are read: F is never built."""
    nd, n = problem._driver.shape[0], problem.dim
    D = problem._driver.reshape(nd, n * n)
    refs = np.broadcast_to(refs, ys.shape)
    return np.concatenate([
        np.max(np.abs((ys[i:i + _BLOCK, :nd] - refs[i:i + _BLOCK, :nd]) @ D),
               axis=-1)
        for i in range(0, len(ys), _BLOCK)])


def _check_drift(problems, paths, cols, dt) -> None:
    """Raise DriftAbort at the first row of the census path (pair i in
    columns cols[i]) where a pair's state is not finite or its
    Tr H^2 = |h|^2 has drifted from its start by more than DRIFT_ABORT,
    relatively (the first such pair on a tie).  The flow conserves Tr H^2,
    so this catches a path that has diverged, not every grid too coarse to
    classify on."""
    hs = [paths[:, c][:, :len(p._driver)] for p, c in zip(problems, cols)]
    with np.errstate(over="ignore", invalid="ignore"):
        trH2 = np.stack([np.einsum("sk,sk->s", h, h) for h in hs], axis=1)
        drift = np.abs(trH2 - trH2[0]) / np.maximum(trH2[0], 1e-30)
    finite = np.stack([np.isfinite(paths[:, c]).all(axis=1) for c in cols],
                      axis=1)
    # NaN compares False, so a row passes only if every drift is in range
    ok = (drift <= DRIFT_ABORT) & finite
    bad = np.flatnonzero(~ok.all(axis=1))
    if bad.size:
        s = int(bad[0])
        i = int(np.argmin(ok[s]))
        raise DriftAbort(
            f"census pair {i + 1}: Tr H^2 drift beyond {DRIFT_ABORT:g} or a "
            f"non-finite state at t={s * dt:.6f}",
            {"t": s * dt, "step": s, "trH2_drift": float(drift[s, i])})


def _classify_flow(problem, ys, dt) -> tuple[str, Optional[float], float]:
    """Grid search for recurrence of H(t) to H(0), located as a root.

    ys is the stored coarse path of the coordinates (h, f), row s at time
    s * dt.  Its grid cannot itself resolve a recurrence to 1e-6, so each
    candidate minimum at step s is located between grid points.  A
    recurrence accepted in a candidate's bracket lies within one step of
    it, so a candidate is a local minimum of the grid distance below 1e-6
    plus twice the path's largest one-step move of H: no grid, however
    coarse, steps over a recurrence the bracket would accept.
    """
    n_steps, y0 = len(ys) - 1, ys[0]
    dists = _h_distances(problem, ys, y0)
    max_exc = float(np.max(dists))
    if max_exc <= 1e-10:
        return "constant", None, max_exc
    # candidate recurrences: local minima after the trajectory has moved away
    moved = np.argmax(dists > max(1e-3, 0.05 * max_exc))
    if moved == 0:
        return "neither", None, max_exc
    window = 1e-6 + 2 * np.max(_h_distances(problem, ys[1:], ys[:-1]))
    for s in range(int(moved) + 1, n_steps):
        if dists[s] < window and dists[s] <= dists[s - 1] and \
                (s == n_steps - 1 or dists[s] <= dists[s + 1]):
            period = _recurrence_near(problem, ys, s, dt)
            if period is not None:
                return "periodic", period, max_exc
    return "neither", None, max_exc


def _recurrence_near(problem, ys, s, dt) -> Optional[float]:
    """Time T of the recurrence of H to H0 near coarse step s, or None.

    In the orthonormal driver basis |H(t) - H0|^2 = |h(t) - h0|^2, so the
    closest approach is a root of g(t) = (h(t) - h0) . dh/dt.  It is
    bisected on [(s-1) dt, (s+1) dt] until the bracket stops shrinking,
    with y(t) one RK4 substep of length t - j dt from stored row j.  It is a
    recurrence if g goes from negative to positive and |H(T) - H0| < 1e-6.
    """
    nd = problem._driver.shape[0]

    def g(t):
        j = int(t // dt)
        y = rk4_step(problem.flow, ys[j], t - j * dt)
        return (y[:nd] - ys[0, :nd]) @ problem.flow(y)[:nd], y

    a, b = (s - 1) * dt, (s + 1) * dt
    if not g(a)[0] < 0 < g(b)[0]:
        return None
    while a < (m := 0.5 * (a + b)) < b:
        a, b = (m, b) if g(m)[0] < 0 else (a, m)
    y_T = g(b)[1]
    return b if _h_distances(problem, y_T[None], ys[0])[0] < 1e-6 else None


def su3_partitions(t_max: float = CENSUS_T_MAX, dt: float = CENSUS_DT,
                   seed: int = 42) -> list[PartitionResult]:
    """The four three-level driver/constraint splittings, classified.

    The four pattern pairs are integrated together on the coarse grid and
    each H(t) classified as constant, periodic (recurrence search on
    ||H(t) - H(0)||), or neither.  Each pair's drawn start (H0, F0), which
    its result reports, is checked and converted to coordinates as
    integrate checks its run's (brach._coordinates).  A bad grid (see
    brach.grid_steps) raises ValidationError before any work, and a path
    that diverges (see _check_drift) raises DriftAbort before any pair is
    classified.
    """
    n_steps = grid_steps(t_max, dt)
    rng = np.random.default_rng(seed)
    pairs = []
    for index, (desc, pattern) in enumerate(_CENSUS_PAIRS, 1):
        db, cb = _split(3, partial(pattern, 3))
        if index == 2:
            # a fixed start: H0 on the ladder and F0 = kappa * corner with
            # |kappa| = 1/sqrt(3), the geodesic scenario at omega = 0
            kap = (1 / np.sqrt(3)) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            H0 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)
            F0 = np.array([[0, 0, kap], [0, 0, 0], [np.conj(kap), 0, 0]])
        else:
            H0 = _combine(3, rng.normal(size=len(db)), db)
            F0 = _combine(3, rng.normal(scale=0.7, size=len(cb)), cb)
        problem = ControlProblem(dim=3, driver_basis=db, constraint_basis=cb)
        pairs.append((index, desc, problem, H0, F0))

    # one RK4 path steps the four pairs as one flat state
    problems = [p for _, _, p, _, _ in pairs]
    terms, z0, cols = _joined([(p._terms, _coordinates(p, H0, F0))
                               for _, _, p, H0, F0 in pairs])
    paths = rk4_path(terms, z0, n_steps, dt)
    _check_drift(problems, paths, cols, dt)
    # each pair reads its slice of the path as a view: a copy per pair
    # would add to the peak memory the whole path already sets
    return [PartitionResult(index, desc, H0, F0, problem,
                            *_classify_flow(problem, paths[:, c], dt))
            for (index, desc, problem, H0, F0), c in zip(pairs, cols)]


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

# validate's ordered-exponential step: its fourth-order Magnus rule is within
# 5e-10 of every scenario's closed-form propagator at this step
ORDERED_DT = 1e-2


@dataclass(frozen=True)
class ValidationReport:
    scenario: str
    deviations: dict
    diagnostics: dict = field(default_factory=dict)

    def max_deviation(self) -> float:
        return max(self.deviations.values())


def validate(scenario: Scenario) -> ValidationReport:
    """Cross-check the scenario's analytic data against the integrator.

    Compares (a) the analytic propagator against the step-ordered exponential
    of the analytic H(t), (b) analytic H(t)/psi(t) against the
    brachistochrone integrator where a ControlProblem is attached,
    (c) quantization residuals at the claimed minimum time.  The ordered
    exponential, fourth order, steps at ORDERED_DT; the closed forms are
    sampled at 100 times over one period.  The integration of (b) is one
    evolve over min(period, 2), recording every tenth step of the grid of
    dt = 1e-3.
    """
    dt = 1e-3
    T = scenario.period
    dev = _closed_form_deviations(scenario, T)
    if scenario.problem is not None:
        s = evolve(*_integrator_run(scenario), min(T, 2.0), dt,
                   record_every=10)
        H = scenario.problem.matrices(s.y)[0]
        dev["integrator_H"] = float(np.max(np.abs(
            H - scenario.hamiltonian_at(s.t))))
        dev["integrator_state"] = float(np.max(np.abs(
            s.psi - scenario.state_at(s.t))))
    return ValidationReport(scenario=scenario.name, deviations=dev,
                            diagnostics=_min_time_diagnostics(scenario))


def _closed_form_deviations(scenario: Scenario, T: float) -> dict:
    """Checks (a) of validate on the grid of 100 times over [0, T]."""
    grid = np.linspace(0.0, T, 100)
    dev = {}

    U = scenario.propagator_at(grid)
    dev["propagator_unitarity"] = float(np.max(np.abs(
        U.conj().swapaxes(-1, -2) @ U - np.eye(scenario.dim))))
    psi = scenario.state_at(grid)
    dev["state_vs_propagator"] = float(np.max(np.abs(
        psi - U @ scenario.psi0)))
    dpsi = fd_derivative(scenario.state_at, grid, 1)
    H = scenario.hamiltonian_at(grid)
    dev["schrodinger_residual"] = float(np.max(np.abs(
        1j * dpsi - (H @ psi[..., None])[..., 0])))
    dev["trace_HF"] = float(np.max(np.abs(np.einsum(
        "nij,nji->n", H, scenario.constraint_at(grid)).real)))

    t_ord = min(T, 1.0)
    U_num = ordered_exponential(scenario.hamiltonian_at, t_ord, ORDERED_DT)
    dev["ordered_exponential"] = float(
        np.max(np.abs(U_num - scenario.propagator_at(t_ord))))
    return dev


def _integrator_run(scenario: Scenario) -> tuple:
    """(problem, H0, F0, psi0) of the scenario."""
    return (scenario.problem, scenario.hamiltonian_at(0.0),
            scenario.constraint_at(0.0), scenario.psi0)


def _min_time_diagnostics(scenario: Scenario) -> dict:
    """Checks (c) of validate.  Minimum-time claims hold only on the
    quantization locus of the parameters, so they are reported as
    diagnostics rather than folded into the pass/fail deviation maximum."""
    diag = {}
    if scenario.min_time is not None and scenario.quantization:
        for i, (desc, fn) in enumerate(scenario.quantization):
            diag[f"quantization_{i}"] = float(fn(scenario.min_time))
    if scenario.target is not None and scenario.min_time is not None:
        psiT = scenario.state_at(scenario.min_time)
        diag["transfer_infidelity"] = float(
            1.0 - abs(np.vdot(scenario.target, psiT)) ** 2)
    return diag


SCENARIO_BUILDERS = {
    "su2": scenario_su2,
    "so3": scenario_so3,
    "su3-elliptic": scenario_su3_elliptic,
    "su3-geodesic": scenario_su3_geodesic,
    "frenet": scenario_frenet,
    "su4-heisenberg": scenario_su4_heisenberg,
    "dirac": scenario_dirac,
}
