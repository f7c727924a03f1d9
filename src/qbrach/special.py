"""Exact and numerical verification of polynomial / special-function
content: the propagator polynomials and their Laplace transforms,
residues, weighted-moment marginals, Chebyshev and Bessel functions, the
lattice spin-wave Green's function, and the cosine-transformed
oscillator.

Exact identities are computed in rational arithmetic (fractions.Fraction
coefficients); printed values that disagree with the exact computation
are reported as discrepancies, never asserted.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .matcore import ValidationError


# ---------------------------------------------------------------------------
# exact polynomial arithmetic
# ---------------------------------------------------------------------------

def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(x).limit_denominator(10**12)


@dataclass(frozen=True)
class Polynomial:
    """Dense polynomial with exact rational coefficients, ascending degree."""

    coefficients: tuple

    def __init__(self, coefficients: Sequence):
        coeffs = [_as_fraction(c) for c in coefficients]
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

    @property
    def degree(self) -> int:
        if self.coefficients == (Fraction(0),):
            return -1
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return self.coefficients == (Fraction(0),)

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * x + (float(c) if not isinstance(x, Fraction)
                             and not isinstance(x, int) else c)
        return acc

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coefficients, other.coefficients
        n = max(len(a), len(b))
        return Polynomial([(a[i] if i < len(a) else 0)
                           + (b[i] if i < len(b) else 0) for i in range(n)])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scale(-1)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coefficients, other.coefficients
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return Polynomial(out)

    def scale(self, k) -> "Polynomial":
        k = _as_fraction(k)
        return Polynomial([c * k for c in self.coefficients])

    def compose(self, inner: "Polynomial") -> "Polynomial":
        acc = Polynomial([0])
        for c in reversed(self.coefficients):
            acc = acc * inner + Polynomial([c])
        return acc

    def monic(self) -> "Polynomial":
        lead = self.coefficients[-1]
        if lead == 0:
            return self
        return Polynomial([c / lead for c in self.coefficients])

    def divmod(self, other: "Polynomial"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coefficients)
        den = other.coefficients
        q = [Fraction(0)] * max(len(rem) - len(den) + 1, 1)
        for i in range(len(rem) - len(den), -1, -1):
            coef = rem[i + len(den) - 1] / den[-1]
            q[i] = coef
            for j, d in enumerate(den):
                rem[i + j] -= coef * d
        return Polynomial(q), Polynomial(rem)

    def as_float_coeffs(self) -> np.ndarray:
        return np.array([float(c) for c in self.coefficients])


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    while not b.is_zero():
        _, r = a.divmod(b)
        a, b = b, r
    return a.monic()


@dataclass(frozen=True)
class RationalFunction:
    numerator: Polynomial
    denominator: Polynomial

    def __post_init__(self):
        if self.denominator.is_zero():
            raise ValidationError("rational function with zero denominator")

    def reduced(self) -> "RationalFunction":
        g = poly_gcd(self.numerator, self.denominator)
        if g.degree <= 0:
            return self
        num, _ = self.numerator.divmod(g)
        den, _ = self.denominator.divmod(g)
        return RationalFunction(num, den)

    def __call__(self, s):
        return self.numerator(s) / self.denominator(s)

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        num = (self.numerator * other.denominator
               + other.numerator * self.denominator)
        return RationalFunction(num,
                                self.denominator * other.denominator)


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

FD_POINTS = 11    # width of the one central-difference stencil
FD_STEP = 5e-3    # its spacing, small because the oscillator checks reach
                  # z = 0.9, 0.1 from beta's branch point at z = 1


def fd_derivative(f: Callable, x, order: int):
    """Central finite-difference derivative of the given order on the
    FD_POINTS-wide stencil of spacing FD_STEP; x may be an array if f
    takes one.

    The weights are solved on the integer offsets (Fornberg, Math. Comp.
    51 (1988) 699) and scaled by FD_STEP**order; they are exact for
    polynomials of degree < FD_POINTS.
    """
    if not 0 < order < FD_POINTS:
        raise ValidationError(
            f"derivative order must be in 1..{FD_POINTS - 1}, got {order}")
    k = np.arange(FD_POINTS) - FD_POINTS // 2
    rhs = np.zeros(FD_POINTS)
    rhs[order] = math.factorial(order)
    w = np.linalg.solve(np.vander(k, increasing=True).T, rhs)
    return sum(wi * f(x + ki * FD_STEP) for wi, ki in zip(w, k)) \
        / FD_STEP**order


# ---------------------------------------------------------------------------
# quadrature: Gauss-Legendre and the periodic trapezoid rule
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _gauss_legendre_unit(nodes: int, panels: int = 1) -> tuple:
    """Composite Gauss-Legendre rule on [0, 1]: `panels` equal panels of
    `nodes` nodes each, built once per shape and returned read-only."""
    t, w = np.polynomial.legendre.leggauss(nodes)
    left = np.arange(panels)[:, None] / panels
    x = (left + 0.5 * (t + 1.0) / panels).reshape(-1)
    w = np.tile(0.5 * w / panels, panels)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gauss_legendre(f: Callable, a: float, b: float, nodes: int,
                    panels: int = 1) -> float:
    """\\int_a^b f by the composite Gauss-Legendre rule; f takes an array."""
    x, w = _gauss_legendre_unit(nodes, panels)
    return (b - a) * np.sum(w * f(a + (b - a) * x))


def _periodic_mean(g: Callable, nodes: int):
    """Mean over one period of a 2 pi-periodic g by the trapezoid rule on
    the angles -pi + 2 pi k / nodes, taken over the last axis of g(angles)
    (g may broadcast leading axes); exact for trigonometric polynomials of
    degree < nodes, geometric for analytic g (Trefethen & Weideman, SIAM
    Rev. 56 (2014) 385)."""
    return np.mean(g(-np.pi + 2 * np.pi * np.arange(nodes) / nodes), axis=-1)


# ---------------------------------------------------------------------------
# Chebyshev polynomials
# ---------------------------------------------------------------------------

def cheb_T(m: int, x: float) -> float:
    """First-kind value via the coupled recursion
    T_m = x T_{m-1} + (x^2 - 1) U_{m-1}, U_m = x U_{m-1} + T_{m-1},
    with T_0 = 1 and the U_m(cos t) = sin(mt)/sin(t) convention (U_0 = 0).
    """
    return _cheb_pair(m, x)[0]


def cheb_U(m: int, x: float) -> float:
    """Second-kind value, U_m(cos t) = sin(mt)/sin(t) convention."""
    return _cheb_pair(m, x)[1]


def _cheb_pair(m: int, x: float):
    if not (0 <= m <= 64):
        raise ValidationError("Chebyshev order must be in 0..64")
    T, U = 1.0, 0.0
    for _ in range(m):
        T, U = x * T + (x * x - 1.0) * U, x * U + T
    return T, U


def cheb_ode_residual(m: int, x: float) -> float:
    """|(1-x^2) T_m'' - x T_m' + m^2 T_m| with stencil derivatives that
    are exact for polynomial degree <= 10 (so the residual reflects the
    recursion values, not truncation error)."""
    if m > 10:
        raise ValidationError("ODE residual check supports m <= 10")
    f = lambda u: cheb_T(m, u)          # noqa: E731
    d1 = fd_derivative(f, x, 1).real
    d2 = fd_derivative(f, x, 2).real
    return abs((1 - x * x) * d2 - x * d1 + m * m * cheb_T(m, x))


# ---------------------------------------------------------------------------
# Bessel functions and the spin-wave Green's function
# ---------------------------------------------------------------------------

def bessel_J(n: int, r, nodes: int = 512):
    """J_n(r) by the periodic trapezoid rule on
    (1/2pi) \\int_{-pi}^{pi} e^{-i(n phi - r sin phi)} d phi
    (spectrally convergent); the tiny imaginary residual is discarded.

    A scalar r gives a float; an array of r gives an array of its shape,
    evaluated as one (r, nodes) block (the callers pass at most 64 values).
    Only cos(n phi - r sin phi), the real part of the integrand, is
    computed; it is averaged as the real part of a complex block, so the
    sum runs in the same order as the complex mean of the full integrand.
    """
    r = np.asarray(r, dtype=float)
    if abs(n) > 32 or np.any(np.abs(r) > 50):
        raise ValidationError("bessel_J supports |n| <= 32, |r| <= 50")
    out = _periodic_mean(
        lambda phi: np.cos(n * phi - r[..., None] * np.sin(phi)) + 0j,
        nodes).real
    return out if r.ndim else float(out)


def bessel_ode_residual(n: int, r: float) -> float:
    """|r^2 J'' + r J' + (r^2 - n^2) J| with high-order stencil
    derivatives (the standard radial equation; the variant printed with
    (n^2 - r^2) fails this check)."""
    f = lambda u: bessel_J(n, u)        # noqa: E731
    d1 = fd_derivative(f, r, 1).real
    d2 = fd_derivative(f, r, 2).real
    return abs(r * r * d2 + r * d1 + (r * r - n * n) * bessel_J(n, r))


def greens_spinwave(dq, t):
    """Nearest-neighbor lattice Green's function
    K(dq, t) = (1/2pi) \\int_{-pi}^{pi} e^{-i(p dq - 2 t cos p)} dp
    on 1024 periodic nodes.  dq and t may be arrays, broadcast together,
    each element as its scalar call (a scalar pair gives a complex).

    Equal in modulus to J_dq(2t); the printed closed form
    (-i)^dq J_dq(2t) is the complex conjugate phase (the integral gives
    (+i)^dq J_dq(2t)), a sign that flips for odd dq and is reported as a
    discrepancy rather than asserted.
    """
    dq, t = np.asarray(dq), np.asarray(t, dtype=float)
    if np.any(np.abs(dq) > 32):
        raise ValidationError("greens_spinwave supports |dq| <= 32")
    K = _periodic_mean(lambda p: np.exp(
        -1j * (p * dq[..., None] - 2 * t[..., None] * np.cos(p))), 1024)
    return K if K.ndim else complex(K)


LATTICE_SITES = 201    # open chain, the excitation starts at the center
LATTICE_DT = 1e-3      # nominal RK4 step of the lattice oracle


@functools.lru_cache(maxsize=None)
def _lattice_modes() -> tuple:
    """Eigenvalues and eigenvectors of the chain's hopping matrix
    A = 2 - (shift up) - (shift down), one eigh built once and returned
    read-only."""
    A = (2.0 * np.eye(LATTICE_SITES) - np.eye(LATTICE_SITES, k=1)
         - np.eye(LATTICE_SITES, k=-1))
    w, V = np.linalg.eigh(A)
    w.flags.writeable = V.flags.writeable = False
    return w, V


def spinwave_lattice_oracle(t: float) -> np.ndarray:
    """RK4 evolution of a single excitation on an open chain of
    LATTICE_SITES sites with the hopping Hamiltonian
    H|n> = 2|n> - |n+1> - |n-1> (A = 1).

    Returns the amplitude vector C(t) with the excitation initially at
    the center site: the RK4 iterate C_N = R(-ihA)^N C_0 of
    N = round(t / LATTICE_DT) steps of h = t/N, where
    R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 is RK4's amplification on a
    linear system.  It is evaluated in the eigenbasis of A, each mode's
    factor raised to the N-th power, instead of by N steps.
    """
    if not (math.isfinite(t) and t >= 0):
        raise ValidationError(
            f"lattice oracle needs a finite t >= 0, got {t!r}")
    C = np.zeros(LATTICE_SITES, dtype=complex)
    C[LATTICE_SITES // 2] = 1.0
    steps = round(t / LATTICE_DT)
    if not steps:
        return C
    w, V = _lattice_modes()
    z = -1j * (t / steps) * w
    R = 1 + z * (1 + z / 2 * (1 + z / 3 * (1 + z / 4)))
    return V @ (R ** steps * V[LATTICE_SITES // 2])


# ---------------------------------------------------------------------------
# cosine-transformed oscillator
# ---------------------------------------------------------------------------

def oscillator_beta(z: float, alpha: float) -> complex:
    """beta(z) = exp(i acos z) exp(-i alpha sqrt(1 - z^2)),
    the closed-form solution of i d(beta)/dz = (1-alpha z)/sqrt(1-z^2) beta
    (principal branch acos)."""
    if not -1.0 < z < 1.0:
        raise ValidationError("oscillator_beta requires |z| < 1")
    return (np.exp(1j * np.arccos(z))
            * np.exp(-1j * alpha * np.sqrt(1.0 - z * z)))


def oscillator_ode_residual(z: float, alpha: float) -> float:
    """|i beta' - (1 - alpha z)/sqrt(1-z^2) beta|."""
    b = functools.partial(oscillator_beta, alpha=alpha)
    return abs(1j * fd_derivative(b, z, 1)
               - (1 - alpha * z) / np.sqrt(1 - z * z) * b(z))


def oscillator_second_order_residual(z: float, alpha: float) -> float:
    """Residual of the second-order form
    (1-z^2) b'' + (alpha(1-z^2)/(1-alpha z) - z) b' + (1-alpha z)^2 b = 0."""
    b = functools.partial(oscillator_beta, alpha=alpha)
    return abs((1 - z * z) * fd_derivative(b, z, 2)
               + (alpha * (1 - z * z) / (1 - alpha * z) - z)
               * fd_derivative(b, z, 1)
               + (1 - alpha * z) ** 2 * b(z))


def cosine_frame_identities(psi: Callable[[float], complex],
                            chi: float) -> dict:
    """Finite-difference check of the cosine-frame transform pair on a
    smooth test function Psi(z), z = cos(chi).

    Verified identities: Psi_chichi = (1-z^2) Psi_zz - z Psi_z and
    (1-z^2) Psi_zz = Psi_chichi - cot(chi) Psi_chi.  The printed
    first-order relation z Psi_z = +cot(chi) Psi_chi has a sign error
    (the consistent form carries -cot(chi)); both residuals are reported.
    """
    if abs(np.sin(chi)) < 0.1:
        raise ValidationError("chi too close to a pole of cot")
    z = np.cos(chi)

    def g(c):
        return psi(np.cos(c))

    p_chi = fd_derivative(g, chi, 1)
    p_chichi = fd_derivative(g, chi, 2)
    p_z = fd_derivative(psi, z, 1)
    p_zz = fd_derivative(psi, z, 2)
    cot = np.cos(chi) / np.sin(chi)
    return {
        "second_order_forward": abs(p_chichi
                                    - ((1 - z * z) * p_zz - z * p_z)),
        "second_order_inverse": abs((1 - z * z) * p_zz
                                    - (p_chichi - cot * p_chi)),
        "first_order_printed": abs(z * p_z - cot * p_chi),
        "first_order_corrected": abs(z * p_z + cot * p_chi),
    }


# ---------------------------------------------------------------------------
# propagator polynomials
# ---------------------------------------------------------------------------

def _poly(*ascending) -> Polynomial:
    return Polynomial(ascending)


def ell_polys() -> dict:
    """The catalogued propagator polynomials (ascending coefficients) and
    the exact identity report."""
    q = _poly(1, 0, -6, 4, 8, -8, -4, 4)
    p = _poly(1, 0, -3, -1, 2)                   # first matrix entry
    P33 = _poly(0, -1, 1, 1, -2)
    Q = _poly(1, -1, -5, 5, 6, -8, -4, 4)
    b_q = _poly(20160, -2880, -960, 192, 24, -125, 0, 1)
    b_Q = Polynomial([396900, 0, 895923, 0, 550413, 0, 86527, 0, 5016, 0,
                      120, 0, 1]).scale(-2)
    b_p = Polynomial([-144, 0, 306, 0, 208, 0, 29, 0, 1]).scale(-1)
    r_q = Polynomial([0] * 8 + [1])
    r_Q = _poly(0, 1)
    for k in range(1, 8):
        r_Q = r_Q * _poly(k * k, 0, 1)
    r_p = _poly(0, 1)
    for k in range(1, 5):
        r_p = r_p * _poly(k * k, 0, 1)
    b1 = _poly(-144, 0, 306, 0, 208, 0, 29, 0, 1)
    b2 = _poly(20160, -2880, -960, 192, 25, -125, 0, 1)
    b3 = _poly(396900, 896923, 550413, 86527, 5016, 120, 1)
    b4 = _poly(-144, 306, 208, 29, 1)
    polys = {"q": q, "p": p, "P33": P33, "Q": Q, "b_q": b_q, "b_Q": b_Q,
             "b_p": b_p, "r_q": r_q, "r_Q": r_Q, "r_p": r_p,
             "b1": b1, "b2": b2, "b3": b3, "b4": b4}
    z2 = _poly(0, 0, 1)
    report = {
        "Q_equals_q_plus_P33": (q + P33 - Q).is_zero(),
        "b4_of_z2_equals_b1": (b4.compose(z2) - b1).is_zero(),
        "deg_q": q.degree,
        "deg_p": p.degree,
    }
    return {"polys": polys, "report": report}


def root_classify(P: Polynomial) -> dict:
    """Classify the roots of P (found via the companion-matrix
    eigenvalues) as real-positive, real-negative, pure-imaginary pairs,
    or general complex quadruple/pair members."""
    if P.degree > 12:
        raise ValidationError("root_classify supports degree <= 12")
    roots = np.roots(P.as_float_coeffs()[::-1])
    real_pos, real_neg, imag, cplx = [], [], [], []
    for r in roots:
        if abs(r.imag) <= 1e-8:
            (real_pos if r.real > 0 else real_neg).append(r.real)
        elif abs(r.real) <= 1e-8:
            imag.append(r.imag)
        else:
            cplx.append(complex(r))
    return {
        "real_pos": sorted(real_pos),
        "real_neg": sorted(real_neg),
        "pure_imag_pairs": sum(1 for v in imag if v > 0),
        "complex_roots": cplx,
        "moduli": sorted(abs(r) for r in roots),
    }


# ---------------------------------------------------------------------------
# Laplace transform of polynomials in cos(theta)
# ---------------------------------------------------------------------------

def laplace_cos_poly(P: Polynomial) -> RationalFunction:
    """Exact L[P(cos theta)](s): expand cos^k in the cosine Fourier basis
    with rational coefficients, apply L[cos(j theta)] = s/(s^2+j^2) and
    L[1] = 1/s term by term, and reduce to lowest terms."""
    if P.degree > 8:
        raise ValidationError("laplace_cos_poly supports degree <= 8")
    # cosine-basis weights: amp[j] = coefficient of cos(j theta)
    max_j = max(P.degree, 0)
    amp = [Fraction(0)] * (max_j + 1)
    for k, c in enumerate(P.coefficients):
        if c == 0:
            continue
        # cos^k = 2^{-k} sum_m C(k,m) cos((k-2m) theta)
        scale = Fraction(1, 2**k)
        for m in range(k + 1):
            j = abs(k - 2 * m)
            amp[j] += c * scale * math.comb(k, m)
    total = RationalFunction(_poly(0), _poly(1))
    for j, a in enumerate(amp):
        if a == 0:
            continue
        if j == 0:
            term = RationalFunction(_poly(a), _poly(0, 1))
        else:
            term = RationalFunction(_poly(0, a), _poly(j * j, 0, 1))
        total = total + term
    return total.reduced()


LAPLACE_DECAYS = 80.0      # the quadrature stops at theta = LAPLACE_DECAYS/s
LAPLACE_PANELS = 64
LAPLACE_PANEL_NODES = 32


def laplace_numeric(P: Polynomial, s: float) -> float:
    """Quadrature of \\int_0^inf P(cos theta) e^{-s theta} on
    [0, LAPLACE_DECAYS/s], where the dropped tail is below e^{-80} times
    the integrand's bound, by composite Gauss-Legendre: LAPLACE_PANELS
    equal panels of LAPLACE_PANEL_NODES nodes, so each panel spans at
    most about 9 radians of cos(7 theta) for s >= 1 and the rule is
    converged to round-off."""
    def f(th):
        return P(np.cos(th)) * np.exp(-s * th)
    return float(_gauss_legendre(f, 0.0, LAPLACE_DECAYS / s,
                                 LAPLACE_PANEL_NODES, LAPLACE_PANELS))


# ---------------------------------------------------------------------------
# residues
# ---------------------------------------------------------------------------

RESIDUE_NODES = 512        # trapezoid nodes on the contour circle
RESIDUE_RADIUS_CAP = 2.0   # contour radius when the origin is the only pole


def residue_at_origin(R: RationalFunction) -> dict:
    """Residue of R at s = 0, exact by series division, cross-checked by
    (1/2pi i) times the trapezoid contour integral on a circle about the
    origin, summed in double precision.

    The trapezoid rule on a circle converges geometrically, with ratio
    radius / (distance to the nearest other pole), so the radius is half
    that distance, capped at RESIDUE_RADIUS_CAP (the radius used when the
    origin is the only pole).  A radius of order one also keeps a
    high-order pole's integrand near unit size, so rounding stays at the
    double-precision floor.
    """
    den = R.denominator
    m = 0
    while den.coefficients[m] == 0:
        m += 1
    if m > 8:
        raise ValidationError("pole order at origin exceeds 8")
    d_rest = Polynomial(den.coefficients[m:])       # d_rest(0) != 0
    # Taylor coefficients of numerator / d_rest up to order m-1
    num = R.numerator.coefficients
    a = [num[i] if i < len(num) else Fraction(0) for i in range(m)]
    d = [d_rest.coefficients[i] if i < len(d_rest.coefficients)
         else Fraction(0) for i in range(m)]
    c = []
    for i in range(m):
        acc = a[i]
        for j in range(i):
            acc -= c[j] * d[i - j]
        c.append(acc / d[0])
    exact = c[m - 1] if m >= 1 else Fraction(0)

    radius = RESIDUE_RADIUS_CAP
    if d_rest.degree >= 1:
        closest = float(np.min(np.abs(
            np.roots(d_rest.as_float_coeffs()[::-1]))))
        if closest <= 1e-12:
            raise ValidationError("cannot separate poles at the origin")
        radius = min(radius, 0.5 * closest)

    def g(theta):
        # (1/2pi i) oint f dz = mean of z f(z) over z = radius e^{i theta}
        z = radius * np.exp(1j * theta)
        return z * R.numerator(z) / R.denominator(z)
    contour = complex(_periodic_mean(g, RESIDUE_NODES))
    return {"exact": exact, "quadrature": contour,
            "agreement": abs(contour - float(exact)),
            "radius": radius}


# ---------------------------------------------------------------------------
# weighted integrals and moment marginals
# ---------------------------------------------------------------------------

def gauss_chebyshev_integral(P: Polynomial) -> float:
    """\\int_{-1}^{1} P(u)/sqrt(1-u^2) du as pi times the periodic mean of
    P(cos theta) on 32 nodes, exact for deg <= 31."""
    return float(np.pi * _periodic_mean(lambda th: P(np.cos(th)), 32))


def weight_normalization(alpha: float) -> tuple:
    """(numeric, exact) for \\int_{-1}^{1} (1-u^2)^{alpha/2} du
    = sqrt(pi) Gamma(alpha/2+1)/Gamma(alpha/2+3/2); numeric via the
    substitution u = cos(t), with 200 Gauss-Legendre nodes."""
    numeric = float(_gauss_legendre(lambda t: np.sin(t) ** (alpha + 1),
                                    0.0, np.pi, 200))
    exact = (np.sqrt(np.pi) * math.gamma(alpha / 2 + 1)
             / math.gamma(alpha / 2 + 1.5))
    return numeric, exact


def moment_marginal(P: Polynomial) -> RationalFunction:
    """Exact weighted marginal alpha -> \\int P W d u / \\int W d u with
    W = (1-u^2)^{alpha/2}, as a rational function of alpha.

    Uses the even-moment ratio
    \\int u^{2m} W / \\int W = prod_{i=1..m} (2i-1)/(alpha+2i+1);
    odd moments vanish by symmetry.
    """
    total = RationalFunction(_poly(0), _poly(1))
    for k, c in enumerate(P.coefficients):
        if c == 0 or k % 2 == 1:
            continue
        m = k // 2
        num = Polynomial([c])
        den = Polynomial([1])
        for i in range(1, m + 1):
            num = num.scale(2 * i - 1)
            den = den * _poly(2 * i + 1, 1)
        total = total + RationalFunction(num, den)
    return total.reduced()


def weighted_integrals(b1: Polynomial) -> dict:
    """Report for the weighted-integral identities of the catalogued
    polynomial b1 (ell_polys()["polys"]["b1"])."""
    rep = {}
    val = gauss_chebyshev_integral(b1)
    target = 12331 * np.pi / 128
    rep["chebyshev_weight_integral"] = val
    rep["chebyshev_weight_relative_error"] = abs(val - target) / abs(target)

    rep["weight_normalization"] = {
        alpha: abs(n - e) for alpha, (n, e)
        in ((a, weight_normalization(a)) for a in (0, 1, 2, 5))}

    marg = moment_marginal(b1)
    p_alpha = _poly(-1214, 17653, 7538, 1050, 48)
    q_alpha = _poly(1)
    for r in (3, 5, 7, 9):
        q_alpha = q_alpha * _poly(r, 1)
    printed = RationalFunction(p_alpha.scale(-3), q_alpha).reduced()
    diff_num = (marg.numerator * printed.denominator
                - printed.numerator * marg.denominator)
    rep["marginal_matches_printed"] = diff_num.is_zero()

    # partial fractions: 1/((a+3)(a+5)(a+7)(a+9)) =
    # (1/48)(1/(a+3) - 1/(a+9)) + (1/16)(1/(a+7) - 1/(a+5))
    lhs = RationalFunction(_poly(1), q_alpha)
    rhs = RationalFunction(_poly(0), _poly(1))
    for coef, root in ((Fraction(1, 48), 3), (Fraction(-1, 48), 9),
                       (Fraction(1, 16), 7), (Fraction(-1, 16), 5)):
        rhs = rhs + RationalFunction(_poly(coef), _poly(root, 1))
    pf_diff = (lhs.numerator * rhs.denominator
               - rhs.numerator * lhs.denominator)
    rep["partial_fraction_identity"] = pf_diff.is_zero()

    # alpha -> infinity limit: ratio of leading coefficients
    mn, md = marg.numerator, marg.denominator
    rep["marginal_limit"] = (mn.coefficients[-1] / md.coefficients[-1]
                             if mn.degree == md.degree else Fraction(0))
    rep["marginal_limit_equals_b1_at_0"] = (
        rep["marginal_limit"] == b1.coefficients[0])
    return rep


# ---------------------------------------------------------------------------
# reported-only numeric probes
# ---------------------------------------------------------------------------

PROBE_NODES = 64     # Gauss-Legendre nodes of the two reported-only probes


def sec_tan_identity_probe(a: float = 0.2, b: float = 0.9) -> dict:
    """Numeric evaluation of the printed identity
    \\int_a^b sec z (1 + tan z) dz =
    \\int_{sec a}^{sec b} dy/sqrt(y^2-1) + i(sec b - sec a)
    on a pole-free real interval; the imaginary term makes the printed
    right side complex while the left side is real, so the residual is
    reported only.  Both integrals take PROBE_NODES Gauss-Legendre nodes
    (the integrands are analytic on the intervals; for the defaults the
    nearest singularity, y = 1, is far enough off [sec a, sec b] that the
    rule is converged to round-off)."""
    lhs = _gauss_legendre(lambda z: 1 / np.cos(z) * (1 + np.tan(z)),
                          a, b, PROBE_NODES)
    sec_a, sec_b = 1 / np.cos(a), 1 / np.cos(b)
    rhs = (_gauss_legendre(lambda y: 1 / np.sqrt(y * y - 1),
                           sec_a, sec_b, PROBE_NODES)
           + 1j * (sec_b - sec_a))
    return {"lhs": float(lhs), "rhs": complex(rhs),
            "residual": abs(lhs - rhs)}


def bessel_inner_product_probe() -> dict:
    """Quadrature of \\int_{-pi}^{pi} J_2(v)^2 dv against the printed value
    delta_mn / (2 pi^2) at m = n = 2, which is dimensionally inconsistent;
    the residual is reported only.  The integrand is entire, so PROBE_NODES
    Gauss-Legendre nodes converge to round-off; J takes 64 quadrature
    nodes, enough on |v| <= pi (bessel_J's default 512 is sized for
    |r| <= 50)."""
    def f(v):
        # |v| <= pi: 64 nodes alias by less than |J_32(pi)| ~ 7e-30
        return bessel_J(2, v, 64) ** 2
    val = float(_gauss_legendre(f, -np.pi, np.pi, PROBE_NODES))
    printed = 1.0 / (2 * np.pi**2)
    return {"quadrature": val, "printed": printed,
            "residual": abs(val - printed)}
