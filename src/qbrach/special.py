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

from .brach import rk4_step
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

def fd_derivative(f: Callable[[float], complex], x: float, order: int,
                  npoints: int = 11, h: float = 0.02) -> complex:
    """Central finite-difference derivative on an npoints-wide stencil.

    The stencil weights are exact for polynomials of degree < npoints, so
    wide stencils with a moderate step avoid the cancellation floor of
    the three-point formulas.
    """
    if npoints % 2 == 0 or order >= npoints:
        raise ValidationError("need an odd stencil wider than the order")
    k = np.arange(npoints) - npoints // 2
    V = np.vander(k * h, npoints, increasing=True).T
    rhs = np.zeros(npoints)
    rhs[order] = math.factorial(order)
    w = np.linalg.solve(V, rhs)
    return sum(wi * f(x + ki * h) for wi, ki in zip(w, k))


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
    are exact for polynomial degree <= 12 (so the residual reflects the
    recursion values, not truncation error)."""
    if m > 10:
        raise ValidationError("ODE residual check supports m <= 10")
    f = lambda u: cheb_T(m, u)          # noqa: E731
    d1 = fd_derivative(f, x, 1, npoints=13, h=0.05).real
    d2 = fd_derivative(f, x, 2, npoints=13, h=0.05).real
    return abs((1 - x * x) * d2 - x * d1 + m * m * cheb_T(m, x))


# ---------------------------------------------------------------------------
# Bessel functions and the spin-wave Green's function
# ---------------------------------------------------------------------------

BESSEL_BLOCK = 256     # rows of r per (rows, nodes) quadrature block


def bessel_J(n: int, r, nodes: int = 512):
    """J_n(r) by periodic-trapezoid quadrature of
    (1/2pi) \\int_{-pi}^{pi} e^{-i(n phi - r sin phi)} d phi
    (spectrally convergent); the tiny imaginary residual is discarded.

    A scalar r gives a float; an array of r gives an array of its shape,
    evaluated BESSEL_BLOCK values of r at a time.  Only cos(n phi - r sin phi),
    the real part of the integrand, is computed; it is averaged as the real
    part of a complex block, so the sum runs in the same order as the
    complex mean of the full integrand.
    """
    r = np.asarray(r, dtype=float)
    if abs(n) > 32 or np.any(np.abs(r) > 50):
        raise ValidationError("bessel_J supports |n| <= 32, |r| <= 50")
    phi = -np.pi + 2 * np.pi * np.arange(nodes) / nodes
    n_phi, sin_phi = n * phi, np.sin(phi)
    flat = r.reshape(-1)
    out = np.empty(flat.size)
    block = np.zeros((min(BESSEL_BLOCK, flat.size), nodes), dtype=complex)
    for lo in range(0, flat.size, BESSEL_BLOCK):
        rows = flat[lo:lo + BESSEL_BLOCK]
        vals = block[:rows.size]
        vals.real = np.cos(n_phi - rows[:, None] * sin_phi)
        out[lo:lo + rows.size] = np.mean(vals, axis=-1).real
    return out.reshape(r.shape) if r.ndim else float(out[0])


def bessel_ode_residual(n: int, r: float) -> float:
    """|r^2 J'' + r J' + (r^2 - n^2) J| with high-order stencil
    derivatives (the standard radial equation; the variant printed with
    (n^2 - r^2) fails this check)."""
    f = lambda u: bessel_J(n, u)        # noqa: E731
    d1 = fd_derivative(f, r, 1, npoints=9, h=0.05).real
    d2 = fd_derivative(f, r, 2, npoints=9, h=0.05).real
    return abs(r * r * d2 + r * d1 + (r * r - n * n) * bessel_J(n, r))


def greens_spinwave(dq: int, t: float, nodes: int = 1024) -> complex:
    """Nearest-neighbor lattice Green's function
    K(dq, t) = (1/2pi) \\int_{-pi}^{pi} e^{-i(p dq - 2 t cos p)} dp.

    Equal in modulus to J_dq(2t); the printed closed form
    (-i)^dq J_dq(2t) is the complex conjugate phase (the integral gives
    (+i)^dq J_dq(2t)), a sign that flips for odd dq and is reported as a
    discrepancy rather than asserted.
    """
    if abs(dq) > 32:
        raise ValidationError("greens_spinwave supports |dq| <= 32")
    p = -np.pi + 2 * np.pi * np.arange(nodes) / nodes
    vals = np.exp(-1j * (p * dq - 2 * t * np.cos(p)))
    return complex(np.mean(vals))


def spinwave_lattice_oracle(t: float, n_sites: int = 201,
                            dt: float = 1e-3) -> np.ndarray:
    """RK4 evolution of a single excitation on an open chain with the
    hopping Hamiltonian H|n> = 2|n> - |n+1> - |n-1| (A = 1).

    Returns the amplitude vector C(t) with the excitation initially at
    the center site.
    """
    n = n_sites
    C = np.zeros(n, dtype=complex)
    C[n // 2] = 1.0

    def rhs(C):
        out = 2.0 * C
        out[:-1] -= C[1:]
        out[1:] -= C[:-1]
        return -1j * out

    steps = int(round(t / dt))
    h = t / steps if steps else dt
    for _ in range(steps):
        C = rk4_step(rhs, C, h)
    return C


# ---------------------------------------------------------------------------
# cosine-transformed oscillator
# ---------------------------------------------------------------------------

def oscillator_beta(z: float, alpha: float, beta0: complex = 1.0) -> complex:
    """beta(z) = beta0 exp(i acos z) exp(-i alpha sqrt(1 - z^2)),
    the closed-form solution of i d(beta)/dz = (1-alpha z)/sqrt(1-z^2) beta
    (principal branch acos)."""
    if not -1.0 < z < 1.0:
        raise ValidationError("oscillator_beta requires |z| < 1")
    return (beta0 * np.exp(1j * np.arccos(z))
            * np.exp(-1j * alpha * np.sqrt(1.0 - z * z)))


def oscillator_ode_residual(z: float, alpha: float, h: float = 1e-5) -> float:
    """|i beta' - (1 - alpha z)/sqrt(1-z^2) beta| by central differences."""
    b = oscillator_beta
    d = (b(z + h, alpha) - b(z - h, alpha)) / (2 * h)
    return abs(1j * d - (1 - alpha * z) / np.sqrt(1 - z * z)
               * b(z, alpha))


def oscillator_second_order_residual(z: float, alpha: float,
                                     h: float = 1e-4) -> float:
    """Residual of the second-order form
    (1-z^2) b'' + (alpha(1-z^2)/(1-alpha z) - z) b' + (1-alpha z)^2 b = 0."""
    b = oscillator_beta
    b0 = b(z, alpha)
    d1 = (b(z + h, alpha) - b(z - h, alpha)) / (2 * h)
    d2 = (b(z + h, alpha) - 2 * b0 + b(z - h, alpha)) / h**2
    return abs((1 - z * z) * d2
               + (alpha * (1 - z * z) / (1 - alpha * z) - z) * d1
               + (1 - alpha * z) ** 2 * b0)


def cosine_frame_identities(psi: Callable[[float], complex],
                            chi: float, h: float = 1e-3) -> dict:
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

    p_chi = fd_derivative(g, chi, 1, npoints=5, h=h)
    p_chichi = fd_derivative(g, chi, 2, npoints=5, h=h)
    p_z = fd_derivative(psi, z, 1, npoints=5, h=h)
    p_zz = fd_derivative(psi, z, 2, npoints=5, h=h)
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


def root_classify(P: Polynomial, tol: float = 1e-8) -> dict:
    """Classify the roots of P (found via the companion-matrix
    eigenvalues) as real-positive, real-negative, pure-imaginary pairs,
    or general complex quadruple/pair members."""
    if P.degree > 12:
        raise ValidationError("root_classify supports degree <= 12")
    roots = np.roots(P.as_float_coeffs()[::-1])
    real_pos, real_neg, imag, cplx = [], [], [], []
    for r in roots:
        if abs(r.imag) <= tol:
            (real_pos if r.real > 0 else real_neg).append(r.real)
        elif abs(r.real) <= tol:
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


def laplace_numeric(P: Polynomial, s: float, theta_max: float = 80.0,
                    n: int = 400000) -> float:
    """Brute-force quadrature of \\int_0^inf P(cos theta) e^{-s theta}."""
    th = np.linspace(0.0, theta_max / s, n)
    vals = P.as_float_coeffs()
    y = np.polyval(vals[::-1], np.cos(th)) * np.exp(-s * th)
    return float(np.trapezoid(y, th))


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
    z = radius * np.exp(2j * np.pi * np.arange(RESIDUE_NODES)
                        / RESIDUE_NODES)
    num_z = np.polyval(R.numerator.as_float_coeffs()[::-1], z)
    den_z = np.polyval(R.denominator.as_float_coeffs()[::-1], z)
    # (1/2pi i) oint f = mean of z f(z) over the nodes
    contour = complex(np.mean(z * num_z / den_z))
    return {"exact": exact, "quadrature": contour,
            "agreement": abs(contour - float(exact)),
            "radius": radius}


# ---------------------------------------------------------------------------
# weighted integrals and moment marginals
# ---------------------------------------------------------------------------

def gauss_chebyshev_integral(P: Polynomial, nodes: int = 16) -> float:
    """\\int_{-1}^{1} P(u)/sqrt(1-u^2) du, exact for deg <= 2*nodes - 1."""
    if nodes < 16:
        raise ValidationError("node count must be >= 16")
    k = np.arange(1, nodes + 1)
    x = np.cos((2 * k - 1) * np.pi / (2 * nodes))
    vals = np.polyval(P.as_float_coeffs()[::-1], x)
    return float(np.pi / nodes * np.sum(vals))


@functools.lru_cache(maxsize=None)
def _gauss_legendre_half_turn(nodes: int) -> tuple:
    """Gauss-Legendre nodes and weights mapped to [0, pi], built once per
    node count and returned read-only."""
    t, w = np.polynomial.legendre.leggauss(nodes)
    t = 0.5 * np.pi * (t + 1.0)
    w = 0.5 * np.pi * w
    t.flags.writeable = w.flags.writeable = False
    return t, w


def weight_normalization(alpha: float, nodes: int = 200) -> tuple:
    """(numeric, exact) for \\int_{-1}^{1} (1-u^2)^{alpha/2} du
    = sqrt(pi) Gamma(alpha/2+1)/Gamma(alpha/2+3/2); numeric via the
    substitution u = cos(t)."""
    t, w = _gauss_legendre_half_turn(nodes)
    numeric = float(np.sum(w * np.sin(t) ** (alpha + 1)))
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


def weighted_integrals() -> dict:
    """Report for the weighted-integral identities of the catalogued
    polynomial b1."""
    data = ell_polys()["polys"]
    b1 = data["b1"]
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

def sec_tan_identity_probe(a: float = 0.2, b: float = 0.9,
                           nodes: int = 200001) -> dict:
    """Numeric evaluation of the printed identity
    \\int_a^b sec z (1 + tan z) dz =
    \\int_{sec a}^{sec b} dy/sqrt(y^2-1) + i(sec b - sec a)
    on a pole-free real interval; the imaginary term makes the printed
    right side complex while the left side is real, so the residual is
    reported only."""
    z = np.linspace(a, b, nodes)
    lhs = np.trapezoid(1 / np.cos(z) * (1 + np.tan(z)), z)
    y = np.linspace(1 / np.cos(a), 1 / np.cos(b), nodes)
    rhs = (np.trapezoid(1 / np.sqrt(y * y - 1), y)
           + 1j * (1 / np.cos(b) - 1 / np.cos(a)))
    return {"lhs": float(lhs), "rhs": complex(rhs),
            "residual": abs(lhs - rhs)}


def bessel_inner_product_probe(m: int = 2, n: int = 2,
                               nodes: int = 20001) -> dict:
    """Quadrature of \\int_{-pi}^{pi} J_m(v) J_n(v) dv against the printed
    value delta_mn / (2 pi^2), which is dimensionally inconsistent; the
    residual is reported only."""
    v = np.linspace(-np.pi, np.pi, nodes)
    jm = bessel_J(m, v)
    jn = jm if n == m else bessel_J(n, v)
    val = float(np.trapezoid(jm * jn, v))
    printed = (1.0 / (2 * np.pi**2)) if m == n else 0.0
    return {"quadrature": val, "printed": printed,
            "residual": abs(val - printed)}
