"""Catalog of explicit unitary/matrix families with verification helpers.

Covers the two-level gate set, the three-level diagonalizing rotations
(D, J, Q and friends), the semigroup shift operators, the qutrit DFT and
split-DFT checks, the dihedral permutation group, the four-level gate
list, and the unit upper-triangular semigroup algebra.

Printed matrix displays are stored verbatim, including suspected
transcription errors; verification routines compare them against forms
reconstructed from definitions and report both residuals rather than
silently correcting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .matcore import ValidationError, as_matrix

SQ2 = np.sqrt(2.0)


def verify_unitary(M: np.ndarray) -> float:
    """Max-entry residual of M†M and MM† from the identity."""
    M = as_matrix(M)
    I = np.eye(M.shape[0])
    return float(max(np.max(np.abs(M.conj().T @ M - I)),
                     np.max(np.abs(M @ M.conj().T - I))))


# ---------------------------------------------------------------------------
# two-level gates
# ---------------------------------------------------------------------------

def u2_hadamard() -> np.ndarray:
    return np.array([[1, -1], [1, 1]], dtype=complex) / SQ2


def u2_phased(theta: float) -> np.ndarray:
    """Printed phased Hadamard variant; the (2,2) entry e^{-i theta}
    breaks row orthogonality, so the printed matrix is not unitary."""
    return np.array([[np.exp(-1j * theta), -np.exp(-1j * theta)],
                     [np.exp(1j * theta), np.exp(-1j * theta)]]) / SQ2


def u2_rotation(chi: float) -> np.ndarray:
    return np.array([[np.sin(chi), -1j * np.cos(chi)],
                     [1j * np.cos(chi), -np.sin(chi)]])


def u2_not() -> np.ndarray:
    return np.array([[0, 1], [1, 0]], dtype=complex)


def u2_half_phased(alpha: float) -> np.ndarray:
    return np.array([[np.exp(-1j * alpha), -np.exp(-1j * alpha)],
                     [1, 1]]) / SQ2


def u2_phase(theta: float) -> np.ndarray:
    return np.exp(1j * theta) * np.diag([1.0, np.exp(-2j * theta)])


def conjugation_to_sigma_z(alpha: float) -> np.ndarray:
    """Product of the printed three-matrix chain that collapses a phased
    off-diagonal Hamiltonian onto diag(1, -1)."""
    a = np.exp(-1j * alpha)
    left = 0.5 * np.array([[1, a], [1, -a]])
    mid = np.array([[0, a], [np.conj(a), 0]])
    right = np.array([[1, 1], [np.conj(a), -np.conj(a)]])
    return left @ mid @ right


# ---------------------------------------------------------------------------
# three-level diagonalizing rotations
# ---------------------------------------------------------------------------

L_DIAG = np.diag([1.0, -1.0, 0.0]).astype(complex)
N_SWAP = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=complex)


def d_gate(chi: float) -> np.ndarray:
    c, s = np.cos(chi), np.sin(chi)
    return np.array([
        [-1j * c / SQ2, 1j * c / SQ2, 1j * s],
        [1 / SQ2, 1 / SQ2, 0],
        [1j * s / SQ2, -1j * s / SQ2, 1j * c]])


def j_gate(phi: float) -> np.ndarray:
    c, s = np.cos(phi), np.sin(phi)
    return np.array([
        [c / SQ2, -c / SQ2, -s],
        [1 / SQ2, 1 / SQ2, 0],
        [1j * s / SQ2, -1j * s / SQ2, 1j * c]])


def q_gate(phi: float, rho: float = 0.0) -> np.ndarray:
    c, s = np.cos(phi), np.sin(phi)
    ep, em = np.exp(1j * rho), np.exp(-1j * rho)
    return np.array([
        [c / SQ2, -c / SQ2, 1j * em * s],
        [1 / SQ2, 1 / SQ2, 0],
        [1j * ep * s / SQ2, -1j * ep * s / SQ2, c]])


def elliptic_hamiltonian(phi: float) -> np.ndarray:
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[0, c, 0], [c, 0, -1j * s], [0, 1j * s, 0]])


def propagator_gate(theta: float) -> np.ndarray:
    """Closed-form propagator 1 - i sin(theta) H + (cos(theta)-1) H^2 of
    the angle-theta coupling pattern; entries are polynomial in
    cos(theta), sin(theta)."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([
        [1 + (c - 1) * c**2, -1j * s * c, -1j * (c - 1) * s * c],
        [-1j * s * c, c, -s**2],
        [1j * (c - 1) * s * c, s**2, 1 + (c - 1) * s**2]])


# ---------------------------------------------------------------------------
# eigenreflections
# ---------------------------------------------------------------------------

def eigenreflections(xi: float):
    """The three printed reflection-like matrices and a residual report.

    The printed summation identity relating the middle matrix at -xi to
    the sum of the outer two fails entrywise (off by exactly diag(1, 0, 0));
    residuals are reported, not asserted.
    """
    c, s = np.cos(xi), np.sin(xi)
    M1 = 0.5 * np.array([
        [1 + s**2, -c, 1j * s * c],
        [-c, 1, 1j * s],
        [-1j * s * c, -1j * s, 1 + c**2]])
    M2 = np.array([
        [s**2, 0, -1j * s * c],
        [0, 1, 0],
        [1j * s * c, 0, 1 + c**2]])
    M3 = 0.5 * np.array([
        [1 + s**2, c, 1j * s * c],
        [c, 1, -1j * s],
        [-1j * s * c, 1j * s, 1 + c**2]])

    cm, sm = np.cos(-xi), np.sin(-xi)
    M2_neg = np.array([
        [sm**2, 0, -1j * sm * cm],
        [0, 1, 0],
        [1j * sm * cm, 0, 1 + cm**2]])
    report = {
        "hermiticity": max(float(np.max(np.abs(M - M.conj().T)))
                           for M in (M1, M2, M3)),
        "sum_identity": float(np.max(np.abs(M2_neg - (M1 + M3)))),
    }
    # residual of each printed matrix against 1 - |v><v| over the columns
    # of the eigenvector gate at the same angle
    J = j_gate(xi)
    for idx, M in enumerate((M1, M2, M3), start=1):
        res = min(
            float(np.max(np.abs(M - (np.eye(3) - np.outer(v, v.conj())))))
            for v in J.T)
        report[f"projector_form_M{idx}"] = res
    return M1, M2, M3, report


# ---------------------------------------------------------------------------
# semigroup shift operators
# ---------------------------------------------------------------------------

def _ld_variants(alpha: float):
    c, s = np.cos(alpha), np.sin(alpha)
    return [np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]], dtype=complex),
            np.array([[c, 0, -s], [0, 1, 0], [s, 0, c]], dtype=complex)]


def _lq_variants(alpha: float, rho: float):
    c, s = np.cos(alpha), np.sin(alpha)
    ep, em = np.exp(1j * rho), np.exp(-1j * rho)
    return [np.array([[c, 0, 1j * em * s], [0, 1, 0],
                      [1j * ep * s, 0, c]]),
            np.array([[c, 0, 1j * em * s], [0, 1, 0],
                      [-1j * ep * s, 0, c]])]


def _lj_variants(alpha: float):
    c, s = np.cos(alpha), np.sin(alpha)
    return [np.array([[c, 0, 1j * s], [0, 1, 0], [1j * s, 0, c]]),
            np.array([[c, 0, -1j * s], [0, 1, 0], [-1j * s, 0, c]]),
            np.array([[c, 0, -1j * s], [0, 1, 0], [1j * s, 0, c]])]


def shift_check(family: str, column_index: int, sigma: float, alpha: float,
                rho: float = 0.0):
    """Test L(alpha) col_i(sigma) = col_i(sigma + alpha) for the printed
    shift-operator variants of one gate family.

    Returns (residual, variant_index) for the best-matching printed
    variant.
    """
    if column_index not in (1, 2, 3):
        raise ValidationError("column_index must be 1..3")
    if family == "D":
        gate, variants = d_gate, _ld_variants(alpha)
    elif family == "J":
        gate, variants = j_gate, _lj_variants(alpha)
    elif family == "Q":
        gate = lambda x: q_gate(x, rho)   # noqa: E731
        variants = _lq_variants(alpha, rho)
    else:
        raise ValidationError(f"unknown shift family: {family}")
    col = gate(sigma)[:, column_index - 1]
    target = gate(sigma + alpha)[:, column_index - 1]
    residuals = [float(np.max(np.abs(L @ col - target))) for L in variants]
    best = int(np.argmin(residuals))
    return residuals[best], best


# ---------------------------------------------------------------------------
# qutrit DFT
# ---------------------------------------------------------------------------

Z_CUBE_ROOT = 0.5 * (-1 + 1j * np.sqrt(3.0))

R_DFT = np.array([
    [1, 1, 1],
    [1, Z_CUBE_ROOT, np.conj(Z_CUBE_ROOT)],
    [1, np.conj(Z_CUBE_ROOT), Z_CUBE_ROOT]]) / np.sqrt(3.0)

X_SO3 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)
Y_SO3 = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]])
Z_SO3 = np.diag([1.0, 0.0, -1.0]).astype(complex)


def split_dft_w(chi: float) -> np.ndarray:
    w = np.exp(1j * chi)
    return np.array([[1, 1, 1], [1, w, w**2], [1, w**2, w**4]])


def split_dft_q(theta: float) -> np.ndarray:
    k = np.exp(1j * theta)
    return np.array([[1, 1, 1], [1, k, k**3], [1, k**3, k**5]])


def split_dft_j(theta: float) -> np.ndarray:
    j = np.exp(1j * theta)
    return np.array([[1, 1, 1], [1, j, j**2], [1, j**2, j**3]])


def dft_checks(chi: float = 0.4) -> dict:
    """Verification report for the qutrit DFT and split-DFT content.

    The printed expansion of k^3 carries a sign error in its imaginary
    part (it evaluates to the conjugate frequency); the residual is
    reported alongside the correct expansion.
    """
    rep = {}
    rep["R_unitary"] = verify_unitary(R_DFT)
    rep["R_fourth_root"] = float(np.max(np.abs(
        np.linalg.matrix_power(R_DFT, 4) - np.eye(3))))
    perm = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
    rep["RtR_permutation"] = float(np.max(np.abs(R_DFT.T @ R_DFT - perm)))
    rep["XY_commutator"] = float(np.max(np.abs(
        (X_SO3 @ Y_SO3 - Y_SO3 @ X_SO3) - 2j * Z_SO3)))
    rep["XZ_commutator"] = float(np.max(np.abs(
        (X_SO3 @ Z_SO3 - Z_SO3 @ X_SO3) + 1j * Y_SO3)))
    rep["YZ_commutator"] = float(np.max(np.abs(
        (Y_SO3 @ Z_SO3 - Z_SO3 @ Y_SO3) - 1j * X_SO3)))

    W = split_dft_w(chi)
    w = np.exp(1j * chi)
    HW = W @ L_DIAG @ W.conj().T
    HW_printed = np.array([
        [0, 1 - w**-1, 1 - w**-2],
        [1 - w, 0, 1 - w**-1],
        [1 - w**2, 1 - w, 0]])
    rep["HW_two_parameter_form"] = float(np.max(np.abs(HW - HW_printed)))
    rep["W_unitary_residual"] = verify_unitary(W)       # expected large
    rep["Q_unitary_residual"] = verify_unitary(split_dft_q(chi))
    rep["J_unitary_residual"] = verify_unitary(split_dft_j(chi))

    th = chi
    k = np.exp(1j * th)
    rep["de_moivre_k2"] = abs(
        k**2 - (2 * np.cos(th)**2 - 1 + 2j * np.sin(th) * np.cos(th)))
    printed_k3 = (np.cos(th) * (4 * np.cos(th)**2 - 3)
                  + 1j * np.sin(th) * (4 * np.sin(th)**2 - 3))
    rep["de_moivre_k3_printed"] = abs(k**3 - printed_k3)    # sign error
    rep["de_moivre_k3_corrected"] = abs(
        k**3 - (np.cos(th) * (4 * np.cos(th)**2 - 3)
                - 1j * np.sin(th) * (4 * np.sin(th)**2 - 3)))
    rep["de_moivre_1_minus_j2"] = abs(
        (1 - k**2) - (2 * np.sin(th)**2 - 2j * np.sin(th) * np.cos(th)))
    return rep


# ---------------------------------------------------------------------------
# dihedral group
# ---------------------------------------------------------------------------

def dihedral_generators() -> list[np.ndarray]:
    perms = [(0, 1, 2), (2, 1, 0), (0, 2, 1), (1, 0, 2), (2, 0, 1),
             (1, 2, 0)]
    return [np.eye(3)[list(p)].astype(complex).T for p in perms]


# group_closure's size guard (the permutation group it closes has order 6)
CLOSURE_MAX_ORDER = 24


def group_closure(generators: Sequence[np.ndarray]) -> dict:
    """Close a generating set under multiplication.

    Elements are deduplicated by rounding entries to the 1e-9 scale.
    Returns the element list, an index multiplication table, and an
    abelian flag.  Raises if the closure exceeds CLOSURE_MAX_ORDER elements.
    """
    def key(M):
        return tuple((round(x.real / 1e-9), round(x.imag / 1e-9))
                     for x in M.ravel())

    elements = []
    seen = {}
    for g in generators:
        g = as_matrix(g)
        k = key(g)
        if k not in seen:
            seen[k] = len(elements)
            elements.append(g)
    changed = True
    while changed:
        changed = False
        for a in list(elements):
            for b in list(elements):
                p = a @ b
                k = key(p)
                if k not in seen:
                    if len(elements) >= CLOSURE_MAX_ORDER:
                        raise ValidationError(
                            f"closure exceeds {CLOSURE_MAX_ORDER} elements")
                    seen[k] = len(elements)
                    elements.append(p)
                    changed = True
    n = len(elements)
    table = np.empty((n, n), dtype=int)
    for i in range(n):
        for j in range(n):
            table[i, j] = seen[key(elements[i] @ elements[j])]
    abelian = bool(np.all(table == table.T))
    return {"elements": elements, "table": table, "order": n,
            "abelian": abelian}


# ---------------------------------------------------------------------------
# quarter-angle gate set
# ---------------------------------------------------------------------------

def quarter_angle_gates(rho: float = 0.0) -> dict:
    """The twelve gates at angles {0, pi/2, pi, 3pi/2} plus the printed
    low-angle identities."""
    angles = [0.0, np.pi / 2, np.pi, 3 * np.pi / 2]
    gates = {}
    for a in angles:
        gates[("Q", a)] = q_gate(a, rho)
        gates[("J", a)] = j_gate(a)
        gates[("D", a)] = d_gate(a)
    Q0, D0, J0 = gates[("Q", 0.0)], gates[("D", 0.0)], gates[("J", 0.0)]
    Dh = gates[("D", np.pi / 2)]
    report = {
        "unitarity": max(verify_unitary(g) for g in gates.values()),
        "Q0_squared": float(np.max(np.abs(
            Q0 @ Q0 - np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]])))),
        "D0_squared": float(np.max(np.abs(
            D0 @ D0 - 0.5 * np.array([[1j - 1, 1j + 1, 0],
                                      [-1j + 1, 1j + 1, 0],
                                      [0, 0, -2]])))),
        "J0_fourth": float(np.max(np.abs(
            np.linalg.matrix_power(J0, 4) - np.diag([-1, -1, 1])))),
        # printed displays for [D(0), D(pi/2)] and {D(0), D(pi/2)} do not
        # match the direct products of the printed gates; residuals
        # reported, not asserted
        "D_commutator_printed": float(np.max(np.abs(
            (D0 @ Dh - Dh @ D0) - np.array([[1j, 1j, 0], [1j, -1j, 0],
                                            [0, 0, 0]])))),
        "D_anticommutator_printed": float(np.max(np.abs(
            (D0 @ Dh + Dh @ D0) - np.array([[1, -1, 0], [1, 1, 0],
                                            [0, 0, 2]])))),
    }
    return {"gates": gates, "report": report}


# ---------------------------------------------------------------------------
# four-level gate list
# ---------------------------------------------------------------------------

W_SPINOR = np.kron(np.array([[1, 1], [1, -1]]) / SQ2, np.eye(2)).astype(
    complex)


# ---------------------------------------------------------------------------
# gate table
# ---------------------------------------------------------------------------

def catalog_at(angle: float) -> list[tuple]:
    """The two-, three- and four-level gates, each family at `angle` (q_gate
    with rho = 0), as rows (group, name, matrix, printed_nonunitary).  A
    printed_nonunitary row is a display kept as printed although it is not
    unitary."""
    return [
        ("su2", "u2_hadamard", u2_hadamard(), False),
        # the printed display fails unitarity for theta != 0
        ("su2", "u2_phased", u2_phased(angle), True),
        ("su2", "u2_rotation", u2_rotation(angle), False),
        ("su2", "u2_not", u2_not(), False),
        ("su2", "u2_half_phased", u2_half_phased(angle), False),
        ("su2", "u2_phase", u2_phase(angle), False),
        ("su3", "d_gate", d_gate(angle), False),
        ("su3", "j_gate", j_gate(angle), False),
        ("su3", "q_gate", q_gate(angle), False),
        ("su3", "propagator_gate", propagator_gate(angle), False),
        ("su3", "n_swap", N_SWAP, False),
        ("su4", "u4_block_swap",
         np.kron(np.array([[0, 1], [1, 0]]), np.eye(2)).astype(complex),
         False),
        ("su4", "u4_pairwise_mix",
         np.array([[1, 0, 1, 0], [1j, 0, -1j, 0],
                   [0, 1, 0, 1], [0, -1j, 0, 1j]]) / SQ2, False),
        ("su4", "u4_block_hadamard_i",
         np.array([[1, -1j, 0, 0], [1, 1j, 0, 0],
                   [0, 0, 1, -1j], [0, 0, 1, 1j]]) / SQ2, False),
        ("su4", "u4_spinor_hadamard",
         np.array([[1, 0, 1, 0], [0, 1, 0, 1],
                   [1, 0, -1, 0], [0, 1, 0, -1]]) / SQ2, False),
        ("su4", "u4_cross_hadamard",
         np.array([[1, 0, 0, 1], [0, 1, 1, 0],
                   [0, 1, -1, 0], [1, 0, 0, -1]]) / SQ2, False),
        # printed with a 1/sqrt(2) prefactor, so its rows have norm sqrt(2)
        ("su4", "u4_sign_pattern",
         np.array([[1, 1, -1, 1], [1, 1, 1, -1],
                   [-1, 1, 1, 1], [1, -1, 1, 1]]) / SQ2, True),
        ("su4", "u4_dft",
         np.array([[1, 1, 1, 1], [1, -1j, -1, 1j],
                   [1, -1, 1, -1], [1, 1j, -1, -1j]]) / 2.0, False),
        ("su4", "u4_cycle_132", np.eye(4)[[0, 3, 1, 2]].astype(complex),
         False),
        ("su4", "u4_swap_34", np.eye(4)[[0, 1, 3, 2]].astype(complex), False),
        ("su4", "w_spinor", W_SPINOR, False),
    ]


# ---------------------------------------------------------------------------
# triangular semigroup
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TriangularElement:
    """Unit upper-triangular 3x3 matrix parameterized by its strictly
    upper entries."""

    a: complex = 0.0
    b: complex = 0.0
    c: complex = 0.0

    def matrix(self) -> np.ndarray:
        return np.array([[1, self.a, self.b],
                         [0, 1, self.c],
                         [0, 0, 1]], dtype=complex)


def tri_ops(A: TriangularElement, Ap: TriangularElement) -> dict:
    """Algebraic record for a pair of unit upper-triangular elements.

    The printed commutator display (b - b')(E13 + E23) conflicts with the
    direct product (a c' - a' c) E13; the direct computation is
    authoritative and the printed form's residual is reported.
    """
    MA, MB = A.matrix(), Ap.matrix()
    product = TriangularElement(A.a + Ap.a, A.b + Ap.b + A.a * Ap.c,
                                A.c + Ap.c)
    square = TriangularElement(2 * A.a, 2 * A.b + A.c * A.a, 2 * A.c)
    comm = MA @ MB - MB @ MA
    comm_direct = np.zeros((3, 3), dtype=complex)
    comm_direct[0, 2] = A.a * Ap.c - Ap.a * A.c
    comm_printed = (A.b - Ap.b) * np.array(
        [[0, 0, 1], [0, 0, 1], [0, 0, 0]], dtype=complex)
    X = MA @ MA - MA                      # strictly upper; [A, X] = 0
    N = MA - np.eye(3)

    def expA(t):
        return np.exp(-1j * t) * (np.eye(3) - 1j * N * t
                                  - 0.5 * (N @ N) * t**2)

    t_probe = 0.83
    # spectral reference: exp of a Jordan block via the terminating series
    # is exact, so compare against a high-order scaled Taylor sum
    ref = np.eye(3)
    term = np.eye(3)
    for n in range(1, 30):
        term = term @ (-1j * t_probe * MA) / n
        ref = ref + term
    return {
        "product": product,
        "product_residual": float(np.max(np.abs(
            MA @ MB - product.matrix()))),
        "square": square,
        "square_residual": float(np.max(np.abs(MA @ MA - square.matrix()))),
        "square_decomp_residual": float(np.max(np.abs(MA @ MA - (MA + X)))),
        "square_decomp_commutes": float(np.max(np.abs(MA @ X - X @ MA))),
        "commutator": comm,
        "commutator_direct_residual": float(np.max(np.abs(
            comm - comm_direct))),
        "commutator_printed_residual": float(np.max(np.abs(
            comm - comm_printed))),
        "commutator_nilpotent": float(np.max(np.abs(comm @ comm))),
        "exponential": expA,
        "exponential_residual": float(np.max(np.abs(expA(t_probe) - ref))),
    }


def tri_ode_solve(A: TriangularElement, x0: Sequence[complex],
                  t: float) -> np.ndarray:
    """Exact solution of dx/dt = A x for unit upper-triangular A.

    Back-substitution upward: x3 = x3(0) e^t, then variation of constants
    for x2 and x1.
    """
    x1, x2, x3 = [complex(v) for v in x0]
    a, b, c = A.a, A.b, A.c
    et = np.exp(t)
    y3 = x3 * et
    y2 = (x2 + c * x3 * t) * et
    y1 = (x1 + (a * x2 + b * x3) * t + 0.5 * a * c * x3 * t**2) * et
    return np.array([y1, y2, y3])


def dimension_identity(n: int) -> bool:
    """n^2 == n + 2 * sum_{j=1}^{n-1} j, in exact integer arithmetic."""
    return n * n == n + 2 * sum(range(1, n))
