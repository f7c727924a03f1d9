"""Verification sweeps and machine-readable report envelopes.

Each sweep re-derives the claims of one module and emits a list of check
records.  A record is `pass`/`fail` against an explicit tolerance, or
`reported-only` for printed values that disagree with the independent
computation — those are recorded with their residual and can never fail
a suite.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field, asdict

import numpy as np

from . import __version__
from . import catalog, gates, special
from .special import RationalFunction

PASS = "pass"
FAIL = "fail"
REPORTED = "reported-only"


@dataclass(frozen=True)
class CheckRecord:
    id: str
    status: str
    residual: float
    tolerance: float | None = None

    def __post_init__(self):
        if self.status not in (PASS, FAIL, REPORTED):
            raise ValueError(f"bad status {self.status!r}")


@dataclass
class ReportEnvelope:
    suite: str
    timestamp: str = field(
        default_factory=lambda: datetime.datetime.now(
            datetime.timezone.utc).isoformat())
    version: str = __version__
    records: list = field(default_factory=list)

    def add(self, id_: str, residual: float, tolerance: float | None = None):
        """Record residual as pass or fail against tolerance, or as
        reported-only when there is no tolerance."""
        residual = float(residual)
        if tolerance is None:
            status = REPORTED
        else:
            status = PASS if residual <= tolerance else FAIL
        self.records.append(CheckRecord(id_, status, residual, tolerance))

    def has_failures(self) -> bool:
        return any(r.status == FAIL for r in self.records)

    def to_dict(self) -> dict:
        return {"suite": self.suite, "timestamp": self.timestamp,
                "version": self.version,
                "records": [asdict(r) for r in self.records]}


def merge(envelopes) -> ReportEnvelope:
    out = ReportEnvelope(suite="all")
    for env in envelopes:
        out.records.extend(env.records)
    return out


# ---------------------------------------------------------------------------
# gates sweep
# ---------------------------------------------------------------------------

def verify_gates() -> ReportEnvelope:
    env = ReportEnvelope(suite="gates")

    for group, name, M, printed_nonunitary in gates.catalog_at(0.4):
        res = gates.verify_unitary(M)
        if printed_nonunitary:
            env.add(f"{group}-nonunitary-{name}-printed", res)
        else:
            env.add(f"{group}-unitary-{name}", res, 1e-12)

    sigma_z = np.diag([1.0, -1.0]).astype(complex)
    env.add("su2-conjugation-to-sigma-z",
            float(np.max(np.abs(gates.conjugation_to_sigma_z(0.37)
                                - sigma_z))), 1e-14)

    # three-level structural identities
    theta = 0.83
    H = gates.elliptic_hamiltonian(theta)
    U_poly = gates.propagator_gate(theta)
    U_exp = (np.eye(3) - 1j * np.sin(theta) * H
             + (np.cos(theta) - 1.0) * (H @ H))
    env.add("su3-propagator-polynomial-form",
            float(np.max(np.abs(U_poly - U_exp))), 1e-12)

    M1, M2, M3, erep = gates.eigenreflections(0.41)
    env.add("eigenreflection-hermiticity", erep["hermiticity"], 1e-12)
    env.add("eigenreflection-projector-M1", erep["projector_form_M1"], 1e-12)
    env.add("eigenreflection-projector-M3", erep["projector_form_M3"], 1e-12)
    env.add("eigenreflection-projector-M2-printed",
            erep["projector_form_M2"])
    env.add("eigenreflection-sum-identity", erep["sum_identity"])

    for family in ("D", "Q", "J"):
        worst = 0.0
        for col in (1, 2, 3):
            res, _ = gates.shift_check(family, col, 0.4, 0.6, 0.3)
            worst = max(worst, res)
        env.add(f"shift-columns-{family}", worst, 1e-12)

    d = gates.dft_checks(0.4)
    env.add("dft-R-unitary", d["R_unitary"], 1e-14)
    env.add("dft-R-fourth-root", d["R_fourth_root"], 1e-14)
    env.add("dft-R-transpose-permutation", d["RtR_permutation"], 1e-14)
    env.add("dft-so3-commutators", max(d["XY_commutator"],
                                       d["XZ_commutator"],
                                       d["YZ_commutator"]), 1e-12)
    env.add("dft-de-moivre-k2", d["de_moivre_k2"], 1e-12)
    env.add("dft-de-moivre-1-minus-j2", d["de_moivre_1_minus_j2"], 1e-12)
    env.add("dft-de-moivre-k3-corrected", d["de_moivre_k3_corrected"], 1e-12)
    env.add("dft-de-moivre-k3-printed", d["de_moivre_k3_printed"])
    env.add("dft-H-W-two-parameter-form", d["HW_two_parameter_form"], 1e-12)
    for key in ("W", "Q", "J"):
        env.add(f"dft-split-{key}-nonunitary-printed",
                d[f"{key}_unitary_residual"])

    qa = gates.quarter_angle_gates(0.3)
    r = qa["report"]
    env.add("quarter-angle-unitarity", r["unitarity"], 1e-12)
    env.add("quarter-angle-Q0-squared", r["Q0_squared"], 1e-12)
    env.add("quarter-angle-D0-squared", r["D0_squared"], 1e-12)
    env.add("quarter-angle-J0-fourth", r["J0_fourth"], 1e-12)
    env.add("quarter-angle-D-commutator-printed", r["D_commutator_printed"])
    env.add("quarter-angle-D-anticommutator-printed",
            r["D_anticommutator_printed"])

    closure = gates.group_closure(gates.dihedral_generators())
    env.add("dihedral-order-six", abs(closure["order"] - 6), 0.5)
    env.add("dihedral-non-abelian", 0.0 if not closure["abelian"] else 1.0,
            0.5)

    A = gates.TriangularElement(0.7, -0.3, 1.1)
    Ap = gates.TriangularElement(-0.4, 0.9, 0.2)
    tri = gates.tri_ops(A, Ap)
    env.add("triangular-product", tri["product_residual"], 1e-12)
    env.add("triangular-square", tri["square_residual"], 1e-12)
    env.add("triangular-square-decomposition",
            max(tri["square_decomp_residual"],
                tri["square_decomp_commutes"]), 1e-12)
    env.add("triangular-nilpotency", tri["commutator_nilpotent"], 1e-12)
    env.add("triangular-exponential", tri["exponential_residual"], 1e-12)
    env.add("triangular-commutator-exact",
            tri["commutator_direct_residual"], 1e-12)
    env.add("triangular-commutator-printed",
            tri["commutator_printed_residual"])

    worst = 0.0
    for n in range(2, 9):
        worst = max(worst, 0.0 if gates.dimension_identity(n) else 1.0)
    env.add("unitary-dimension-identity", worst, 0.5)
    return env


# ---------------------------------------------------------------------------
# special sweep
# ---------------------------------------------------------------------------

def verify_special(seed: int = 42) -> ReportEnvelope:
    env = ReportEnvelope(suite="special")
    rng = np.random.default_rng(seed)

    ep = special.ell_polys()
    polys, rep = ep["polys"], ep["report"]
    env.add("poly-Q-equals-q-plus-P33",
            0.0 if rep["Q_equals_q_plus_P33"] else 1.0, 0.5)
    env.add("poly-b4-of-z2-equals-b1",
            0.0 if rep["b4_of_z2_equals_b1"] else 1.0, 0.5)

    r_bq = special.residue_at_origin(RationalFunction(polys["b_q"],
                                                      polys["r_q"]))
    env.add("residue-bq-exact", abs(float(r_bq["exact"]) - 1.0), 0.0)
    env.add("residue-bq-quadrature", r_bq["agreement"], 1e-10)
    r_bp = special.residue_at_origin(RationalFunction(polys["b_p"],
                                                      polys["r_p"]))
    env.add("residue-bp-exact", abs(float(r_bp["exact"]) - 0.25), 0.0)
    env.add("residue-bp-quadrature", r_bp["agreement"], 1e-10)
    r_bQ = special.residue_at_origin(RationalFunction(polys["b_Q"],
                                                      polys["r_Q"]))
    # printed value -1/2 vs exact computation from the printed coefficients
    env.add("residue-bQ-printed", abs(float(r_bQ["exact"]) - (-0.5)))

    worst = 0.0
    for m in range(65):
        for x in rng.uniform(-1, 1, size=4):
            th = np.arccos(x)
            worst = max(worst, abs(special.cheb_T(m, x) - np.cos(m * th)))
    env.add("chebyshev-trig-definition", worst, 1e-10)
    env.add("chebyshev-ode-residual",
            max(special.cheb_ode_residual(m, 0.3) for m in range(11)), 1e-8)
    env.add("bessel-ode-residual", special.bessel_ode_residual(2, 3.7), 1e-8)

    worst = 0.0
    for n, r in ((0, 1.5), (2, 3.7), (10, 20.0), (32, 50.0)):
        worst = max(worst, abs(special.bessel_J(n, r, 512)
                               - special.bessel_J(n, r, 1024)))
    env.add("bessel-node-doubling", worst, 1e-12)
    env.add("bessel-negative-order-symmetry",
            abs(special.bessel_J(-3, 1.5) + special.bessel_J(3, 1.5)), 1e-10)
    env.add("bessel-inner-product-printed",
            special.bessel_inner_product_probe()["residual"])

    t = 3.0
    C = special.spinwave_lattice_oracle(t)
    mid = C.size // 2
    worst = 0.0
    for dq in range(-10, 11):
        K = special.greens_spinwave(dq, t)
        worst = max(worst, abs(abs(C[mid + dq]) - abs(K)))
    env.add("spinwave-lattice-oracle", worst, 1e-6)
    # printed closed form (-i)^dq J_dq(2t): conjugate phase for odd dq
    env.add("spinwave-closed-form-phase-printed",
            abs(special.greens_spinwave(1, t)
                - (-1j) * special.bessel_J(1, 2 * t)))
    # lattice recursion on the energy-shifted kernel
    h = 1e-5
    worst = 0.0
    for dq in range(-5, 6):
        def Kt(n, tt):
            return np.exp(-2j * tt) * special.greens_spinwave(n, tt)
        dK = (Kt(dq, t + h) - Kt(dq, t - h)) / (2 * h)
        worst = max(worst, abs(1j * dK - (2 * Kt(dq, t)
                                          - Kt(dq + 1, t) - Kt(dq - 1, t))))
    env.add("spinwave-lattice-recursion", worst, 1e-6)
    total = sum(abs(special.greens_spinwave(dq, 2.0)) ** 2
                for dq in range(-32, 33))
    env.add("spinwave-unitarity-sum", abs(total - 1.0), 1e-8)

    worst = max(special.oscillator_ode_residual(z, 0.8)
                for z in np.linspace(-0.9, 0.9, 19))
    env.add("oscillator-first-order-ode", worst, 1e-8)
    env.add("oscillator-second-order-ode",
            special.oscillator_second_order_residual(0.3, 0.8), 1e-6)

    def psi(z):
        return np.exp(0.3j * z) * (1 + 0.5 * z ** 2)
    frame = special.cosine_frame_identities(psi, 1.2)
    env.add("cosine-frame-second-order", max(frame["second_order_forward"],
                                             frame["second_order_inverse"]),
            1e-6)
    env.add("cosine-frame-first-order-corrected",
            frame["first_order_corrected"], 1e-6)
    env.add("cosine-frame-first-order-printed", frame["first_order_printed"])

    L = special.laplace_cos_poly(polys["q"])
    worst = max(abs(L(s) - special.laplace_numeric(polys["q"], s))
                for s in (1.0, 2.5, 7.0))
    env.add("laplace-q-quadrature", worst, 1e-8)
    # printed asymptotic form b_q(s)/s^8 vs exact transform, at s = 10
    env.add("laplace-q-vs-printed-bq-over-s8",
            abs(L(10.0) - polys["b_q"](10.0) / 10.0 ** 8))

    w = special.weighted_integrals()
    env.add("weighted-chebyshev-integral",
            w["chebyshev_weight_relative_error"], 1e-10)
    env.add("weighted-normalization",
            max(w["weight_normalization"].values()), 1e-10)
    env.add("weighted-marginal-matches-printed",
            0.0 if w["marginal_matches_printed"] else 1.0, 0.5)
    env.add("weighted-partial-fraction",
            0.0 if w["partial_fraction_identity"] else 1.0, 0.5)
    env.add("weighted-marginal-limit",
            abs(float(w["marginal_limit"]) + 144.0), 0.0)

    env.add("sec-tan-identity-printed",
            special.sec_tan_identity_probe()["residual"])
    return env


# ---------------------------------------------------------------------------
# catalog sweep
# ---------------------------------------------------------------------------

def verify_catalog(seed: int = 42) -> ReportEnvelope:
    env = ReportEnvelope(suite="catalog")
    scenarios = {name: builder() if name != "su4-heisenberg"
                 else builder(seed=seed)
                 for name, builder in catalog.SCENARIO_BUILDERS.items()}
    reports = catalog.validate_all(list(scenarios.values()))
    for name, rep in zip(scenarios, reports):
        env.add(f"scenario-{name}", rep.max_deviation(), 1e-6)
    # printed minimum-time claim for the two-spin scenario: pi/lambda_x,
    # versus the verified maximal-entanglement time pi/(8 lambda_x)
    extras = scenarios["su4-heisenberg"].extras
    env.add("su4-min-time-printed",
            abs(extras["printed_min_time_claim"] - extras["bell_time"]))
    for n in range(2, 7):
        fam = catalog.family_sun(n, "antidiagonal", seed=seed)
        dev = max(abs(np.trace(fam.H0 @ fam.H0).real / 2.0 - 1.0),
                  float(np.max(np.abs(fam.H0 - fam.H0.conj().T))))
        env.add(f"family-su{n}-structure", dev, 1e-10)
    return env


SUITES = {"gates": verify_gates, "special": verify_special,
          "catalog": verify_catalog}


def run_suite(name: str, seed: int = 42) -> ReportEnvelope:
    """One suite, or all three merged; seed reaches the seeded suites."""
    def run(key):
        return SUITES[key]() if key == "gates" else SUITES[key](seed=seed)

    if name == "all":
        return merge([run(k) for k in ("gates", "special", "catalog")])
    return run(name)
