import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qbrach import special as sp
from qbrach.brach import rk4_step
from qbrach.matcore import ValidationError
from qbrach.special import Polynomial, RationalFunction


small_rationals = st.integers(-9, 9).map(Fraction)


class TestPolynomial:
    def test_trailing_zeros_trimmed(self):
        assert Polynomial([1, 2, 0, 0]).degree == 1

    @given(st.lists(small_rationals, min_size=1, max_size=5),
           st.lists(small_rationals, min_size=1, max_size=5),
           small_rationals)
    @settings(max_examples=40, deadline=None)
    def test_product_evaluates(self, a, b, x):
        pa, pb = Polynomial(a), Polynomial(b)
        assert (pa * pb)(x) == pa(x) * pb(x)

    @given(st.lists(small_rationals, min_size=1, max_size=5),
           st.lists(small_rationals, min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_divmod_reconstructs(self, a, b):
        pa, pb = Polynomial(a), Polynomial(b)
        if pb.is_zero():
            return
        q, r = pa.divmod(pb)
        assert (q * pb + r - pa).is_zero()

    def test_gcd(self):
        a = Polynomial([1, 1]) * Polynomial([-2, 1])
        b = Polynomial([1, 1]) * Polynomial([3, 1])
        assert (sp.poly_gcd(a, b) - Polynomial([1, 1])).is_zero()

    def test_call_on_arrays_is_horner_in_floats(self):
        # the quadratures evaluate P(x) on node arrays: the same Horner loop
        # as np.polyval on the float coefficients, bit for bit
        x = np.linspace(-1.5, 1.5, 1000)
        z = 0.7 * np.exp(2j * np.pi * np.arange(512) / 512)
        for name, P in sp.ell_polys()["polys"].items():
            coeffs = P.as_float_coeffs()[::-1]
            for nodes in (x, z):
                assert np.array_equal(P(nodes), np.polyval(coeffs, nodes)), \
                    name

    def test_rational_reduction(self):
        r = RationalFunction(Polynomial([0, 1, 1]),
                             Polynomial([0, 2, 2])).reduced()
        assert r.numerator.coefficients == (Fraction(1),)
        assert r.denominator.coefficients == (Fraction(2),)


class TestFdDerivative:
    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("x", [0.7, np.array([-1.3, 0.4, 2.0])],
                             ids=["scalar", "array"])
    def test_exact_on_monomials(self, order, x):
        # d^order/dx^order x^d = d!/(d-order)! x^(d-order), zero for d < order
        for d in range(sp.FD_POINTS):
            exact = (math.perm(d, order) * x ** (d - order) if d >= order
                     else 0 * x)
            got = sp.fd_derivative(lambda u: u ** d, x, order)
            assert np.shape(got) == np.shape(x)
            assert got == pytest.approx(exact, rel=1e-9, abs=1e-9), d

    def test_stencil_width_on_a_fast_exponential(self):
        # e^{20x} at step 5e-3 puts the truncation term of an 11-point
        # stencil near 7e-15, of a 9-point one near 2e-11: the monomial
        # test cannot tell the two apart
        x = np.linspace(-0.5, 0.5, 11)
        got = sp.fd_derivative(lambda u: np.exp(20 * u), x, 1)
        exact = 20 * np.exp(20 * x)
        assert np.max(np.abs(got / exact - 1)) < 1e-13

    @pytest.mark.parametrize("order", [0, sp.FD_POINTS])
    def test_order_out_of_range(self, order):
        with pytest.raises(ValidationError, match="derivative order"):
            sp.fd_derivative(np.sin, 0.3, order)


class TestChebyshev:
    @pytest.mark.parametrize("m", [0, 1, 2, 5, 10, 32, 64])
    def test_trig_definition(self, m):
        th = 0.7
        assert sp.cheb_T(m, np.cos(th)) == pytest.approx(np.cos(m * th),
                                                         abs=1e-12)

    def test_U_convention(self):
        th = 1.1
        assert sp.cheb_U(0, np.cos(th)) == 0.0
        assert sp.cheb_U(1, np.cos(th)) == 1.0
        assert sp.cheb_U(5, np.cos(th)) == pytest.approx(
            np.sin(5 * th) / np.sin(th), abs=1e-12)

    def test_T1_is_x(self):
        assert sp.cheb_T(1, 0.37) == pytest.approx(0.37)

    @pytest.mark.parametrize("m", [1, 4, 7, 10])
    def test_ode_residual(self, m):
        assert sp.cheb_ode_residual(m, 0.3) < 1e-8

    def test_order_range(self):
        with pytest.raises(ValidationError):
            sp.cheb_T(65, 0.1)


class TestPeriodicMean:
    @pytest.mark.parametrize("nodes", [1, 7, 32, 64])
    def test_exact_below_the_node_count(self, nodes):
        # the mean of e^{ij theta} is 1 at j = 0 and 0 for 0 < |j| < nodes
        j = np.arange(1 - nodes, nodes)
        got = sp._periodic_mean(lambda th: np.exp(1j * j[:, None] * th),
                                nodes)
        assert got.shape == j.shape
        assert np.max(np.abs(got - (j == 0))) <= 1e-14

    @pytest.mark.parametrize("nodes", [1, 7, 32, 64])
    def test_aliases_at_the_node_count(self, nodes):
        # e^{ij theta} with j a multiple of nodes is constant on the nodes,
        # e^{-ij pi} (1 for an even node count), and so is its mean
        for j in (nodes, -nodes, 2 * nodes):
            got = sp._periodic_mean(lambda th: np.exp(1j * j * th), nodes)
            assert abs(got - np.exp(-1j * j * np.pi)) <= 1e-13


class TestBessel:
    def test_j0_at_zero(self):
        assert sp.bessel_J(0, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_standard_ode_sign(self):
        # radial equation with the (r^2 - n^2) coefficient
        assert sp.bessel_ode_residual(2, 3.7) < 1e-8
        # the printed (n^2 - r^2) variant fails by twice the restoring term
        n, r = 2, 3.7
        d1 = sp.fd_derivative(lambda u: sp.bessel_J(n, u), r, 1)
        d2 = sp.fd_derivative(lambda u: sp.bessel_J(n, u), r, 2)
        printed = abs(r * r * d2 + r * d1
                      + (n * n - r * r) * sp.bessel_J(n, r))
        assert printed > 0.1

    def test_negative_order(self):
        assert sp.bessel_J(-3, 1.5) == pytest.approx(-sp.bessel_J(3, 1.5),
                                                     abs=1e-12)

    def test_range_check(self):
        with pytest.raises(ValidationError):
            sp.bessel_J(33, 1.0)

    @pytest.mark.parametrize("n", [0, 1, 2, -3, 32])
    def test_array_equals_scalar_calls(self, n):
        r = np.linspace(-50.0, 50.0, 589)
        got = sp.bessel_J(n, r)
        assert got.shape == r.shape
        assert np.array_equal(got, [sp.bessel_J(n, x) for x in r.tolist()])

    def test_equals_complex_integrand_mean(self):
        # the quadrature of the printed integrand, e^{-i(n phi - r sin phi)}
        # averaged as complex numbers, bit for bit
        phi = -np.pi + 2 * np.pi * np.arange(512) / 512
        for n in (0, 2, -3):
            for r in (-41.3, -0.7, 3.7, 49.9):
                want = np.mean(np.exp(-1j * (n * phi - r * np.sin(phi)))).real
                assert sp.bessel_J(n, r) == want
                assert sp.bessel_J(n, np.array([r]))[0] == want

    def test_scalar_gives_float(self):
        assert type(sp.bessel_J(2, 3.7)) is float
        assert type(sp.bessel_J(2, np.float64(3.7))) is float

    def test_array_range_check(self):
        with pytest.raises(ValidationError):
            sp.bessel_J(1, np.array([0.0, 3.0, -50.5]))


class TestSpinwave:
    def test_k00_is_one(self):
        assert sp.greens_spinwave(0, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_modulus_matches_closed_form(self):
        for dq in (-4, -1, 0, 2, 7):
            K = sp.greens_spinwave(dq, 2.3)
            assert abs(K) == pytest.approx(abs(sp.bessel_J(dq, 4.6)),
                                           abs=1e-12)

    def test_even_order_phase_matches_printed(self):
        K = sp.greens_spinwave(2, 3.0)
        assert abs(K - (-1j) ** 2 * sp.bessel_J(2, 6.0)) < 1e-12

    def test_unitarity_sum(self):
        total = sum(abs(sp.greens_spinwave(dq, 2.0)) ** 2
                    for dq in range(-32, 33))
        assert total == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("dq, t", [
        (np.arange(-10, 11), 3.0),
        # a (stencil time x dq) grid, as the spin-wave recursion takes it
        (np.arange(-6, 7), (3.0 + 5e-3 * np.arange(-5, 6))[:, None]),
        (3, np.linspace(0.0, 5.0, 7))])
    def test_array_equals_scalar_calls(self, dq, t):
        got = sp.greens_spinwave(dq, t)
        dq, t = np.broadcast_arrays(dq, t)
        assert got.shape == dq.shape
        assert np.array_equal(got.ravel(), [
            sp.greens_spinwave(d, s)
            for d, s in zip(dq.ravel().tolist(), t.ravel().tolist())])

    def test_scalar_gives_complex(self):
        assert type(sp.greens_spinwave(2, 3.0)) is complex

    def test_range_check(self):
        with pytest.raises(ValidationError):
            sp.greens_spinwave(33, 1.0)
        with pytest.raises(ValidationError):
            sp.greens_spinwave(np.array([0, 5, -33]), 1.0)
        with pytest.raises(ValidationError):
            sp.greens_spinwave(np.arange(3)[:, None] * 20, np.ones(4))

    def test_lattice_oracle(self):
        t = 3.0
        C = sp.spinwave_lattice_oracle(t)
        mid = C.size // 2
        K = sp.greens_spinwave(2, t)
        assert abs(abs(C[mid + 2]) - abs(K)) < 1e-6

    @pytest.mark.parametrize("t", [0.5, 3.0])
    def test_lattice_oracle_is_rk4_iterate(self, t):
        # the eigenbasis evaluation equals stepping the chain with rk4_step
        n = sp.LATTICE_SITES
        C = np.zeros(n, dtype=complex)
        C[n // 2] = 1.0

        def rhs(C):
            out = 2.0 * C
            out[:-1] -= C[1:]
            out[1:] -= C[:-1]
            return -1j * out

        steps = round(t / sp.LATTICE_DT)
        for _ in range(steps):
            C = rk4_step(rhs, C, t / steps)
        assert np.max(np.abs(sp.spinwave_lattice_oracle(t) - C)) <= 1e-13

    def test_lattice_oracle_at_zero_is_initial_site(self):
        C = sp.spinwave_lattice_oracle(0.0)
        expected = np.zeros(sp.LATTICE_SITES)
        expected[sp.LATTICE_SITES // 2] = 1.0
        assert np.array_equal(C, expected)

    def test_lattice_oracle_rejects_negative_t(self):
        with pytest.raises(ValidationError):
            sp.spinwave_lattice_oracle(-1.0)

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_lattice_oracle_rejects_nonfinite_t(self, t):
        with pytest.raises(ValidationError):
            sp.spinwave_lattice_oracle(t)


class TestOscillator:
    def test_limit_at_one(self):
        assert sp.oscillator_beta(1 - 1e-12, 0.0) == pytest.approx(1.0,
                                                                   abs=1e-5)

    def test_first_order_ode(self):
        assert sp.oscillator_ode_residual(0.3, 0.8) < 1e-8

    def test_second_order_ode(self):
        assert sp.oscillator_second_order_residual(0.3, 0.8) < 1e-6

    def test_domain(self):
        with pytest.raises(ValidationError):
            sp.oscillator_beta(1.0, 0.5)


class TestCosineFrame:
    def test_linear_test_function(self):
        rep = sp.cosine_frame_identities(lambda z: z + 0j, 1.0)
        assert rep["second_order_forward"] < 1e-8

    def test_cubic_test_function(self):
        rep = sp.cosine_frame_identities(lambda z: z ** 3 + 0j, 1.0)
        assert rep["second_order_forward"] < 1e-6
        assert rep["second_order_inverse"] < 1e-6
        assert rep["first_order_corrected"] < 1e-6
        assert rep["first_order_printed"] > 1e-3   # printed sign error

    def test_pole_guard(self):
        with pytest.raises(ValidationError):
            sp.cosine_frame_identities(lambda z: z + 0j, 0.05)


class TestEllPolys:
    @pytest.fixture(scope="class")
    @staticmethod
    def data():
        return sp.ell_polys()

    def test_sum_identity(self, data):
        assert data["report"]["Q_equals_q_plus_P33"]

    def test_substitution_identity(self, data):
        assert data["report"]["b4_of_z2_equals_b1"]

    def test_degrees(self, data):
        assert data["report"]["deg_q"] == 7
        assert data["report"]["deg_p"] == 4

    def test_printed_sum_coefficients(self, data):
        Q = data["polys"]["q"] + data["polys"]["P33"]
        assert [int(c) for c in Q.coefficients] == [1, -1, -5, 5, 6, -8,
                                                    -4, 4]


class TestRootClassify:
    def test_b3_all_negative_real(self):
        rep = sp.root_classify(sp.ell_polys()["polys"]["b3"])
        assert len(rep["real_neg"]) == 6
        assert not rep["real_pos"] and not rep["complex_roots"]

    def test_b1_structure(self):
        rep = sp.root_classify(sp.ell_polys()["polys"]["b1"])
        assert len(rep["real_pos"]) == 1 and len(rep["real_neg"]) == 1
        assert rep["pure_imag_pairs"] == 3

    def test_b2_structure(self):
        rep = sp.root_classify(sp.ell_polys()["polys"]["b2"])
        n_real = len(rep["real_pos"]) + len(rep["real_neg"])
        assert n_real == 3
        assert len(rep["complex_roots"]) == 4


class TestLaplace:
    def test_constant(self):
        L = sp.laplace_cos_poly(Polynomial([1]))
        assert (L.numerator - Polynomial([1])).is_zero()
        assert (L.denominator - Polynomial([0, 1])).is_zero()

    def test_cos(self):
        L = sp.laplace_cos_poly(Polynomial([0, 1]))
        assert (L.numerator - Polynomial([0, 1])).is_zero()
        assert (L.denominator - Polynomial([1, 0, 1])).is_zero()

    def test_quadrature_cross_check(self):
        q = sp.ell_polys()["polys"]["q"]
        L = sp.laplace_cos_poly(q)
        for s in (1.0, 2.5, 7.0):
            assert abs(L(s) - sp.laplace_numeric(q, s)) < 1e-8

    @pytest.mark.parametrize("s", [1.0, 2.5, 7.0])
    def test_quadrature_at_round_off(self, s):
        # composite Gauss-Legendre is converged: only rounding is left
        q = sp.ell_polys()["polys"]["q"]
        assert abs(sp.laplace_cos_poly(q)(s) - sp.laplace_numeric(q, s)) \
            <= 1e-13


class TestResidues:
    def test_catalogued_values(self):
        p = sp.ell_polys()["polys"]
        assert sp.residue_at_origin(
            RationalFunction(p["b_q"], p["r_q"]))["exact"] == 1
        assert sp.residue_at_origin(
            RationalFunction(p["b_p"], p["r_p"]))["exact"] == Fraction(1, 4)
        assert sp.residue_at_origin(
            RationalFunction(p["b_Q"], p["r_Q"]))["exact"] == Fraction(-1, 32)

    def test_simple_pole(self):
        rep = sp.residue_at_origin(RationalFunction(Polynomial([1]),
                                                    Polynomial([0, 1])))
        assert rep["exact"] == 1
        assert rep["radius"] == 2.0
        assert rep["agreement"] <= 1e-12

    def test_quadrature_agreement(self):
        # double-precision contour on a radius set by the poles
        p = sp.ell_polys()["polys"]
        for num, den, radius in (
                ("b_q", "r_q", 2.0),                    # order 8, no other
                ("b_p", "r_p", 0.5),                    # nearest other at i
                ("b_Q", "r_Q", 0.5)):
            rep = sp.residue_at_origin(RationalFunction(p[num], p[den]))
            assert rep["radius"] == radius, num
            assert rep["agreement"] <= 1e-12, num

    def test_radius_shrinks(self):
        # pole at 0.05 forces the contour inside radius 0.025
        den = Polynomial([0, 1]) * Polynomial([Fraction(-1, 20), 1])
        rep = sp.residue_at_origin(RationalFunction(Polynomial([1]), den))
        assert rep["radius"] <= 0.025 + 1e-12
        assert rep["exact"] == -20
        assert rep["agreement"] <= 1e-12

    def test_radius_capped_far_from_other_poles(self):
        den = Polynomial([0, 1]) * Polynomial([-10, 1])
        rep = sp.residue_at_origin(RationalFunction(Polynomial([1]), den))
        assert rep["radius"] == 2.0
        assert rep["exact"] == Fraction(-1, 10)
        assert rep["agreement"] <= 1e-12

    def test_coincident_poles_rejected(self):
        den = Polynomial([0, 1]) * Polynomial([Fraction(-1, 10**14), 1])
        with pytest.raises(ValidationError, match="cannot separate"):
            sp.residue_at_origin(RationalFunction(Polynomial([1]), den))


class TestWeighted:
    @pytest.fixture(scope="class")
    @staticmethod
    def rep():
        return sp.weighted_integrals()

    def test_chebyshev_weight(self, rep):
        assert rep["chebyshev_weight_relative_error"] < 1e-10

    def test_normalization(self, rep):
        assert max(rep["weight_normalization"].values()) < 1e-10

    def test_marginal_exact(self, rep):
        assert rep["marginal_matches_printed"]
        assert rep["partial_fraction_identity"]

    def test_limit(self, rep):
        assert rep["marginal_limit"] == -144

    def test_moment_ratio_formula(self):
        # ratio of int u^4 W / int W at alpha = 2 equals 3/(5*7) * ... :
        # prod_{i=1..2} (2i-1)/(alpha+2i+1) = (1*3)/(5*7)
        marg = sp.moment_marginal(Polynomial([0, 0, 0, 0, 1]))
        assert marg(Fraction(2)) == Fraction(3, 35)


class TestProbes:
    def test_bessel_inner_product_mismatch(self):
        assert sp.bessel_inner_product_probe()["residual"] > 0.1

    @pytest.mark.parametrize("m", range(-4, 9))
    def test_bessel_probe_nodes_suffice_on_its_range(self, m):
        # the probe takes J from 64 nodes on v in [-pi, pi]; there they
        # agree with bessel_J's default 512 to round-off
        v = np.linspace(-np.pi, np.pi, 20001)
        assert np.max(np.abs(sp.bessel_J(m, v, 64) - sp.bessel_J(m, v))) \
            <= 1e-15

    def test_sec_tan_mismatch(self):
        assert sp.sec_tan_identity_probe()["residual"] > 0.1

    def test_sec_tan_integrals_match_antiderivatives(self):
        a, b = 0.2, 0.9
        sec_a, sec_b = 1 / np.cos(a), 1 / np.cos(b)
        rep = sp.sec_tan_identity_probe(a, b)
        lhs = (np.log((sec_b + np.tan(b)) / (sec_a + np.tan(a)))
               + sec_b - sec_a)
        assert abs(rep["lhs"] - lhs) <= 1e-14
        assert abs(rep["rhs"].real
                   - (np.arccosh(sec_b) - np.arccosh(sec_a))) <= 1e-14

    def test_bessel_probe_quadrature_converged(self):
        # the probe's 64 Gauss-Legendre nodes against 128 of them
        x, w = np.polynomial.legendre.leggauss(128)
        v = np.pi * x
        ref = np.pi * np.sum(w * sp.bessel_J(2, v, 64) ** 2)
        assert abs(sp.bessel_inner_product_probe()["quadrature"] - ref) \
            <= 1e-13
