import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qbrach import catalog, gates
from qbrach.matcore import ValidationError

angles = st.floats(-3.0, 3.0)


class TestTwoLevel:
    def test_hadamard_rotation_orthogonal(self):
        # the printed two-level mixer is the 45-degree real rotation
        H = gates.u2_hadamard()
        assert gates.verify_unitary(H) < 1e-14
        assert np.max(np.abs(H @ H.T - np.eye(2))) < 1e-14
        assert np.max(np.abs(np.linalg.matrix_power(H, 8)
                             - np.eye(2))) < 1e-13

    @given(angles)
    @settings(max_examples=20, deadline=None)
    def test_rotation_unitary(self, chi):
        assert gates.verify_unitary(gates.u2_rotation(chi)) < 1e-12

    def test_phased_display_not_unitary(self):
        assert gates.verify_unitary(gates.u2_phased(0.4)) > 0.1

    @given(angles)
    @settings(max_examples=20, deadline=None)
    def test_conjugation_collapses_to_sigma_z(self, alpha):
        M = gates.conjugation_to_sigma_z(alpha)
        assert np.max(np.abs(M - np.diag([1.0, -1.0]))) < 1e-14


class TestThreeLevel:
    @given(angles)
    @settings(max_examples=20, deadline=None)
    def test_d_gate_diagonalizes(self, chi):
        D = gates.d_gate(chi)
        # curvature cos(chi), torsion sin(chi)
        H = catalog.scenario_frenet(A=1, B=0, C=0, N=1,
                                    eta=1).hamiltonian_at(chi)
        back = D.conj().T @ H @ D
        assert np.max(np.abs(back - gates.L_DIAG)) < 1e-12

    @given(angles)
    @settings(max_examples=20, deadline=None)
    def test_j_gate_diagonalizes_elliptic(self, phi):
        J = gates.j_gate(phi)
        assert np.max(np.abs(J @ gates.L_DIAG @ J.conj().T
                             - gates.elliptic_hamiltonian(phi))) < 1e-12

    def test_propagator_polynomial_entries(self):
        th = 0.83
        H = gates.elliptic_hamiltonian(th)
        ref = (np.eye(3) - 1j * np.sin(th) * H
               + (np.cos(th) - 1.0) * (H @ H))
        assert np.max(np.abs(gates.propagator_gate(th) - ref)) < 1e-12

    def test_n_swap_conjugation(self):
        # the end-swap permutation is unitary and involutive
        N = gates.N_SWAP
        assert np.max(np.abs(N @ N - np.eye(3))) < 1e-14

    def test_eigenreflections(self):
        M1, M2, M3, rep = gates.eigenreflections(0.41)
        assert rep["hermiticity"] < 1e-12
        assert rep["projector_form_M1"] < 1e-12
        assert rep["projector_form_M3"] < 1e-12
        # the printed middle matrix is not of 1 - |v><v| form and the
        # printed sum identity fails by exactly diag(1, 0, 0)
        assert rep["projector_form_M2"] > 0.1
        assert rep["sum_identity"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("family", ["D", "Q", "J"])
    def test_shift_operators(self, family):
        for col in (1, 2, 3):
            res, variant = gates.shift_check(family, col, 0.5, 0.8, 0.2)
            assert res < 1e-12
            assert variant == 0

    def test_shift_rejects_bad_column(self):
        with pytest.raises(ValidationError):
            gates.shift_check("D", 0, 0.5, 0.8)


class TestDft:
    @pytest.fixture(scope="class")
    @staticmethod
    def rep():
        return gates.dft_checks(0.4)

    def test_dft_matrix(self, rep):
        assert rep["R_unitary"] < 1e-14
        assert rep["R_fourth_root"] < 1e-14
        assert rep["RtR_permutation"] < 1e-14

    def test_so3_commutators(self, rep):
        assert max(rep["XY_commutator"], rep["XZ_commutator"],
                   rep["YZ_commutator"]) < 1e-12

    def test_de_moivre(self, rep):
        assert rep["de_moivre_k2"] < 1e-12
        assert rep["de_moivre_1_minus_j2"] < 1e-12
        assert rep["de_moivre_k3_corrected"] < 1e-12
        assert rep["de_moivre_k3_printed"] > 0.1   # printed sign error

    def test_split_dfts_not_unitary(self, rep):
        assert rep["W_unitary_residual"] > 1.0
        assert rep["Q_unitary_residual"] > 1.0
        assert rep["J_unitary_residual"] > 1.0

    def test_hw_seed_conjugation(self, rep):
        assert rep["HW_two_parameter_form"] < 1e-12


class TestQuarterAngle:
    def test_report(self):
        rep = gates.quarter_angle_gates(0.3)["report"]
        assert rep["unitarity"] < 1e-12
        assert rep["Q0_squared"] < 1e-12
        assert rep["D0_squared"] < 1e-12
        assert rep["J0_fourth"] < 1e-12
        assert rep["D_commutator_printed"] > 0.1
        assert rep["D_anticommutator_printed"] > 0.1


class TestDihedral:
    @pytest.fixture(scope="class")
    @staticmethod
    def closure():
        return gates.group_closure(gates.dihedral_generators())

    def test_order_six(self, closure):
        assert closure["order"] == 6

    def test_non_abelian(self, closure):
        assert not closure["abelian"]

    def test_table_closed(self, closure):
        n = closure["order"]
        assert closure["table"].shape == (n, n)
        assert set(np.unique(closure["table"])) <= set(range(n))


class TestFourLevel:
    def test_catalog_unitarity(self):
        rows = gates.catalog_at(0.4)
        assert {group for group, *_ in rows} == {"su2", "su3", "su4"}
        for group, name, M, printed_nonunitary in rows:
            res = gates.verify_unitary(M)
            if printed_nonunitary:
                assert res > 0.1, name
            else:
                assert res < 1e-12, name

    def test_spinor_hadamard_involution(self):
        W = gates.W_SPINOR
        assert np.max(np.abs(W @ W - np.eye(4))) < 1e-14


class TestTriangular:
    def test_ops(self):
        A = gates.TriangularElement(0.7, -0.3, 1.1)
        Ap = gates.TriangularElement(-0.4, 0.9, 0.2)
        rep = gates.tri_ops(A, Ap)
        assert rep["product_residual"] < 1e-12
        assert rep["square_residual"] < 1e-12
        assert rep["square_decomp_residual"] < 1e-12
        assert rep["square_decomp_commutes"] < 1e-12
        assert rep["commutator_direct_residual"] < 1e-12
        assert rep["commutator_nilpotent"] < 1e-12
        assert rep["exponential_residual"] < 1e-12
        assert rep["commutator_printed_residual"] > 0.1

    def test_ode_solution(self):
        A = gates.TriangularElement(0.5, -0.2, 0.9)
        x0 = np.array([1.0, -0.5, 0.3], dtype=complex)
        t = 0.8
        y = gates.tri_ode_solve(A, x0, t)
        # RK4 oracle for dy/dt = A.matrix() y
        M = A.matrix()
        z = x0.copy()
        h = 1e-4
        for _ in range(int(t / h)):
            k1 = M @ z
            k2 = M @ (z + h / 2 * k1)
            k3 = M @ (z + h / 2 * k2)
            k4 = M @ (z + h * k3)
            z = z + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        assert np.max(np.abs(y - z)) < 1e-10


class TestDimensions:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_identity(self, n):
        assert gates.dimension_identity(n)
