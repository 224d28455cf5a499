import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import geomgate
from geomgate.core import (
    CAVITY,
    SIGMA_X,
    HilbertSpace,
    QuantumState,
    _reduced_qubit_rho,
    annihilation,
    embed,
    fock_state,
    ground_state,
    matexp,
    quadrature_x,
)

RNG = np.random.default_rng(20240817)


def _complex_matrix(rows: int, cols: int):
    elems = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
    return hnp.arrays(np.float64, (rows, cols, 2), elements=elems).map(
        lambda a: a[..., 0] + 1j * a[..., 1]
    )


def _random_density(dim: int) -> np.ndarray:
    a = RNG.normal(size=(dim, dim)) + 1j * RNG.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def _displaced_vacuum(d: int, alpha: complex) -> np.ndarray:
    """Test helper: D(α)|0⟩ = exp(αa† − α*a)|0⟩ on a d-level cavity, via matexp."""
    a = annihilation(d)
    return matexp(alpha * a.conj().T - np.conj(alpha) * a) @ fock_state(d, 0)


class TestMatexp:
    def test_zero_matrix(self):
        np.testing.assert_array_equal(matexp(np.zeros((3, 3))), np.eye(3))

    def test_diagonal_case(self):
        thetas = np.array([0.3, -1.2])
        out = matexp(np.diag(1j * thetas))
        np.testing.assert_allclose(out, np.diag(np.exp(1j * thetas)), atol=1e-14)

    def test_xx_rotation_closed_form(self):
        # (sigma_x (x) sigma_x)^2 = I collapses the series to cos/sin terms
        xx = np.kron(SIGMA_X, SIGMA_X)
        theta = math.pi / 4.0
        expected = math.cos(theta) * np.eye(4) - 1j * math.sin(theta) * xx
        np.testing.assert_allclose(matexp(-1j * theta * xx), expected, atol=1e-14)

    def test_rejects_generators_that_are_not_anti_hermitian(self):
        # a non-normal matrix, a non-zero Hermitian one and a NaN: none is -iH
        m = np.array([[0.1, 0.3 + 0.2j], [0.0, -0.1j]])
        for a in (m, SIGMA_X, np.full((2, 2), np.nan)):
            with pytest.raises(ValueError, match="anti-Hermitian"):
                matexp(a)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            matexp(np.ones((2, 3)))

    @settings(max_examples=25, deadline=None)
    @given(m=_complex_matrix(4, 4), t=st.floats(0.1, 10.0))
    def test_unitarity_for_hermitian_generators(self, m, t):
        h = 0.5 * (m + m.conj().T)
        norm = np.linalg.norm(h, 2)
        if norm * t > 50.0:
            t = 50.0 / norm
        u = matexp(-1j * t * h)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-10)


class TestAnnihilation:
    def test_two_levels(self):
        np.testing.assert_array_equal(annihilation(2), [[0.0, 1.0], [0.0, 0.0]])

    def test_lowers_fock_two(self):
        out = annihilation(3) @ fock_state(3, 2)
        np.testing.assert_allclose(out, math.sqrt(2.0) * fock_state(3, 1), atol=1e-15)

    def test_truncated_commutator(self):
        a = annihilation(5)
        comm = a @ a.conj().T - a.conj().T @ a
        np.testing.assert_allclose(comm, np.diag([1.0, 1.0, 1.0, 1.0, -4.0]), atol=1e-13)

    @pytest.mark.parametrize("d", [0, 1])
    def test_rejects_tiny_truncation(self, d):
        with pytest.raises(ValueError):
            annihilation(d)


class TestEmbed:
    def test_identity_case(self):
        space = HilbertSpace(2, 3)
        np.testing.assert_array_equal(embed(np.eye(2, dtype=complex), 1, space), np.eye(12))

    def test_qubit_one_basis_action(self):
        # qubit 1 is the most significant factor: X on it maps |00> to |10>
        space = HilbertSpace(2, 1)
        psi = np.zeros(4, dtype=complex)
        psi[0] = 1.0
        out = embed(SIGMA_X, 1, space) @ psi
        expected = np.zeros(4, dtype=complex)
        expected[2] = 1.0
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_qubit_two_basis_action(self):
        space = HilbertSpace(2, 1)
        psi = np.zeros(4, dtype=complex)
        psi[0] = 1.0
        out = embed(SIGMA_X, 2, space) @ psi
        expected = np.zeros(4, dtype=complex)
        expected[1] = 1.0
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_cavity_site_matches_kron(self):
        space = HilbertSpace(1, 3)
        np.testing.assert_array_equal(
            embed(annihilation(3), CAVITY, space),
            np.kron(np.eye(2, dtype=complex), annihilation(3)),
        )

    def test_rejects_wrong_dimensions(self):
        space = HilbertSpace(2, 3)
        with pytest.raises(ValueError):
            embed(np.eye(3), 1, space)
        with pytest.raises(ValueError):
            embed(np.eye(2), CAVITY, space)
        with pytest.raises(ValueError):
            embed(np.eye(2), 3, space)
        with pytest.raises(ValueError):
            embed(np.eye(2), 0, space)

    @settings(max_examples=25, deadline=None)
    @given(a=_complex_matrix(2, 2), b=_complex_matrix(2, 2))
    def test_commutes_with_products_on_a_site(self, a, b):
        space = HilbertSpace(2, 3)
        np.testing.assert_allclose(
            embed(a @ b, 1, space), embed(a, 1, space) @ embed(b, 1, space), atol=1e-12
        )


class TestPartialTraceCavity:
    def test_pure_cavity_product_state(self):
        space = HilbertSpace(2, 3)
        rho_q = _random_density(4)
        cav = np.zeros((3, 3), dtype=complex)
        cav[0, 0] = 1.0
        state = QuantumState(space, np.kron(rho_q, cav))
        np.testing.assert_allclose(_reduced_qubit_rho(state.rho, 2, 3), rho_q, atol=1e-14)

    def test_mixed_cavity_product_state(self):
        space = HilbertSpace(2, 3)
        rho_q = _random_density(4)
        cav = np.diag([0.5, 0.5, 0.0]).astype(complex)
        state = QuantumState(space, np.kron(rho_q, cav))
        np.testing.assert_allclose(_reduced_qubit_rho(state.rho, 2, 3), rho_q, atol=1e-14)

    def test_maximally_entangled_qubit_cavity(self):
        space = HilbertSpace(1, 2)
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1.0 / math.sqrt(2.0)  # (|0>|0> + |1>|1>)/sqrt(2)
        rho = np.outer(psi, psi.conj())
        # explicit sum over cavity indices as the oracle
        expected = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                for n in range(2):
                    expected[i, j] += rho[2 * i + n, 2 * j + n]
        np.testing.assert_allclose(expected, np.eye(2) / 2.0, atol=1e-15)
        np.testing.assert_allclose(
            _reduced_qubit_rho(QuantumState(space, rho).rho, 1, 2), expected, atol=1e-14
        )

    def test_trace_preserving_and_linear(self):
        rho1, rho2 = _random_density(8), _random_density(8)
        pt = lambda r: _reduced_qubit_rho(r, 1, 4)
        assert abs(np.trace(pt(rho1)) - np.trace(rho1)) < 1e-10
        np.testing.assert_allclose(
            pt(0.3 * rho1 + 0.7 * rho2), 0.3 * pt(rho1) + 0.7 * pt(rho2), atol=1e-12
        )


class TestExpectation:
    def test_displaced_vacuum_quadrature(self):
        # <x> of D(alpha)|0> equals sqrt(2) Re(alpha) well inside the truncation
        alpha = 0.5
        psi = _displaced_vacuum(16, alpha)
        val = np.vdot(psi, quadrature_x(16) @ psi)
        assert val.real == pytest.approx(math.sqrt(2.0) * alpha, abs=1e-10)
        assert abs(val.imag) < 1e-12


class TestHilbertSpace:
    def test_dimensions(self):
        space = HilbertSpace(3, 5)
        assert space.qubit_dim == 8
        assert space.dim == 40

    def test_cavity_only_space(self):
        assert HilbertSpace(0, 7).dim == 7

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            HilbertSpace(-1, 4)
        with pytest.raises(ValueError):
            HilbertSpace(2, 0)


class TestQuantumState:
    def test_accepts_valid_state(self):
        space = HilbertSpace(1, 3)
        state = QuantumState(space, _random_density(6))
        assert state.rho.shape == (6, 6)

    def test_from_pure_builds_projector(self):
        space = HilbertSpace(1, 2)
        psi = ground_state(space)
        state = QuantumState.from_pure(space, psi)
        np.testing.assert_allclose(state.rho, np.outer(psi, psi.conj()), atol=1e-15)

    def test_rejects_unnormalized_trace(self):
        space = HilbertSpace(1, 2)
        with pytest.raises(ValueError, match="trace"):
            QuantumState(space, np.eye(4, dtype=complex))

    def test_rejects_non_hermitian(self):
        space = HilbertSpace(1, 2)
        rho = np.eye(4, dtype=complex) / 4.0
        rho[0, 1] = 0.1
        with pytest.raises(ValueError, match="Hermit"):
            QuantumState(space, rho)

    def test_rejects_negative_eigenvalue(self):
        space = HilbertSpace(1, 1)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            QuantumState(space, np.diag([1.5, -0.5]).astype(complex))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            QuantumState(HilbertSpace(1, 3), np.eye(4, dtype=complex) / 4.0)

    def test_from_pure_requires_normalization(self):
        space = HilbertSpace(1, 2)
        with pytest.raises(ValueError, match="norm"):
            QuantumState.from_pure(space, np.ones(4))


def test_public_names_resolve():
    assert [name for name in geomgate.__all__ if not hasattr(geomgate, name)] == []
