import numpy as np
import pytest

import oracles
from oracles import pack_index
from mpotomo.pauli import (coeffs_from_dense, dense_from_coeffs,
                           hermitian_basis, n_sites_of, pauli_matrix)


def test_single_site_matrices_are_normalized():
    for a in range(4):
        P = pauli_matrix(a)
        assert np.allclose(P, oracles.PAULIS[a] / np.sqrt(2))
        assert abs(np.trace(P @ P) - 1.0) < 1e-15


def test_single_site_matrices_are_orthonormal():
    for a in range(4):
        for b in range(4):
            g = np.trace(pauli_matrix(a) @ pauli_matrix(b).conj().T)
            assert abs(g - (a == b)) < 1e-15


def test_string_dense_matches_literal_kron(rng):
    # the dense operator of a single coefficient is its Pauli string
    alphas = [2, 0, 3, 1]
    c = np.zeros(4**4)
    c[pack_index(alphas)] = 1.0
    assert np.allclose(dense_from_coeffs(c), oracles.string_dense(alphas))


def test_pack_index_is_big_endian():
    # site 1 is the most significant digit
    assert pack_index([1, 2]) == 6
    assert pack_index([3, 0, 0]) == 48
    assert pack_index([0, 0, 3]) == 3
    assert tuple(oracles.unpack_index(6, 2)) == (1, 2)
    assert tuple(oracles.unpack_index(48, 3)) == (3, 0, 0)
    for idx in (0, 1, 17, 255):
        assert pack_index(oracles.unpack_index(idx, 4)) == idx


def test_n_sites_of_rejects_non_powers():
    assert n_sites_of(16) == 4
    with pytest.raises(ValueError):
        n_sites_of(12)


@pytest.mark.parametrize("dim", [0, -4])
@pytest.mark.parametrize("base", [2, 4])
def test_n_sites_of_names_a_dimension_below_one(dim, base):
    # no logarithm of zero: once a RuntimeWarning and an OverflowError
    with pytest.raises(ValueError, match=f"dimension {dim} is not a power "
                                         f"of {base}"):
        n_sites_of(dim, base)


@pytest.mark.parametrize("alpha", [-1, 4])
def test_pauli_matrix_names_an_index_out_of_range(alpha):
    with pytest.raises(ValueError, match=f"alpha = {alpha} out of range "
                                         "0..3"):
        pauli_matrix(alpha)


def test_coeffs_of_projector_on_zero_zero():
    # |00><00| = (1/4)(I+Z)(x)(I+Z); in the normalized basis every one of
    # the four surviving strings II, IZ, ZI, ZZ carries weight 1/2
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    c = coeffs_from_dense(rho)
    expected = np.zeros(16)
    expected[[0, 3, 12, 15]] = 0.5
    assert np.allclose(c, expected, atol=1e-14)


def test_coeffs_match_trace_oracle(herm16):
    c = coeffs_from_dense(herm16)
    ref = oracles.all_coeffs_by_trace(herm16, 4)
    assert np.max(np.abs(ref.imag)) < 1e-12
    assert np.allclose(c, ref.real, atol=1e-12)


def test_coeffs_roundtrip_and_parseval(herm16):
    c = coeffs_from_dense(herm16)
    assert c.dtype == np.float64
    back = dense_from_coeffs(c)
    assert np.allclose(back, herm16, atol=1e-12)
    # orthonormal basis: sum of squared coefficients equals tr[M^2]
    assert abs(np.sum(c**2) - np.trace(herm16 @ herm16).real) < 1e-12


@pytest.mark.parametrize("m", range(1, 7))
def test_transforms_bitwise_equal_tensordot_reference(rng, m):
    dim = 2**m
    for _ in range(3):
        A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        M = A + A.conj().T
        c = coeffs_from_dense(M)
        assert np.array_equal(c, oracles.coeffs_from_dense_tensordot(M))
        assert np.array_equal(dense_from_coeffs(c),
                              oracles.dense_from_coeffs_tensordot(c))


def test_coeffs_reject_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        coeffs_from_dense(m)


def test_hermitian_basis_is_orthonormal():
    for D in (2, 3, 4):
        H = hermitian_basis(D)
        assert H.shape == (D * D, D, D)
        for mu in range(D * D):
            assert np.allclose(H[mu], H[mu].conj().T)
            for nu in range(D * D):
                g = np.trace(H[mu] @ H[nu])
                assert abs(g - (mu == nu)) < 1e-14
