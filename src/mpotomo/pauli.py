"""Normalized Pauli operator basis and coefficient transforms.

Every site is a qubit: the package has no other local dimension, and the
file readers reject any other. Conventions used throughout the package:

* single-site basis: P(0), P(1), P(2), P(3) = (identity, sigma_x, sigma_y,
  sigma_z) / sqrt(2), orthonormal under tr[P(a) P(b)] = delta_ab;
* multi-site strings are Kronecker products with site 1 leftmost;
* a string (a_1, ..., a_m) is packed into a flat index
  sum_i a_i * 4^(m - i), i.e. big-endian with site 1 most significant;
* Hermitian operators have real coefficient vectors in this basis.
"""

from __future__ import annotations

import numpy as np

from .files import require_integer

_SIGMA_0 = np.eye(2, dtype=complex)
_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

SIGMA = (_SIGMA_0, _SIGMA_X, _SIGMA_Y, _SIGMA_Z)


def pauli_matrix(alpha: int) -> np.ndarray:
    """Normalized single-site basis element P(alpha), 2 x 2."""
    require_integer(alpha, "alpha")
    if not 0 <= alpha < 4:
        raise ValueError(f"alpha = {alpha} out of range 0..3")
    return SIGMA[alpha] / np.sqrt(2.0)


# SITE_TRANSFORM[a, 2r + c] = P(a)[c, r], so (SITE_TRANSFORM @ vec(M))[a] is
# tr[M P(a)]. Rows are orthonormal: the inverse is the conjugate transpose.
SITE_TRANSFORM = np.array([pauli_matrix(a).T.reshape(-1) for a in range(4)])


def n_sites_of(dim: int, base: int = 2) -> int:
    """Number of sites of a base^m dimensional space, validated.

    base is 2 for the rows of a matrix and 4 for a coefficient vector.
    """
    m = int(round(np.log(dim) / np.log(base))) if dim >= 1 else 0
    if base**m != dim:
        raise ValueError(f"dimension {dim} is not a power of {base}")
    return m


def coeffs_from_dense(M: np.ndarray) -> np.ndarray:
    """Coefficient vector c[pack(a_vec)] = tr[M P(a_1) x ... x P(a_m)].

    M must be Hermitian to machine accuracy; the result is returned real.
    """
    m = n_sites_of(M.shape[0])
    # group row/column axes per site: (r1, c1, r2, c2, ...) -> (4,)*m
    T = M.reshape((2,) * (2 * m))
    perm = [ax for i in range(m) for ax in (i, m + i)]
    T = T.transpose(perm).reshape(4, -1)
    # Each pass transforms the leading site and rotates it to the back, so
    # m passes transform every site and restore the order. A pass is the
    # matrix product a per-axis tensordot makes, so results are bitwise
    # those of a tensordot + moveaxis loop.
    for _ in range(m):
        T = (SITE_TRANSFORM @ T).T.reshape(4, -1)
    c = T.reshape(-1)
    if np.max(np.abs(c.imag)) > 1e-10 * max(1.0, np.max(np.abs(c.real))):
        raise ValueError("operator is not Hermitian: complex coefficients")
    return np.ascontiguousarray(c.real)


def dense_from_coeffs(c: np.ndarray) -> np.ndarray:
    """Dense matrix sum_a c[a] P-string(a); inverse of coeffs_from_dense."""
    m = n_sites_of(c.shape[0], 4)
    V = SITE_TRANSFORM.conj().T
    T = np.asarray(c, dtype=complex).reshape(4, -1)
    for _ in range(m):  # as in coeffs_from_dense
        T = (V @ T).T.reshape(4, -1)
    T = T.reshape((2, 2) * m)
    perm = [2 * i for i in range(m)] + [2 * i + 1 for i in range(m)]
    return T.transpose(perm).reshape(2**m, 2**m)


def hermitian_basis(D: int) -> np.ndarray:
    """Orthonormal Hermitian basis of D x D matrices, shape (D^2, D, D).

    tr[H_i H_j] = delta_ij. Used to gauge complex pair-index bonds of an
    operator network into a form where Hermiticity makes tensors real.
    """
    basis = np.zeros((D * D, D, D), dtype=complex)
    n = 0
    for a in range(D):
        basis[n, a, a] = 1.0
        n += 1
    for a in range(D):
        for b in range(a + 1, D):
            basis[n, a, b] = basis[n, b, a] = 1.0 / np.sqrt(2.0)
            n += 1
            basis[n, a, b] = -1.0j / np.sqrt(2.0)
            basis[n, b, a] = 1.0j / np.sqrt(2.0)
            n += 1
    return basis

