"""Dense and matrix-product representations of multi-site operators.

A MatrixProductOperator stores one real 3-axis tensor per site, indexed
(basis index alpha, left bond, right bond), with unit boundary bonds. The
coefficient of a basis string is the ordered product of per-site matrices,

    c(a_1, ..., a_N) = T_1[a_1] T_2[a_2] ... T_N[a_N],

so Hermiticity of the represented operator is built in. Dense operators are
plain complex matrices with site 1 most significant in the index ordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .files import (FORMAT_VERSION, float_array, float_record, read_json,
                    require, require_type, write_json)
from .pauli import coeffs_from_dense, dense_from_coeffs, n_sites_of

DENSE_SITE_CAP = 12
# Relative cutoff on singular values in the exact conversions.
_SVD_RTOL = 1e-12


@dataclass
class DenseOperator:
    """Dense Hermitian operator on n_sites qubits."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        n = self.n_sites
        if n > DENSE_SITE_CAP:
            raise ValueError(f"dense operators capped at {DENSE_SITE_CAP} sites")
        if not np.isfinite(self.matrix).all():
            raise ValueError("operator entries must be finite")
        dev = np.max(np.abs(self.matrix - self.matrix.conj().T))
        if dev > 1e-10 * max(1.0, np.max(np.abs(self.matrix))):
            raise ValueError(f"matrix is not Hermitian (deviation {dev:.2e})")

    @property
    def n_sites(self) -> int:
        return n_sites_of(self.matrix.shape[0])

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def coeffs(self) -> np.ndarray:
        return coeffs_from_dense(self.matrix)

    def to_dense(self) -> "DenseOperator":
        return self


@dataclass
class MatrixProductOperator:
    """Operator in matrix-product form with real basis-coefficient tensors."""

    tensors: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        self.tensors = [np.ascontiguousarray(t, dtype=float) for t in self.tensors]
        for i, t in enumerate(self.tensors):
            if t.ndim != 3 or t.shape[0] != 4:
                raise ValueError(f"tensor {i} must have shape (4, Dl, Dr)")
            if i and t.shape[1] != self.tensors[i - 1].shape[2]:
                raise ValueError(f"bond mismatch between sites {i} and {i + 1}")
        if self.tensors:
            if self.tensors[0].shape[1] != 1 or self.tensors[-1].shape[2] != 1:
                raise ValueError("boundary bonds must have dimension 1")

    @property
    def n_sites(self) -> int:
        return len(self.tensors)

    @property
    def bond_dims(self) -> list[int]:
        """[D_1, ..., D_{N+1}] with D_1 = D_{N+1} = 1."""
        return [self.tensors[0].shape[1]] + [t.shape[2] for t in self.tensors]

    def coefficient(self, alphas) -> float:
        alphas = list(alphas)
        if len(alphas) != self.n_sites:
            raise ValueError("one basis index per site required")
        v = self.tensors[0][alphas[0]]
        for t, a in zip(self.tensors[1:], alphas[1:]):
            v = v @ t[a]
        return float(v[0, 0])

    def coeffs(self) -> np.ndarray:
        """All 4^N coefficients, packed big-endian: the chain's one
        full-width window. Dense-cap sized."""
        if self.n_sites > DENSE_SITE_CAP:
            raise ValueError("full coefficient vector capped at 12 sites")
        return next(_windows(self, self.n_sites, 1, 1))

    @property
    def trace(self) -> float:
        c0 = self.coefficient([0] * self.n_sites)
        return float(2.0 ** (self.n_sites / 2.0) * c0)

    def to_dense(self) -> DenseOperator:
        return DenseOperator(dense_from_coeffs(self.coeffs()))

    def rescaled_trace(self, target: float = 1.0) -> "MatrixProductOperator":
        """Copy with the trace rescaled to `target` (trace must be nonzero)."""
        tr = self.trace
        if abs(tr) < 1e-300:
            raise ValueError("cannot rescale an operator with zero trace")
        tensors = [t.copy() for t in self.tensors]
        tensors[0] = tensors[0] * (target / tr)
        return MatrixProductOperator(tensors)


def identity_environments(mpo: MatrixProductOperator):
    """Boundary vectors of the network with all sites outside a window traced.

    Returns (left, right): left[k] contracts sites 1..k-1 against the
    identity string (each site contributing sqrt(2) times its alpha = 0
    slice), right[k] does the same for sites k+1..N; 1-based k.
    """
    n = mpo.n_sites
    rt = np.sqrt(2.0)
    left = [None] * (n + 2)
    left[1] = np.ones(1)
    for k in range(1, n + 1):
        left[k + 1] = rt * (left[k] @ mpo.tensors[k - 1][0])
    right = [None] * (n + 2)
    right[n] = np.ones(1)
    for k in range(n, 0, -1):
        right[k - 1] = rt * (mpo.tensors[k - 1][0] @ right[k])
    return left, right


def _windows(state, width: int, first: int, last: int):
    """Yield window_coeffs(state, k, width) for k = first .. last in turn.

    The one place a window is formed, for either operator type. A dense
    window is the trace over the sites outside it: one einsum on the
    matrix with rows and columns each split into (left, window, right)
    indices, then coeffs_from_dense. For an MPO the identity environments
    are built once per call and each site tensor is reshaped once to a
    (D_l, 4 D_r) matrix, so a window costs one product per site and a
    sweep over all windows is linear in the chain length. The products are
    the np.dot calls that np.tensordot makes, on the same operands, so
    every vector is bitwise the tensordot contraction.
    """
    if isinstance(state, DenseOperator):
        n, w = state.n_sites, 1 << width
        for k in range(first, last + 1):
            a, b = 1 << (k - 1), 1 << (n - k - width + 1)
            m = state.matrix.reshape(a, w, b, a, w, b)
            yield coeffs_from_dense(np.einsum("aibajb->ij", m))
        return
    left, right = identity_environments(state)
    mats = {}
    for i in range(first, last + width):
        t = state.tensors[i - 1]
        mats[i] = t.transpose(1, 0, 2).reshape(t.shape[1], -1)
    for k in range(first, last + 1):
        G = left[k]
        for i in range(k, k + width):
            G = np.dot(G.reshape(-1, mats[i].shape[0]), mats[i])
        env = right[k + width - 1]
        G = np.dot(G.reshape(-1, env.shape[0]), env.reshape(-1, 1))
        yield G.reshape(-1)


def window_coeffs(state, k: int, width: int) -> np.ndarray:
    """Basis coefficients of the reduction onto sites k..k+width-1.

    `state` is a DenseOperator or a MatrixProductOperator. Entry
    pack(a_vec) equals tr[rho_window P-string(a_vec)] where rho_window is
    the partial trace of the represented operator onto the window. For an
    MPO one call builds the identity environments, O(N), and the window
    itself costs O(4^width D^2). For many windows use exact_block_data,
    which builds the environments once.
    """
    if not 1 <= k <= state.n_sites - width + 1:
        raise ValueError("window out of range")
    return next(_windows(state, width, k, k))


def _transfer(env: np.ndarray, ta: np.ndarray, tb: np.ndarray) -> np.ndarray:
    """One site of an overlap sweep: sum_a ta[a]^T env tb[a].

    The sum over a is the transpose, reshape and np.dot that
    np.tensordot(m, tb, axes=([0, 2], [0, 1])) performs, on the same
    operands, so the result is bitwise tensordot's without the cost of its
    argument handling.
    """
    m = ta.transpose(0, 2, 1) @ env
    return np.dot(m.transpose(1, 0, 2).reshape(m.shape[1], -1),
                  tb.reshape(-1, tb.shape[2]))


def mpo_overlap(a: MatrixProductOperator, b: MatrixProductOperator) -> float:
    """Hilbert-Schmidt inner product tr[a b] of two Hermitian networks."""
    if a.n_sites != b.n_sites:
        raise ValueError("operands must share site count")
    T = np.ones((1, 1))
    for ta, tb in zip(a.tensors, b.tensors):
        T = _transfer(T, ta, tb)
    return float(T[0, 0])


def _exact_split(arr: np.ndarray, n_axes: int, tail: int):
    """Factor arr of shape (4^n_axes * tail,) into n_axes site tensors.

    Sequential SVD keeping every singular value above _SVD_RTOL * s_max,
    so the product reproduces arr to numerical accuracy; the final tensor
    carries a right bond of size `tail`.
    """
    tensors = []
    carry = arr.reshape(1, -1)
    for i in range(n_axes):
        rows = carry.shape[0] * 4
        rest = carry.size // rows
        mat = carry.reshape(rows, rest)
        if i == n_axes - 1 and tail == rest:
            t = mat.reshape(carry.shape[0], 4, rest)
            tensors.append(np.ascontiguousarray(t.transpose(1, 0, 2)))
            return tensors
        U, s, Vt = np.linalg.svd(mat, full_matrices=False)
        keep = int(np.sum(s > _SVD_RTOL * s[0])) if s.size and s[0] > 0 else 1
        keep = max(keep, 1)
        t = U[:, :keep].reshape(carry.shape[0], 4, keep)
        tensors.append(np.ascontiguousarray(t.transpose(1, 0, 2)))
        carry = s[:keep, None] * Vt[:keep]
    return tensors


def mpo_from_coeffs(c: np.ndarray) -> MatrixProductOperator:
    """Exact matrix-product form of a full coefficient vector."""
    c = np.asarray(c, dtype=float)
    n = n_sites_of(c.shape[0], 4)
    return MatrixProductOperator(_exact_split(c, n, 1))


def mpo_from_dense(op: DenseOperator) -> MatrixProductOperator:
    """Exact (numerically lossless) matrix-product form of a dense operator."""
    return mpo_from_coeffs(op.coeffs())


# ---- Serialization ----


def save_operator(op, path: str) -> None:
    """Write a DenseOperator or MatrixProductOperator to a JSON file: one
    float record per MPO tensor, or for a dense operator one record of
    shape (2^N, 2^N, 2) holding each entry's [re, im] pair."""
    if isinstance(op, MatrixProductOperator):
        kind, data = "mpo", {"bond_dims": op.bond_dims,
                             "tensors": [float_record(t) for t in op.tensors]}
    elif isinstance(op, DenseOperator):
        pairs = np.stack([op.matrix.real, op.matrix.imag], -1)
        kind, data = "dense", {"matrix": float_record(pairs)}
    else:
        raise TypeError(f"cannot serialize {type(op).__name__}")
    write_json(path, {"version": FORMAT_VERSION, "kind": kind,
                      "n_sites": op.n_sites, "d": 2, **data})


def load_operator(path: str):
    """Read an operator JSON file; returns the matching container type.

    Each tensor and the matrix is a float record or a nested array of
    numbers (files.float_array). Besides the header check, rejects an MPO
    without tensors, tensors or a matrix that are neither (a malformed
    record, or a nested array that is not rectangular or holds an entry
    that is not a number), a matrix whose entries are not [re, im] pairs,
    non-finite entries and an `n_sites` (or, for an MPO, a `bond_dims`)
    field that disagrees with the data.
    """
    payload = read_json(path, ("kind", "n_sites"))
    kind = payload["kind"]
    if kind == "mpo":
        require(payload, ("bond_dims", "tensors"), path)
        require_type(payload["tensors"], list, f"{path}: tensors")
        tensors = [float_array(t, f"{path}: tensors[{i}]")
                   for i, t in enumerate(payload["tensors"])]
        if not tensors:
            raise ValueError("an MPO needs at least one tensor")
        if not all(np.isfinite(t).all() for t in tensors):
            raise ValueError("operator entries must be finite")
        op = MatrixProductOperator(tensors)
        if payload["bond_dims"] != op.bond_dims:
            raise ValueError(f"bond_dims {payload['bond_dims']!r} "
                             f"disagree with the tensors, {op.bond_dims}")
    elif kind == "dense":
        require(payload, ("matrix",), path)
        raw = float_array(payload["matrix"], f"{path}: matrix")
        if raw.ndim != 3 or raw.shape[-1] != 2:
            raise ValueError(f"{path}: matrix: entries must be [re, im] "
                             "pairs")
        # the [re, im] pairs as complex entries, bit for bit
        op = DenseOperator(raw.view(complex)[..., 0])
    else:
        raise ValueError(f"unknown operator kind {kind!r}")
    if payload["n_sites"] != op.n_sites:
        raise ValueError(f"n_sites {payload['n_sites']!r} disagrees "
                         f"with the data, {op.n_sites}")
    return op
