"""Dense and matrix-product representations of multi-site operators.

A MatrixProductOperator stores one real 3-axis tensor per site, indexed
(basis index alpha, left bond, right bond), with unit boundary bonds. The
coefficient of a basis string is the ordered product of per-site matrices,

    c(a_1, ..., a_N) = T_1[a_1] T_2[a_2] ... T_N[a_N],

so Hermiticity of the represented operator is built in. Dense operators are
plain complex matrices with site 1 most significant in the index ordering.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .files import (FORMAT_VERSION, read_floats, read_json, require,
                    require_type, write_floats)
from .pauli import SITE_TRANSFORM, coeffs_from_dense, n_sites_of

DENSE_SITE_CAP = 12
# Rows of a dense matrix are checked in blocks of at most this many entries
# (256 KiB of complex), so no check holds a full-size temporary.
_BLOCK_ENTRIES = 1 << 14
# _PHYSICAL[2r + c, a] = P(a)[r, c], the site map of to_dense
_PHYSICAL = SITE_TRANSFORM.conj().T
# Relative cutoff on singular values in the exact conversions.
_SVD_RTOL = 1e-12
_BAND, _STRIDE, _RT2 = 2.0 ** 512, 4, math.sqrt(2.0)  # see _sweep


@dataclass
class DenseOperator:
    """Dense Hermitian operator on n_sites qubits."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        shape = self.matrix.shape
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError(f"matrix must be square and 2-D, not shape "
                             f"{shape}")
        n = self.n_sites
        if n < 1:
            raise ValueError("a dense operator needs at least one site")
        if n > DENSE_SITE_CAP:
            raise ValueError(f"dense operators capped at {DENSE_SITE_CAP} sites")
        m, rows = self.matrix, max(1, _BLOCK_ENTRIES // shape[0])
        blocks = range(0, shape[0], rows)
        if not all(np.isfinite(m[i:i + rows]).all() for i in blocks):
            raise ValueError("operator entries must be finite")
        # max |M - M^H| and max |M| over row blocks: the same entries, so
        # the same numbers as over the whole matrix
        dev = scale = 0.0
        for i in blocks:
            block = m[i:i + rows]
            dev = max(dev, np.max(np.abs(block - m[:, i:i + rows].conj().T)))
            scale = max(scale, np.max(np.abs(block)))
        if dev > 1e-10 * max(1.0, scale):
            raise ValueError(f"matrix is not Hermitian (deviation {dev:.2e})")

    @property
    def n_sites(self) -> int:
        return n_sites_of(self.matrix.shape[0])

    def coeffs(self) -> np.ndarray:
        return coeffs_from_dense(self.matrix)

    def to_dense(self) -> "DenseOperator":
        return self


@dataclass
class MatrixProductOperator:
    """Operator in matrix-product form with real basis-coefficient tensors."""

    tensors: list[np.ndarray]

    def __post_init__(self):
        self.tensors = [np.ascontiguousarray(t, dtype=float) for t in self.tensors]
        if not self.tensors:
            raise ValueError("an MPO needs at least one tensor")
        for i, t in enumerate(self.tensors):
            if t.ndim != 3 or t.shape[0] != 4:
                raise ValueError(f"tensor {i} must have shape (4, Dl, Dr)")
            if i and t.shape[1] != self.tensors[i - 1].shape[2]:
                raise ValueError(f"bond mismatch between sites {i} and {i + 1}")
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
        for site, a in enumerate(alphas, start=1):
            # numpy would take True as 1 and refuse 2.0 with a bare error
            if isinstance(a, bool) or not isinstance(a, (int, np.integer)):
                raise ValueError(f"site {site}: alpha must be an integer, "
                                 f"not {type(a).__name__}")
            if not 0 <= a <= 3:  # numpy would wrap -1 to 3
                raise ValueError(f"site {site}: alpha = {a} out of range 0..3")
        return _value(*_contract(lambda v, t, a: v @ t[a], np.ones((1, 1)),
                                 zip(self.tensors, alphas)))

    def coeffs(self) -> np.ndarray:
        """All 4^N coefficients, packed big-endian: the chain's one
        full-width window. Dense-cap sized."""
        if self.n_sites > DENSE_SITE_CAP:
            raise ValueError("full coefficient vector capped at 12 sites")
        return next(_windows(self, self.n_sites, 1, 1))

    @property
    def trace(self) -> float:
        """2^(N/2) c(identity string), site by site; 0.0 or +-inf off range."""
        return _value(*_contract(_trace_left, np.ones(1), zip(self.tensors)))

    def to_dense(self) -> DenseOperator:
        """The 2^N-square matrix, without the 4^N coefficient vector.

        Each site is the operator sum_a P(a) x T[a]. The first h =
        ceil(N/2) sites contract into L[r, c, D] and the rest into
        R[D, r, c]; each row of L times R fills its rows of the result in
        place, so no array besides the result exceeds 2^h 4^(N - h)
        entries. Dense-cap sized.
        """
        n = self.n_sites
        if n > DENSE_SITE_CAP:
            raise ValueError(f"dense operators capped at {DENSE_SITE_CAP} "
                             "sites")
        h = (n + 1) // 2
        # site[i][Dl, r, c, Dr] = sum_a P(a)[r, c] T_i[a, Dl, Dr]
        site = [(_PHYSICAL @ t.reshape(4, -1)).reshape(
            2, 2, *t.shape[1:]).transpose(2, 0, 1, 3) for t in self.tensors]
        L = np.ones((1, 1, 1), dtype=complex)
        for w in site[:h]:
            (r, c, dl), dr = L.shape, w.shape[3]
            L = np.dot(L.reshape(-1, dl), w.reshape(dl, -1)).reshape(
                r, c, 2, 2, dr).transpose(0, 2, 1, 3, 4).reshape(
                2 * r, 2 * c, dr)
        R = np.ones((1, 1, 1), dtype=complex)
        for w in reversed(site[h:]):
            dr, r, c = R.shape
            dl = w.shape[0]
            R = np.dot(w.reshape(-1, dr), R.reshape(dr, -1)).reshape(
                dl, 2, 2, r, c).transpose(0, 1, 3, 2, 4).reshape(
                dl, 2 * r, 2 * c)
        # Rt[rR, D, cR]; the result's row block of L row rL is
        # out[rR, cL, cR] = sum_D L[rL, cL, D] Rt[rR, D, cR]
        Rt = np.ascontiguousarray(R.transpose(1, 0, 2))
        a, b = 1 << h, 1 << (n - h)
        out = np.empty((1 << n, 1 << n), dtype=complex)
        rows = out.reshape(a, b, a, b)
        for i in range(a):
            np.matmul(L[i], Rt, out=rows[i])
        return DenseOperator(out)


def _rescale_trace(tensors: list[np.ndarray], target: float) -> None:
    """Rescale a chain's site tensors in place so its trace is `target`:
    the trace's 2^-e spread over the sites, each by an exact power of two,
    and the remaining factor on the first site. Raises on a zero trace."""
    tr, e = _contract(_trace_left, np.ones(1), zip(tensors))
    if abs(tr) < 1e-300:
        raise ValueError("cannot rescale an operator with zero trace")
    q, r = divmod(-e, len(tensors))
    for i, t in enumerate(tensors):
        np.ldexp(t, q + (i < r), out=t)
    tensors[0] *= target / tr


def _sweep(step, v, items):
    """Yield (v, e), v * 2^e the value so far, at the boundary and after each
    v = step(v, *item). Every _STRIDE sites v sheds a power of two if its
    squared norm left [1/_BAND, _BAND]: overflow in between needs 2^64/site."""
    e = 0
    yield v, e
    for i, item in enumerate(items, 1):
        v = step(v, *item)
        if not i % _STRIDE and not 1 / _BAND <= (s := np.vdot(v, v)) <= _BAND:
            x = math.frexp(s)[1] // 2
            v, e = np.ldexp(v, -x), e + x
        yield v, e


def _contract(step, v, items):  # (m, e), m * 2^e the result's one entry
    v, e = deque(_sweep(step, v, items), maxlen=1).pop()
    return v.item(0), e


def _value(m: float, e: int) -> float:
    """m * 2^e: 0.0 below the float range, +-inf above it."""
    big = m and math.frexp(m)[1] + e > 1024
    return math.copysign(math.inf, m) if big else math.ldexp(m, e)


def _trace_left(v, t):
    return _RT2 * (v @ t[0])


def identity_environments(mpo: MatrixProductOperator, upto: int,
                          downto: int):
    """Boundary vectors of the network with all sites outside a window traced.

    Returns (left, right) of pairs (v, e) for v * 2^e, v in range on any
    chain: left[k] traces sites 1..k-1 (each as sqrt(2) times its alpha = 0
    slice) and right[k] sites k+1..N; 1-based k. Only left[1..upto] and
    right[downto..N], the entries a sweep of windows reads, are built.
    """
    n = mpo.n_sites
    left, right = [None] * (n + 2), [None] * (n + 2)
    left[1:upto + 1] = _sweep(_trace_left, np.ones(1),
                              zip(mpo.tensors[:upto - 1]))
    right[downto:n + 1] = reversed(list(_sweep(
        lambda v, t: _RT2 * (t[0] @ v), np.ones(1),
        zip(mpo.tensors[downto:][::-1]))))
    return left, right


def _windows(state, width: int, first: int, last: int):
    """Yield window_coeffs(state, k, width) for k = first .. last in turn.

    The one place a window is formed, for either operator type. A dense
    window is the trace over the sites outside it: one einsum on the
    matrix with rows and columns each split into (left, window, right)
    indices, then coeffs_from_dense. For an MPO the identity environments
    the windows read are built once per call and each site tensor is
    reshaped once to a (D_l, 4 D_r) matrix, so a window costs one product
    per site and a sweep over all windows is linear in the chain length. A
    window ending at site N skips the product with its unit right
    boundary, which would only copy the vector. The products are the
    np.dot calls that np.tensordot makes, on the same operands, so every
    vector is bitwise the tensordot contraction. Environment exponents are
    added back once, if not 0; a window beyond the float range overflows.
    """
    if isinstance(state, DenseOperator):
        n, w = state.n_sites, 1 << width
        for k in range(first, last + 1):
            a, b = 1 << (k - 1), 1 << (n - k - width + 1)
            m = state.matrix.reshape(a, w, b, a, w, b)
            yield coeffs_from_dense(np.einsum("aibajb->ij", m))
        return
    n = state.n_sites
    left, right = identity_environments(state, last, first + width - 1)
    mats = {}
    for i in range(first, last + width):
        t = state.tensors[i - 1]
        mats[i] = t.transpose(1, 0, 2).reshape(t.shape[1], -1)
    for k in range(first, last + 1):
        (G, e), (env, f) = left[k], right[k + width - 1]
        for i in range(k, k + width):
            G = np.dot(G.reshape(-1, mats[i].shape[0]), mats[i])
        if k + width - 1 < n:
            G = np.dot(G.reshape(-1, env.shape[0]), env.reshape(-1, 1))
        yield np.ldexp(G.reshape(-1), e + f) if e + f else G.reshape(-1)


def window_coeffs(state, k: int, width: int) -> np.ndarray:
    """Basis coefficients of the reduction onto sites k..k+width-1.

    `state` is a DenseOperator or a MatrixProductOperator. Entry
    pack(a_vec) equals tr[rho_window P-string(a_vec)] where rho_window is
    the partial trace of the represented operator onto the window. For an
    MPO one call builds the identity environments, O(N), and the window
    itself costs O(4^width D^2). For many windows use exact_block_data,
    which builds the environments once.
    """
    if not 1 <= width <= state.n_sites:
        raise ValueError("need 1 <= width <= n_sites")
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


def _overlap(a: MatrixProductOperator, b: MatrixProductOperator):
    if a.n_sites != b.n_sites:
        raise ValueError("operands must share site count")
    return _contract(_transfer, np.ones((1, 1)), zip(a.tensors, b.tensors))


def mpo_overlap(a: MatrixProductOperator, b: MatrixProductOperator) -> float:
    """tr[a b] of two Hermitian networks; 0.0 or +-inf off the float range."""
    return _value(*_overlap(a, b))


def _exact_split(arr: np.ndarray, n_axes: int, tail: int):
    """Factor arr of shape (4^n_axes * tail,) into n_axes site tensors.

    Sequential SVD keeping every singular value above _SVD_RTOL * s_max,
    so the product reproduces arr to numerical accuracy; the final tensor
    carries a right bond of size `tail`.
    """
    tensors = []
    carry = arr.reshape(1, -1)
    for _ in range(n_axes - 1):
        U, s, Vt = np.linalg.svd(carry.reshape(4 * len(carry), -1),
                                 full_matrices=False)
        keep = max(int(np.sum(s > _SVD_RTOL * s[0])), 1)
        tensors.append(U[:, :keep].reshape(len(carry), 4, keep))
        carry = s[:keep, None] * Vt[:keep]
    tensors.append(carry.reshape(len(carry), 4, tail))
    # copies: a one-site split would otherwise be a view of arr
    return [t.transpose(1, 0, 2).copy() for t in tensors]


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
    """Write a DenseOperator or MatrixProductOperator to a JSON file and
    its float64 companion `path.f64` (files.write_floats): one record per
    MPO tensor, or for a dense operator one record of shape (2^N, 2^N, 2)
    holding each entry's [re, im] pair. Refuses, and writes neither file,
    when an entry is not finite, as load_operator would."""
    if isinstance(op, MatrixProductOperator):
        kind, data = "mpo", {"bond_dims": op.bond_dims, "tensors": op.tensors}
    elif isinstance(op, DenseOperator):
        m = np.ascontiguousarray(op.matrix)  # entries: [re, im] in memory
        kind, data = "dense", {"matrix": m.view(float).reshape(*m.shape, 2)}
    else:
        raise TypeError(f"cannot serialize {type(op).__name__}")
    write_floats(path, {"version": FORMAT_VERSION, "kind": kind,
                        "n_sites": op.n_sites, "d": 2, **data})


def load_operator(path: str):
    """Read an operator JSON file and its companion; returns the matching
    container type.

    Each tensor and the matrix is a companion record, or a nested array of
    numbers as written by hand (files.read_floats). Besides the header
    check, rejects an MPO without tensors, tensors or a matrix that are
    neither (a malformed record or companion, or a nested array that is
    not rectangular or holds an entry that is not a number), a matrix
    whose entries are not [re, im] pairs, non-finite entries and an
    `n_sites` (or, for an MPO, a `bond_dims`) field that disagrees with
    the data.
    """
    payload = read_json(path, ("kind", "n_sites"))
    kind = payload["kind"]
    if kind == "mpo":
        require(payload, ("bond_dims", "tensors"), path)
        require_type(payload["tensors"], list, f"{path}: tensors")
        tensors = read_floats(path, {f"tensors[{i}]": t for i, t
                                     in enumerate(payload["tensors"])})
        if not all(np.isfinite(t).all() for t in tensors):
            raise ValueError("operator entries must be finite")
        op = MatrixProductOperator(tensors)
        if payload["bond_dims"] != op.bond_dims:
            raise ValueError(f"bond_dims {payload['bond_dims']!r} "
                             f"disagree with the tensors, {op.bond_dims}")
    elif kind == "dense":
        require(payload, ("matrix",), path)
        raw, = read_floats(path, {"matrix": payload["matrix"]})
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
