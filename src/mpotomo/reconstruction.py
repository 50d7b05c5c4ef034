"""Recursive reconstruction of a matrix-product operator from window data.

Every expectation of a long basis string can be written as a backward
recursion over the chain: starting from the last r sites, each step solves
a small linear system whose matrices are read directly off the window
expectation vectors. With the per-site solves precomputed, the recursion
IS a matrix-product operator, which this module assembles explicitly:

* site k in the bulk carries the d^2 matrices pinv(B_k) C_k[alpha],
  where B_k and C_k tabulate window expectations with one left group of
  l sites against right groups of r and r + 1 sites;
* the left boundary is the exact sequential factorization of the closing
  window matrix; the right boundary is a chain of index-splitting deltas.

The linear solves support plain truncated pseudoinverses, Tikhonov
filtering, and a penalized least-squares mode whose penalty is assembled
from per-window Fisher information (row sums of the covariance of B).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .measurement import PauliBlockData
from .operators import (DenseOperator, MatrixProductOperator, _exact_split,
                        mpo_from_coeffs)
from .pauli import coeffs_from_dense, pack_index, partial_trace

RANK_RTOL = 1e-9  # numerical rank: singular values above RANK_RTOL * s_max

_SOLVER_MODES = ("truncated_pinv", "tikhonov", "fisher")


@dataclass
class RegularizerSpec:
    """Choice of robust linear solver for the per-site systems.

    mode "truncated_pinv": drop singular values below tau * s_max.
    mode "tikhonov": filter factors s / (s^2 + sigma2).
    mode "fisher": solve (B^T B + P) x = B^T e with a symmetric PSD
    penalty P, either given here (one matrix, or one per recursion site)
    or assembled from the data's per-window Fisher metadata.
    """

    mode: str = "truncated_pinv"
    tau: float = 1e-10
    sigma2: float = 0.0
    penalty: dict[int, np.ndarray] | np.ndarray | None = None

    def __post_init__(self):
        if self.mode not in _SOLVER_MODES:
            raise ValueError(f"unknown solver mode {self.mode!r}")
        if not 0.0 <= self.tau < 1.0:
            raise ValueError("tau must lie in [0, 1)")
        if self.sigma2 < 0.0:
            raise ValueError("sigma2 must be nonnegative")


@dataclass
class ReconstructionConfig:
    """Window split and solver choice; l + r + 1 must equal the data width."""

    l: int | None = None
    r: int | None = None
    regularizer: RegularizerSpec = field(default_factory=RegularizerSpec)
    normalize: bool = False

    def resolved(self, width: int, n_sites: int) -> tuple[int, int]:
        l, r = self.l, self.r
        if l is None and r is None:
            l, r = width // 2, (width - 1) // 2
        elif l is None:
            l = width - 1 - r
        elif r is None:
            r = width - 1 - l
        if l + r + 1 != width:
            raise ValueError(f"l + r + 1 = {l + r + 1} != width {width}")
        if n_sites == width:
            return l, r
        if l < 1 or r < 1:
            raise ValueError("need l >= 1 and r >= 1")
        if l + r > n_sites - 2:
            raise ValueError("need l + r <= n_sites - 2 (or n_sites == width)")
        return l, r


def default_split(width: int) -> tuple[int, int]:
    """Balanced split l = ceil((width-1)/2), r = floor((width-1)/2)."""
    return width // 2, (width - 1) // 2


@dataclass
class TransferPair:
    """Window expectation matrices entering the solve at site k.

    B has shape (d^2l, d^2r): left strings on sites k-l..k-1 against right
    strings on k..k+r-1. C has shape (d^2l, d^2(r+1)) and extends the right
    group by site k+r. B equals sqrt(d) times the C submatrix with the last
    site's index fixed to the identity.
    """

    k: int
    B: np.ndarray
    C: np.ndarray


def build_transfer_pair(data: PauliBlockData, k: int, l: int,
                        r: int) -> TransferPair:
    n, d = data.n_sites, data.d
    if l + r + 1 != data.width:
        raise ValueError("l + r + 1 must equal the data width")
    if not l + 1 <= k <= n - r:
        raise ValueError(f"site {k} outside the recursion range")
    d2 = d * d
    v = data.block(k - l)
    C = v.reshape(d2**l, d2 ** (r + 1))
    B = np.sqrt(float(d)) * v.reshape(d2**l, d2**r, d2)[:, :, 0]
    return TransferPair(k, np.ascontiguousarray(B), C)


def noise_tikhonov_sigma2(sigma: float, l: int, r: int, d: int = 2) -> float:
    """Tikhonov parameter matching iid noise of unnormalized strength sigma.

    The entries of B then have variance sigma^2 / d^(l+r); summing the
    variance over the d^2l rows gives sigma^2 * d^(l - r), which reduces to
    sigma^2 for balanced splits.
    """
    return sigma**2 * float(d) ** (l - r)


class _SiteSolver:
    """Factorization of one window matrix B plus the chosen regularization."""

    def __init__(self, B: np.ndarray, reg: RegularizerSpec, penalty=None):
        self.mode = reg.mode
        self.flags: list[str] = []
        U, s, Vt = np.linalg.svd(B, full_matrices=False)
        self.spectrum = s
        if reg.mode == "fisher":
            if penalty is None:
                raise ValueError("fisher mode requires a penalty matrix")
            A = B.T @ B + penalty
            A = (A + A.T) / 2.0
            self._bt = B.T
            try:
                self._cho = scipy.linalg.cho_factor(A)
                self._pinv = None
            except np.linalg.LinAlgError:
                self.flags.append("indefinite_normal_matrix_pinv")
                w, Q = np.linalg.eigh(A)
                keep = w > 1e-14 * max(w.max(), 1e-300)
                inv_w = np.divide(1.0, w, out=np.zeros_like(w), where=keep)
                self._cho = None
                self._pinv = (Q * inv_w) @ Q.T
            return
        if s.size == 0 or s[0] <= 0.0:
            self.flags.append("zero_operator")
            filt = np.zeros_like(s)
        elif reg.mode == "truncated_pinv":
            keep = s > reg.tau * s[0]
            filt = np.zeros_like(s)
            filt[keep] = 1.0 / s[keep]
        else:  # tikhonov
            denom = s**2 + reg.sigma2
            filt = np.divide(s, denom, out=np.zeros_like(s),
                             where=denom > 0.0)
        self._u, self._filt, self._vt = U, filt, Vt

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if self.mode == "fisher":
            b = self._bt @ rhs
            if self._cho is not None:
                return scipy.linalg.cho_solve(self._cho, b)
            return self._pinv @ b
        z = self._u.T @ rhs
        z = z * (self._filt[:, None] if z.ndim == 2 else self._filt)
        return self._vt.T @ z


def robust_solve(B: np.ndarray, e: np.ndarray, reg: RegularizerSpec,
                 penalty=None) -> np.ndarray:
    """Regularized solution of B x = e; see RegularizerSpec for modes."""
    if reg.mode == "fisher" and penalty is None:
        penalty = reg.penalty
        if isinstance(penalty, dict):
            raise ValueError("per-site penalties need a site key; pass the "
                             "matrix directly")
    return _SiteSolver(np.asarray(B, dtype=float), reg, penalty).solve(
        np.asarray(e, dtype=float))


def _fisher_penalties(data: PauliBlockData, l: int, r: int):
    """Per-site penalties P[k] = row-sum of the covariance of B's entries.

    The covariance of the window coefficients is taken as the inverse of
    the per-window Fisher information (identity coefficient fixed), and
    P[j, j'] = sum_i Cov[B_ij, B_ij'] restricted to the columns of B.
    """
    d = data.d
    d2 = d * d
    dim_l, dim_r = d2**l, d2**r
    dim = d2**data.width
    flat = ((np.arange(dim_l)[:, None] * dim_r
             + np.arange(dim_r)[None, :]) * d2).reshape(-1)
    penalties: dict[int, np.ndarray] = {}
    flags: dict[int, list[str]] = {}
    for k in range(l + 1, data.n_sites - r + 1):
        F = data.noise.fisher[k - l - 1]
        flags[k] = []
        cov_full = np.zeros((dim, dim))
        try:
            cf = scipy.linalg.cho_factor((F + F.T) / 2.0)
            cov_full[1:, 1:] = scipy.linalg.cho_solve(cf, np.eye(dim - 1))
            sub = cov_full[np.ix_(flat, flat)].reshape(dim_l, dim_r,
                                                       dim_l, dim_r)
            P = float(d) * np.einsum("ijik->jk", sub)
        except np.linalg.LinAlgError:
            # Singular information: fall back to a scalar penalty built
            # from the pseudoinverse variances of the entries of B.
            flags[k].append("fisher_singular_scalar")
            w, Q = np.linalg.eigh((F + F.T) / 2.0)
            keep = w > 1e-12 * max(w.max(), 1e-300)
            inv_w = np.divide(1.0, w, out=np.zeros_like(w), where=keep)
            var = np.zeros(dim)
            var[1:] = np.einsum("ij,j,ij->i", Q, inv_w, Q)
            var_b = float(d) * var[flat].reshape(dim_l, dim_r)
            P = float(np.mean(var_b.sum(axis=0))) * np.eye(dim_r)
        penalties[k] = (P + P.T) / 2.0
    return penalties, flags


def _prepared_sites(data: PauliBlockData, cfg: ReconstructionConfig):
    l, r = cfg.resolved(data.width, data.n_sites)
    reg = cfg.regularizer
    penalties, pflags = {}, {}
    if reg.mode == "fisher":
        if isinstance(reg.penalty, dict):
            penalties = reg.penalty
        elif reg.penalty is not None:
            penalties = {k: reg.penalty
                         for k in range(l + 1, data.n_sites - r + 1)}
        elif data.noise is not None and data.noise.kind == "fisher":
            penalties, pflags = _fisher_penalties(data, l, r)
        else:
            raise ValueError("fisher mode needs penalty matrices or "
                             "fisher noise metadata on the data")
    pairs, solvers = {}, {}
    for k in range(l + 1, data.n_sites - r + 1):
        pairs[k] = build_transfer_pair(data, k, l, r)
        solvers[k] = _SiteSolver(pairs[k].B, reg, penalties.get(k))
        solvers[k].flags.extend(pflags.get(k, []))
    return l, r, pairs, solvers


def evaluate_recursion(data: PauliBlockData, alphas,
                       cfg: ReconstructionConfig | None = None) -> float:
    """Estimate of a single basis-string coefficient by backward solves."""
    cfg = cfg or ReconstructionConfig()
    alphas = list(alphas)
    n, d = data.n_sites, data.d
    if len(alphas) != n:
        raise ValueError("one basis index per site required")
    if n == data.width:
        return float(data.blocks[0][pack_index(alphas, d)])
    l, r, pairs, solvers = _prepared_sites(data, cfg)
    d2 = d * d
    y = np.zeros(d2**r)
    y[pack_index(alphas[n - r:], d)] = 1.0
    for k in range(n - r, l, -1):
        c3 = pairs[k].C.reshape(d2**l, d2, d2**r)
        y = solvers[k].solve(c3[:, alphas[k - 1], :] @ y)
    row = pack_index(alphas[:l], d)
    return float(pairs[l + 1].B[row] @ y)


@dataclass
class ReconstructionReport:
    n_sites: int
    width: int
    l: int
    r: int
    mode: str
    normalized: bool
    sites: list[dict]

    def to_dict(self) -> dict:
        return {
            "n_sites": self.n_sites, "width": self.width, "l": self.l,
            "r": self.r, "mode": self.mode, "normalized": self.normalized,
            "sites": self.sites,
        }

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1)
            fh.write("\n")


def reconstruct_mpo(data: PauliBlockData,
                    cfg: ReconstructionConfig | None = None,
                    with_report: bool = False):
    """Assemble the matrix-product estimate of the state from window data.

    The result reproduces evaluate_recursion exactly: bulk site k holds the
    d^2 solved matrices, the left boundary factorizes the closing window
    matrix without truncation, and the right boundary re-expands the packed
    recursion index. Bulk bond dimension is d^2r.
    """
    cfg = cfg or ReconstructionConfig()
    n, d = data.n_sites, data.d
    d2 = d * d
    if n == data.width:
        l, r = cfg.resolved(data.width, n)
        mpo = mpo_from_coeffs(data.blocks[0], d)
        if cfg.normalize:
            mpo = mpo.rescaled_trace(1.0)
        if with_report:
            report = ReconstructionReport(n, data.width, l, r,
                                          "direct", cfg.normalize, [])
            return mpo, report
        return mpo
    l, r, pairs, solvers = _prepared_sites(data, cfg)
    dim_r = d2**r
    tensors = _exact_split(pairs[l + 1].B.reshape(-1), l, dim_r, d2)
    site_rows = []
    for k in range(l + 1, n - r + 1):
        # Column a * dim_r + j of C is right string j extended by alpha = a,
        # so one solve gives all d^2 matrices of the site.
        t = solvers[k].solve(pairs[k].C).reshape(dim_r, d2, dim_r)
        tensors.append(t.transpose(1, 0, 2))
        site_rows.append({
            "k": k,
            "singular_values": [float(x) for x in solvers[k].spectrum],
            "flags": list(solvers[k].flags),
        })
    for i in range(1, r + 1):
        dr = d2 ** (r - i)
        t = np.zeros((d2, d2 * dr, dr))
        for a in range(d2):
            t[a, a * dr:(a + 1) * dr, :] = np.eye(dr)
        tensors.append(t)
    mpo = MatrixProductOperator(tensors, d)
    if cfg.normalize:
        mpo = mpo.rescaled_trace(1.0)
    if with_report:
        report = ReconstructionReport(n, data.width, l, r,
                                      cfg.regularizer.mode, cfg.normalize,
                                      site_rows)
        return mpo, report
    return mpo


# ---- Invertibility diagnostics ----


def numerical_rank(mat: np.ndarray) -> int:
    s = np.linalg.svd(mat, compute_uv=False)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.sum(s > RANK_RTOL * s[0]))


@dataclass
class InvertibilityReport:
    l: int
    r: int
    rows: list[dict]

    @property
    def is_invertible(self) -> bool:
        return all(row["ok"] for row in self.rows)

    def to_dict(self) -> dict:
        return {"l": self.l, "r": self.r,
                "is_invertible": self.is_invertible, "rows": self.rows}


def check_invertibility_dense(state, l: int, r: int) -> InvertibilityReport:
    """Exact window-rank versus cut-rank comparison on a dense state.

    The state is (l, r)-invertible when, at every cut k in [l, n-r-1], the
    window map built from the reduction onto sites k-l+1 .. k+r has the
    same rank as the full left-against-right expectation matrix at the cut.
    """
    if not isinstance(state, DenseOperator):
        raise TypeError("dense invertibility check needs a DenseOperator")
    n, d = state.n_sites, state.d
    if l < 1 or r < 1 or l + r > n - 1:
        raise ValueError("need 1 <= l, r with l + r < n_sites")
    d2 = d * d
    c = state.coeffs()
    rows = []
    for k in range(l, n - r):
        cut = c.reshape(d2**k, -1)
        rank_cut = numerical_rank(cut)
        rho_w = partial_trace(state.matrix, range(k - l + 1, k + r + 1), d)
        window = coeffs_from_dense(rho_w, d).reshape(d2**l, d2**r)
        rank_window = numerical_rank(window)
        rows.append({"k": k, "rank_window": rank_window,
                     "rank_cut": rank_cut, "ok": rank_window == rank_cut})
    return InvertibilityReport(l, r, rows)


@dataclass
class SpanReport:
    l: int
    r: int
    rows: list[dict]

    @property
    def sufficient(self) -> bool:
        return all(row["ok"] for row in self.rows)

    def to_dict(self) -> dict:
        return {"l": self.l, "r": self.r, "sufficient": self.sufficient,
                "rows": self.rows}


def _segment_products(mpo: MatrixProductOperator, first: int,
                      last: int) -> np.ndarray:
    """All basis-index products of tensors for sites first..last, flattened
    to one row per string over the segment."""
    G = mpo.tensors[first - 1]
    for s in range(first + 1, last + 1):
        t = mpo.tensors[s - 1]
        G = np.einsum("aij,bjk->abik", G, t, optimize=True)
        G = G.reshape(-1, G.shape[-2], G.shape[-1])
    return G.reshape(G.shape[0], -1)


def check_invertibility_mpo_spans(mpo: MatrixProductOperator, l: int,
                                  r: int) -> SpanReport:
    """Sufficient spanning condition checked on the network tensors.

    At each cut k the products of l tensors to the left and r tensors to
    the right must span the full bond-operator spaces; together with a
    nonzero trace this guarantees (l, r)-invertibility. The check is only
    meaningful on networks with no redundant bond directions, and failure
    does not prove non-invertibility.
    """
    n = mpo.n_sites
    if abs(mpo.trace) <= 1e-12:
        raise ValueError("spanning check requires a nonzero trace")
    if l < 1 or r < 1 or l + r > n - 1:
        raise ValueError("need 1 <= l, r with l + r < n_sites")
    bonds = mpo.bond_dims
    rows = []
    for k in range(l, n - r):
        left = _segment_products(mpo, k - l + 1, k)
        need_left = bonds[k - l] * bonds[k]
        right = _segment_products(mpo, k + 1, k + r)
        need_right = bonds[k] * bonds[k + r]
        rank_left = numerical_rank(left)
        rank_right = numerical_rank(right)
        rows.append({
            "k": k,
            "rank_left": rank_left, "dim_left": need_left,
            "rank_right": rank_right, "dim_right": need_right,
            "ok": rank_left == need_left and rank_right == need_right,
        })
    return SpanReport(l, r, rows)
