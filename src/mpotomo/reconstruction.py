"""Recursive reconstruction of a matrix-product operator from window data.

Every expectation of a long basis string can be written as a backward
recursion over the chain: starting from the last r sites, each step solves
a small linear system whose matrices are read directly off the window
expectation vectors. With the per-site solves precomputed, the recursion
IS a matrix-product operator, which this module assembles explicitly:

* site k in the bulk carries the 4 matrices S_k C_k[alpha], with S_k
  the mode's solve operator of B_k (below), where B_k and C_k tabulate
  window expectations with one left group of l sites against right
  groups of r and r + 1 sites;
* the left boundary is the exact sequential factorization of the closing
  window matrix; the right boundary is a chain of index-splitting deltas.

Each bulk site is fixed by its own window alone, so the N - R + 1
per-site solves are independent. They are solved on the caller's thread
in pieces of at most 128 KiB of B. In a piece, one SVD
B W = U diag(s) V^T of the stack of its sites' B and one filter
f(s) = s / (s^2 + lam) above PINV_RTOL * s_max (standard-form Tikhonov:
Hansen, Rank-Deficient and Discrete Ill-Posed Problems, 1998) give each
site's solve operator S = W V f(s) U^T. A solution is x = S e, and the
site tensors are S applied straight to the four alpha blocks of C in one
batched product. Every matrix gets bitwise what it gets alone, so the
estimate and its report do not depend on the size of the pieces.
A mode sets only each site's damping lam and whitening W
(RegularizerSpec); in fisher mode W W^T = P^-1 for a penalty P assembled
from per-window Fisher information. P needs the covariance of B's entries
only, which are the coefficients of the window's first R - 1 sites: it is
the inverse of that marginal's information, whose inverse Cholesky factor
is formed in place by a blocked recursion on halves (numpy alone: every
step above the base blocks is a matrix product).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .files import require_integer, require_real
from .measurement import PauliBlockData, _fisher_matrix
from .operators import (DenseOperator, MatrixProductOperator, _exact_split,
                        _rescale_trace, mpo_from_coeffs)

RANK_RTOL = 1e-9  # numerical rank: singular values above RANK_RTOL * s_max
PINV_RTOL = 1e-10  # every filter is 0 for s at or below PINV_RTOL * s_max
_FACTOR_BASE = 32  # _inverse_factor factors blocks up to this side directly
_PIECE_BYTES = 1 << 17  # the sites are solved in pieces of this much B

# The solver mode for each PauliBlockData.noise_kind (None for exact
# data); reconstruct_mpo applies it unless the config names a regularizer.
NOISE_MODES = {None: "truncated_pinv", "scalar": "tikhonov",
               "fisher": "fisher"}


@dataclass
class RegularizerSpec:
    """Choice of robust linear solver for the per-site systems.

    Every mode applies one filter, s / (s^2 + lam), to the singular values
    s of B W above PINV_RTOL * s_max, and 0 below, so that no solve
    divides by a singular value at rounding level; a mode sets only the
    damping lam and the whitening W (I unless named):
    mode "truncated_pinv": lam = 0, the truncated pseudoinverse.
    mode "tikhonov": lam = sigma2 (0 gives the truncated solve); None (the
    default) means matched to the data's scalar noise:
    reconstruct_mpo sets it to noise_tikhonov_sigma2(sigma, l, r) for the
    split it resolves, and raises on data without scalar noise metadata.
    No other mode takes a sigma2, which is stored as a float.
    mode "fisher": lam = 1 and W W^T = P^-1, which minimizes
    |B x - e|^2 + x^T P x with the penalty P assembled from the data's
    per-window Fisher metadata; if P is not numerically positive definite
    the site is flagged "singular_penalty" and takes lam = 0 and W = I,
    the truncated solve of its own B.
    """

    mode: str = "truncated_pinv"
    sigma2: float | None = None

    def __post_init__(self):
        if self.mode not in NOISE_MODES.values():
            raise ValueError(f"unknown solver mode {self.mode!r}")
        if self.sigma2 is None:
            return
        if self.mode != "tikhonov":
            raise ValueError(f"sigma2 applies to tikhonov mode only, not "
                             f"{self.mode!r}")
        self.sigma2 = require_real(self.sigma2, "sigma2", nonnegative=True)


def default_split(width: int) -> tuple[int, int]:
    """Balanced split l = ceil((width-1)/2), r = floor((width-1)/2)."""
    return width // 2, (width - 1) // 2


@dataclass
class ReconstructionConfig:
    """Window split and solver choice; l and r, where given, are integers,
    and l + r + 1 must equal the data width, with l, r >= 1, or l, r >= 0
    for a single window (N = R). regularizer None takes NOISE_MODES' mode
    for the data's noise kind."""

    l: int | None = None
    r: int | None = None
    regularizer: RegularizerSpec | None = None
    normalize: bool = False

    def resolved(self, width: int, n_sites: int) -> tuple[int, int]:
        l, r = self.l, self.r
        for name, value in (("l", l), ("r", r)):
            if value is not None:
                require_integer(value, name)
        if l is None and r is None:
            l, r = default_split(width)
        elif l is None:
            l = width - 1 - r
        elif r is None:
            r = width - 1 - l
        if l + r + 1 != width:
            raise ValueError(f"l + r + 1 = {l + r + 1} != width {width}")
        lo = 0 if n_sites == width else 1
        if l < lo or r < lo:
            raise ValueError(f"need l >= {lo} and r >= {lo}")
        if n_sites != width and l + r > n_sites - 2:
            raise ValueError("need l + r <= n_sites - 2 (or n_sites == width)")
        return l, r


def _site_matrices(block: np.ndarray, l: int, r: int):
    """(B, C) of the solve at the site after a window's first l sites, or
    the stacks of them for a stack of windows' blocks (..., 4^(l+r+1)).

    C has shape (..., 4^l, 4^(r+1)): left strings on the window's first l
    sites against right strings on its last r + 1. B has shape
    (..., 4^l, 4^r) and is sqrt(2) times C's slice with the window's last
    site fixed to the identity.
    """
    stack = block.shape[:-1]
    C = block.reshape(*stack, 4**l, 4 ** (r + 1))
    B = np.sqrt(2.0) * block.reshape(*stack, 4**l, 4**r, 4)[..., 0]
    return B, C


def noise_tikhonov_sigma2(sigma: float, l: int, r: int) -> float:
    """Tikhonov parameter matching iid noise of unnormalized strength sigma.

    The entries of B then have variance sigma^2 / 2^(l+r); summing the
    variance over the 4^l rows gives sigma^2 * 2^(l - r), which reduces to
    sigma^2 for balanced splits.
    """
    return sigma**2 * 2.0 ** (l - r)


def _solve_operators(B: np.ndarray, reg: RegularizerSpec, penalty):
    """(S, spectra, flags) for the stack B (count, m, n): each matrix's
    solve operator S = W V diag(f(s)) U^T, shape (n, m), so that x = S e
    is the regularized solution of B x = e (RegularizerSpec), its singular
    values (count, min(m, n)) and its list of flags. Every matrix gets
    bitwise what it gets in a stack of its own, which lets reconstruct_mpo
    cut the sites into pieces of any size. fisher mode takes the
    penalties P (count, n, n): one eigh P = Q diag(w) Q^T gives
    W = Q diag(w)^-1/2, and P is not numerically positive definite when
    min(w) <= n * eps * max(w). W is formed in the eigh's Q and f(s) scales
    V^T in place; B W goes after the SVD, and U and V^T before W S, so
    besides B and the penalties at most four arrays of B's size are alive
    at once."""
    count, m, n = B.shape
    flags = [[] for _ in range(count)]
    # the damping of each matrix: one column, broadcast over its spectrum
    lam = np.full((count, 1), {"truncated_pinv": 0.0, "tikhonov": reg.sigma2,
                               "fisher": 1.0}[reg.mode])
    if reg.mode == "fisher":
        P = np.asarray(penalty, dtype=float).reshape(count, n, n)
        if not np.isfinite(P).all():
            raise ValueError("fisher mode needs finite penalty matrices")
        w, W = np.linalg.eigh(P)
        # lam = 0 and W = I where P is not numerically positive definite:
        # the undamped filter on the matrix's own B
        lam *= w[:, :1] > n * np.finfo(float).eps * w[:, -1:]
        for i in np.flatnonzero(lam == 0.0):
            flags[i].append("singular_penalty")
        W[lam[:, 0] == 0.0] = np.eye(n)
        W /= np.sqrt(np.where(lam, w, 1.0))[:, None, :]
        B = B @ W
    U, s, Vt = np.linalg.svd(B, full_matrices=False)
    del B
    # the filter of s 2^-q and lam 2^-2q, times 2^-q: exact, with 2^q the
    # power of two that brings max(s_max, sqrt(lam)) into [1/2, 1), so
    # s^2 + lam neither overflows nor underflows
    q = np.frexp(np.maximum(s[:, :1], np.sqrt(lam)))[1]
    t = np.ldexp(s, -q)
    filt = np.divide(t, t**2 + np.ldexp(lam, -2 * q), out=np.zeros_like(s),
                     where=s > PINV_RTOL * s[:, :1])
    filt = np.ldexp(filt, -q)
    for i in np.flatnonzero((s[:, :1] <= 0.0).all(axis=1)):
        flags[i].append("zero_operator")
    Vt *= filt[:, :, None]  # diag(f(s)) V^T, in V^T's storage
    S = Vt.transpose(0, 2, 1) @ U.transpose(0, 2, 1)
    del U, Vt
    return (W @ S if reg.mode == "fisher" else S), s, flags


def _inverse_factor(A: np.ndarray) -> None:
    """Overwrite the symmetric positive definite A with W = L^-1, where
    A = L L^T: W is lower triangular, with its upper triangle exactly 0.

    On halves, with W11 from the recursion on A11: L21 = A21 W11^T, the
    Schur complement A22 - L21 L21^T gives W22 by the recursion, and
    W21 = -W22 L21 W11. L21^T is kept in the upper block, which ends
    zeroed, so the only scratch array is one product of a quarter of A's
    size. Blocks up to _FACTOR_BASE take numpy's Cholesky factor and
    inverse. Raises LinAlgError when a pivot is not positive, as a
    Cholesky factor of A would.
    """
    n = A.shape[0]
    if n <= _FACTOR_BASE:
        A[...] = np.tril(np.linalg.inv(np.linalg.cholesky(A)))
        return
    h = n // 2
    W11, U, A21, A22 = A[:h, :h], A[:h, h:], A[h:, :h], A[h:, h:]
    _inverse_factor(W11)
    np.matmul(W11, A21.T, out=U)  # L21^T
    A22 -= U.T @ U
    _inverse_factor(A22)
    np.matmul(A22 @ U.T, W11, out=A21)
    np.negative(A21, out=A21)
    U[...] = 0.0


def _fisher_penalty(theta: np.ndarray, shots: np.ndarray, r: int):
    """Penalty P = row-sum of the covariance of B's entries, and flags.

    B's entries are the coefficients sqrt(2) theta[::4] of the window's
    first R - 1 sites, entry (i, j) at i * 4^r + j. Their covariance is
    taken as the inverse of that marginal's information F: _fisher_matrix
    at width R - 1, each marginal setting with the shots of the three
    window settings that extend it (all_settings varies the last site
    fastest). The identity entry has no variance: with its row and column
    pinned to e_0, F is overwritten by W = L^-1, F = L L^T
    (_inverse_factor), and W[0, 0] zeroed leaves W^T W the covariance,
    column c coefficient c. So P[j, j'] = sum_i Cov[B_ij, B_ij'] sums
    W_i^T W_i over the blocks W_i of 4^r columns, from their first row
    that can be nonzero. The marginal information is at most the
    information the whole window holds on B's entries, so P is slightly
    more cautious than the profiled penalty. A factor that fails
    (singular information) gives the scalar fallback tr(F^+) / 4^r, the
    mean column sum of the pseudoinverse variances, from the eigenvalues
    of F evaluated again.
    """
    dim_r = 4**r
    marginal = (np.sqrt(2.0) * theta[::4], shots.reshape(-1, 3).sum(axis=1))
    W = _fisher_matrix(*marginal)
    W[0] = W[:, 0] = 0.0
    W[0, 0] = 1.0
    try:
        _inverse_factor(W)
    except np.linalg.LinAlgError:
        w = np.linalg.eigvalsh(_fisher_matrix(*marginal)[1:, 1:])
        keep = w > 1e-12 * max(w.max(), 1e-300)
        scale = np.sum(1.0 / w[keep]) / dim_r
        return scale * np.eye(dim_r), ["fisher_singular_scalar"]
    W[0, 0] = 0.0
    P = np.zeros((dim_r, dim_r))
    for i in range(0, len(W), dim_r):
        W_i = W[i:, i:i + dim_r]
        P += W_i.T @ W_i
    return P, []


def _data_regularizer(data: PauliBlockData, reg: RegularizerSpec | None,
                      l: int, r: int) -> RegularizerSpec:
    """`reg`, or NOISE_MODES' mode for the data's noise when it is None,
    with a default tikhonov sigma2 matched to the data's scalar noise;
    raises when the data lacks the noise metadata `reg` needs."""
    if reg is None:
        reg = RegularizerSpec(NOISE_MODES[data.noise_kind])
    if reg.mode == "tikhonov" and reg.sigma2 is None:
        if data.sigma is None:
            raise ValueError("tikhonov without sigma2 needs scalar noise "
                             "metadata on the data")
        reg = replace(reg, sigma2=noise_tikhonov_sigma2(data.sigma, l, r))
    if reg.mode == "fisher" and data.shots is None:
        raise ValueError("fisher mode needs fisher noise metadata on the "
                         "data")
    return reg


def _solve_sites(data: PauliBlockData, reg: RegularizerSpec, l: int,
                 r: int) -> list[tuple]:
    """[(tensors, spectra, flags)] of the bulk sites of every window, one
    triple per piece of at most _PIECE_BYTES of B, in site order: the
    piece's site tensors (count, 4, 4^r, 4^r), _solve_operators' singular
    values and each site's flags, penalty flags last. The penalties are
    formed first, before any tensor, and B and S live one piece at a time,
    so that the scratch beside the tensors is one piece's."""
    dim_r = 4**r
    blocks = data.blocks
    # each window's penalty comes from its own Fisher information
    penalties, penalty_flags = None, [[] for _ in blocks]
    if reg.mode == "fisher":
        penalties = np.empty((len(blocks), dim_r, dim_r))
        for i, shots in enumerate(data.shots):
            penalties[i], penalty_flags[i] = _fisher_penalty(blocks[i],
                                                             shots, r)
    step = max(1, _PIECE_BYTES // (8 * 4 ** (l + r)))
    pieces = []
    for start in range(0, len(blocks), step):
        piece = slice(start, start + step)
        B, C = _site_matrices(blocks[piece], l, r)
        S, spectra, flags = _solve_operators(
            B, reg, None if penalties is None else penalties[piece])
        del B
        # Column a * dim_r + j of C is right string j extended by alpha = a:
        # one batched product of each site's S with its four alpha blocks.
        tensors = S[:, None] @ C.reshape(len(S), 4**l, 4, dim_r).transpose(
            0, 2, 1, 3)
        pieces.append((tensors, spectra, [
            f + p for f, p in zip(flags, penalty_flags[piece])]))
    return pieces


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
        # not dataclasses.asdict, which deep-copies every singular value
        return dict(vars(self))


def reconstruct_mpo(data: PauliBlockData,
                    cfg: ReconstructionConfig | None = None,
                    with_report: bool = False):
    """Assemble the matrix-product estimate of the state from window data.

    Bulk site k holds the 4 matrices of its regularized solve, the left
    boundary factorizes the closing window matrix without truncation, and
    the right boundary re-expands the packed recursion index, so every
    coefficient of the network equals the backward recursion's value.
    Bulk bond dimension is 4^r. When the data is a single window, the
    network is that window's exact factorization (report mode "direct").
    Otherwise every bulk site is solved with cfg.regularizer or, when that
    is None, with NOISE_MODES' mode for the data's noise kind (tikhonov
    matched to sigma for scalar noise); the report's mode is the one used.

    The bulk sites are solved on the caller's thread, in pieces of at most
    _PIECE_BYTES of B (_solve_sites); the result does not depend on the
    piece size.

    The report lists, per bulk site, the singular values the filter acted
    on (of B, or of B W in fisher mode) and the flags "zero_operator",
    "singular_penalty" and "fisher_singular_scalar".
    """
    cfg = cfg or ReconstructionConfig()
    n = data.n_sites
    l, r = cfg.resolved(data.width, n)
    site_rows = []
    if n == data.width:
        mode = "direct"
        mpo = mpo_from_coeffs(data.blocks[0])
    else:
        reg = _data_regularizer(data, cfg.regularizer, l, r)
        mode = reg.mode
        dim_r = 4**r
        tensors = _exact_split(
            _site_matrices(data.blocks[0], l, r)[0].reshape(-1), l, dim_r)
        # Window b (0-based) starts at site b + 1 and resolves site
        # k = b + l + 1; the pieces come back in site order.
        pieces = _solve_sites(data, reg, l, r)
        for site_tensors, _, _ in pieces:
            tensors.extend(site_tensors)
        if with_report:
            rows = [row for _, spectra, flags in pieces
                    for row in zip(spectra.tolist(), flags)]
            site_rows = [{"k": b + l + 1, "singular_values": spectrum,
                          "flags": flags}
                         for b, (spectrum, flags) in enumerate(rows)]
        for i in range(1, r + 1):
            dr = 4 ** (r - i)
            # t[a, a * dr + j, j] = 1: split off the next site's index
            tensors.append(np.eye(4 * dr).reshape(4 * dr, 4, dr)
                           .transpose(1, 0, 2))
        mpo = MatrixProductOperator(tensors)
    if cfg.normalize:
        _rescale_trace(mpo.tensors, 1.0)  # the tensors just built, in place
    if with_report:
        return mpo, ReconstructionReport(n, data.width, l, r, mode,
                                         cfg.normalize, site_rows)
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


def _check_split(l, r, n_sites: int) -> None:
    """Reject an l or r that is not an integer, and a split that is not
    1 <= l, r with l + r < n_sites."""
    require_integer(l, "l")
    require_integer(r, "r")
    if l < 1 or r < 1 or l + r > n_sites - 1:
        raise ValueError("need 1 <= l, r with l + r < n_sites")


def check_invertibility_dense(state, l: int, r: int) -> InvertibilityReport:
    """Exact window-rank versus cut-rank comparison on a dense state.

    The state is (l, r)-invertible when, at every cut k in [l, n-r-1], the
    window map built from the reduction onto sites k-l+1 .. k+r has the
    same rank as the full left-against-right expectation matrix at the cut.
    """
    if not isinstance(state, DenseOperator):
        raise TypeError("dense invertibility check needs a DenseOperator")
    n = state.n_sites
    _check_split(l, r, n)
    c = state.coeffs()
    rows = []
    for k in range(l, n - r):
        rank_cut = numerical_rank(c.reshape(4**k, -1))
        # identity strings outside sites k-l+1 .. k+r: the window matrix
        # up to a positive factor, which the relative rank ignores
        window = c.reshape(4 ** (k - l), 4**l, 4**r, -1)[0, :, :, 0]
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
    _check_split(l, r, n)
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
