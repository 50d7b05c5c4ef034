"""Block expectation data, measurement simulation, and local estimation.

The central container holds, for every window of `width` consecutive sites,
the full vector of normalized basis-string expectations of the state's
reduction onto that window. Exact vectors come from operators._windows, the
one window kernel for dense and matrix-product states; synthetic noisy
vectors come either from Gaussian perturbations of the exact values or from
simulated projective counts pushed through a local maximum-likelihood
estimator. A window's counts are one (3^width, 2^width) integer array, rows
in all_settings order.
Two read-only tables, built once per width, spell that layout out: the
label table (_labels) of setting and outcome strings, which simulation and
the counts files read, and the design table (_design) of the likelihood
fit and the Fisher information, which the counts files never build.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from collections import namedtuple
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .files import (FORMAT_VERSION, read_floats, read_json, require,
                    require_integer, require_real, require_type,
                    write_floats, write_json)
from .operators import (DENSE_SITE_CAP, DenseOperator,
                        MatrixProductOperator, _require_width, _windows)
from .pauli import coeffs_from_dense, dense_from_coeffs, n_sites_of

# ---- Block data container ----


@dataclass
class PauliBlockData:
    """Normalized basis expectations for every width-site window.

    blocks[b] is the coefficient vector of the reduction onto sites
    b+1 .. b+width (1-based), packed big-endian, length 4^width; width,
    n_blocks and n_sites are read off its shape. With sigma, iid Gaussian
    noise of standard deviation sigma was added to the unnormalized
    expectations (sigma / sqrt(2^width) per normalized entry); with shots,
    window b was fitted from shots[b, j] shots of setting j of
    all_settings; sigma is stored as a float. Construction rejects a shape
    other than (n_blocks, 4^width) with both at least 1, non-finite
    blocks, a sigma that is not a finite, nonnegative real number (a bool
    among them), shots that are not nonnegative integers of
    shape (n_blocks, 3^width), and both sigma and shots.
    """

    blocks: np.ndarray
    sigma: float | None = None
    shots: np.ndarray | None = None

    def __post_init__(self):
        if self.sigma is not None and self.shots is not None:
            raise ValueError("window data carries sigma or shots, not both")
        # before the blocks, which add_gaussian_noise draws with sigma
        if self.sigma is not None:
            self.sigma = require_real(self.sigma, "scalar noise sigma",
                                      nonnegative=True)
        self.blocks = np.asarray(self.blocks, dtype=float)
        shape = self.blocks.shape
        rows, cols = shape if len(shape) == 2 else (0, 0)
        width = (cols.bit_length() - 1) // 2
        if rows < 1 or width < 1 or cols != 4**width:
            raise ValueError(f"blocks must have shape (n_blocks, 4^R) with "
                             f"n_blocks, R >= 1, not {shape}")
        if not np.all(np.isfinite(self.blocks)):
            raise ValueError("blocks must be finite")
        if self.shots is not None:
            self.shots = np.asarray(self.shots)
            if self.shots.dtype.kind not in "iu" or np.any(self.shots < 0):
                raise ValueError("fisher noise requires shots that are "
                                 "nonnegative integers")
            if self.shots.shape != (rows, 3**width):
                raise ValueError(f"fisher shots must have shape "
                                 f"{(rows, 3**width)}")

    @property
    def width(self) -> int:
        return n_sites_of(self.blocks.shape[1], 4)

    @property
    def n_blocks(self) -> int:
        return self.blocks.shape[0]

    @property
    def n_sites(self) -> int:
        return self.n_blocks + self.width - 1

    @property
    def noise_kind(self) -> str | None:
        """None for exact data, "scalar" with sigma, "fisher" with shots."""
        return ("scalar" if self.sigma is not None
                else None if self.shots is None else "fisher")


def exact_block_data(state, width: int) -> PauliBlockData:
    """Exact window expectations of a dense or matrix-product state.

    One sweep of operators._windows: for a matrix-product state the
    identity environments are built once, so extraction is linear in the
    chain length and costs O(4^width D^2) per window.
    """
    if not isinstance(state, (DenseOperator, MatrixProductOperator)):
        raise TypeError(f"unsupported state type {type(state).__name__}")
    n = state.n_sites
    _require_width(width, n)
    blocks = np.empty((n - width + 1, 4**width))
    for b, vector in enumerate(_windows(state, width, 1, n - width + 1)):
        blocks[b] = vector
    return PauliBlockData(blocks)


def add_gaussian_noise(data: PauliBlockData, sigma: float, seed=None,
                       perturb_identity: bool = True) -> PauliBlockData:
    """Add iid N(0, sigma) noise in the unnormalized string convention.

    Normalized entries receive standard deviation sigma / sqrt(2^width).
    With perturb_identity=False the identity-string entries are left exact,
    preserving the declared trace. sigma must be finite and nonnegative
    (PauliBlockData rejects it otherwise).
    """
    rng = np.random.default_rng(seed)
    scale = sigma / np.sqrt(2.0 ** data.width)
    # in place, with no temporaries: bitwise data.blocks + scale * z
    noisy = rng.standard_normal(data.blocks.shape)
    noisy *= scale
    noisy += data.blocks
    if not perturb_identity:
        noisy[:, 0] = data.blocks[:, 0]
    return PauliBlockData(noisy, sigma=sigma)


# ---- Projective measurement simulation ----


@dataclass
class CountsBlock:
    """Projective counts of the window starting at 1-based site k.

    counts is a (3^width, 2^width) integer array: row j is the histogram
    of setting j of all_settings(width) over the 2^width outcomes, indexed
    big-endian with bit 0 for the +1 eigenvalue on a site. A zero row is a
    setting that was not measured. width is read off the array's shape.
    Construction rejects a k below 1, counts of any other shape (R >= 1),
    counts that are not integers and negative counts.
    """

    k: int
    counts: np.ndarray

    def __post_init__(self):
        require_integer(self.k, "window start k")
        if self.k < 1:
            raise ValueError(f"window start k must be at least 1, not "
                             f"{self.k}")
        self.counts = np.asarray(self.counts)
        shape = self.counts.shape
        width = shape[1].bit_length() - 1 if len(shape) == 2 else 0
        if width < 1 or shape != (3**width, 2**width):
            raise ValueError(f"counts must have shape (3^R, 2^R) with "
                             f"R >= 1, not {shape}")
        if self.counts.dtype.kind not in "iu":
            raise ValueError(f"counts must be integers, not "
                             f"{self.counts.dtype}")
        if np.any(self.counts < 0):
            raise ValueError("counts must be nonnegative")

    @property
    def width(self) -> int:
        return n_sites_of(self.counts.shape[1])


_Labels = namedtuple("_Labels", "settings row axes outcomes index")


@functools.lru_cache(maxsize=None)
def _labels(width: int) -> _Labels:
    """The label table of width-site windows, shared by every caller, so
    read-only: the 3^width setting strings (last site fastest), each one's
    row, axes[j, i] the axis of site i in setting j (0, 1, 2 for x, y, z,
    its Pauli label minus one), the 2^width outcome strings in index order
    ("+" for bit 0) and each one's index."""
    place = 3 ** np.arange(width - 1, -1, -1)
    # int8 keeps axes at 6 MB at width 12, the widest counts file
    axes = (np.arange(3**width)[:, None] // place % 3).astype(np.int8)
    axes.setflags(write=False)
    settings = tuple(map("".join, itertools.product("xyz", repeat=width)))
    outcomes = tuple(map("".join, itertools.product("+-", repeat=width)))
    row, index = (MappingProxyType(dict(zip(t, itertools.count())))
                  for t in (settings, outcomes))
    return _Labels(settings, row, axes, outcomes, index)


def all_settings(width: int) -> list[str]:
    return list(_labels(width).settings)


# The basis change to each measured axis, stacked in x, y, z order.
_BASES = np.stack([np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0),
                   np.array([[1.0, -1.0j], [1.0, 1.0j]]) / np.sqrt(2.0),
                   np.eye(2)])


_Workspace = namedtuple("_Workspace", "levels rows buf")


def _workspace(n: int, width: int) -> _Workspace:
    """Buffers for batches of up to n settings of width-site windows:
    levels[l - 1] takes Kronecker level l (the product of the first l + 1
    site factors) as (n, 2^l, 2, 2^l, 2), rows the conjugate unitaries and
    buf the matmul output. A smaller batch uses their leading rows."""
    dim = 1 << width
    return _Workspace(
        [np.empty((n, 1 << lvl, 2, 1 << lvl, 2), dtype=complex)
         for lvl in range(1, width)],
        np.empty((n, dim, 1, dim), dtype=complex),
        np.empty((n, dim, dim), dtype=complex))


def _setting_unitaries(axes: np.ndarray,
                       work: _Workspace | None = None) -> np.ndarray:
    """Stack of the Kronecker unitaries of the settings whose site axes
    are the rows of axes (as in _labels), written into work's levels (a
    fresh _workspace without it). Each level is four strided multiplies,
    one per entry of the new site factor, whose inner loops run over whole
    rows of the level before. The per-site factors are multiplied left to
    right in np.kron's order, so each unitary is bitwise the np.kron chain
    of its factors."""
    n, width = axes.shape
    levels = (work or _workspace(n, width)).levels
    factors = _BASES[axes]
    u = factors[:, 0]
    for out, f in zip(levels, factors.transpose(1, 0, 2, 3)[1:]):
        out = out[:n]
        for p, q in itertools.product(range(2), repeat=2):
            np.multiply(u, f[:, p, q, None, None], out=out[:, :, p, :, q])
        u = out.reshape(n, 2 * u.shape[1], 2 * u.shape[2])
    return u


def _probabilities(rhos, u: np.ndarray,
                   work: _Workspace | None = None) -> np.ndarray:
    """Outcome distributions diag(u rho u^dagger) of every window density
    in `rhos` under every unitary of the stack u, clipped at zero and
    normalized, shape (windows, settings, outcomes). The conjugate rows
    and the matmul output go to work's buffers (fresh ones without it):
    one serves every window, and simulate_counts' every batch.

    The two matmuls are the contraction einsum("ij,jk,ik->i", u, rho,
    u.conj(), optimize=True) performs: t = (rho^T u^T)^T, then each row of
    conj(u) dotted with the matching row of t. With numpy 2.4 the result
    is bitwise that einsum's.
    """
    n, dim = u.shape[:2]
    work = work or _workspace(n, dim.bit_length() - 1)
    ut = u.transpose(0, 2, 1)
    rows = np.conjugate(u[:, :, None, :], out=work.rows[:n])
    buf = work.buf[:n]
    t = buf.transpose(0, 2, 1)[:, :, :, None]
    p = np.empty((len(rhos), n, dim))
    for b, rho in enumerate(rhos):
        np.matmul(rho.T, ut, out=buf)
        p[b] = np.matmul(rows, t)[:, :, 0, 0].real
    p = np.clip(p, 0.0, None)
    return p / p.sum(axis=2, keepdims=True)


# Settings are evaluated in batches whose unitary stack holds about this
# many bytes: 16 settings at width 5, 1 at width 7. Each setting's
# probabilities come from the same matmul calls at any batch size.
_BATCH_BYTES = 1 << 18


def simulate_counts(state, width: int, shots: int, seed=None) -> list[CountsBlock]:
    """Multinomial counts for all 3^width settings of every window.

    A window's density is dense_from_coeffs of its operators._windows
    vector, for either operator type. Settings are taken in batches in
    all_settings order: each batch's unitaries are built once as one stack
    of about 256 KiB and applied to every window before the next batch is
    built, which bounds the memory they take. Every batch writes its
    Kronecker levels, conjugate rows and matmul output into one set of
    buffers (_workspace), built once per call, so no batch allocates
    stacks of its own. All draws come from one multinomial call over the
    (windows, settings, outcomes) probabilities, which consumes the random
    stream window by window, settings in all_settings order, as one call
    per window and setting would. shots must be a positive integer, and
    width an integer at most DENSE_SITE_CAP, as load_counts requires; both
    are checked before any window is formed.
    """
    require_integer(shots, "shots")
    if shots <= 0:
        raise ValueError("shots must be positive")
    _require_width(width, state.n_sites)
    _check_dense_width(width, "")
    axes = _labels(width).axes
    rhos = [dense_from_coeffs(c)
            for c in _windows(state, width, 1, state.n_sites - width + 1)]
    probs = np.empty((len(rhos), len(axes), 1 << width))
    step = max(1, _BATCH_BYTES // (16 * 4**width))
    work = _workspace(min(step, len(axes)), width)
    for lo in range(0, len(axes), step):
        u = _setting_unitaries(axes[lo:lo + step], work)
        probs[:, lo:lo + step] = _probabilities(rhos, u, work)
    draws = np.random.default_rng(seed).multinomial(shots, probs)
    return [CountsBlock(b + 1, counts) for b, counts in enumerate(draws)]


# ---- Local maximum-likelihood estimation ----

_P_FLOOR = 1e-12

_Design = namedtuple("_Design", "cols signs strings shift phase")


@functools.lru_cache(maxsize=None)
def _design(width: int) -> _Design:
    """The design table of width-site windows, shared by every caller, so
    read-only; built from one bit matrix and the label table's axes.

    Over all settings in the coefficient basis: for setting row s the
    probability vector is theta[cols[s]] @ signs.T, where theta is the
    window coefficient vector, cols[s, b] packs the string with site i
    carrying either the identity or the axis of s_i (b selects which
    sites are non-identity), and signs[o, b] = (-1)^popcount(o & b) *
    2^(-width/2). The sign matrix is shared by every setting, so one
    matmul evaluates all settings at once.

    The window's Pauli strings in the X/Z layout: a string with bit
    strings x (sites carrying X or Y) and z (Z or Y) is i^popcount(x & z)
    X^x Z^z, which maps column c to row c ^ x with sign
    (-1)^popcount(c & z). strings, shift and phase are indexed (x, z) or
    (x, c) with site 1 the most significant bit: strings[x, z] is the
    packed string, phase[x, z] = i^popcount(x & z), and shift[x, c] =
    (x ^ c) * 2^width + c the flat entry of shifted diagonal x. The map
    (x, c) -> (x ^ c, c) is its own inverse, so shift gathers a matrix's
    shifted diagonals and gathers them back.
    """
    dim = 1 << width
    o = np.arange(dim)
    bits = o[:, None] >> np.arange(width - 1, -1, -1) & 1
    place = 4 ** np.arange(width - 1, -1, -1)
    par = bits @ bits.T  # popcount(a & b)
    label = np.array([[0, 3], [1, 2]])  # [x bit, z bit]: id, z; x, y
    design = _Design(
        cols=(_labels(width).axes + 1) * place @ bits.T,
        signs=np.where(par % 2 == 0, 1.0, -1.0) * 2.0 ** (-width / 2.0),
        strings=label[bits[:, None], bits[None, :]] @ place,
        shift=(o[:, None] ^ o) * dim + o,
        phase=1j ** par)
    for arr in design:
        arr.setflags(write=False)
    return design


def _log_likelihood(n_nz: np.ndarray, p_nz: np.ndarray) -> float:
    # n_nz: the nonzero counts, p_nz: their probabilities. np.sum over the
    # same products in the same order as a boolean-mask sum keeps the value
    # bitwise; a dot product would sum in another order.
    return float(np.sum(n_nz * np.log(np.maximum(p_nz, _P_FLOOR))))


@dataclass
class MleResult:
    """A likelihood fit: theta is the fitted window's coefficient vector,
    as the fit left it, and rho its density matrix."""

    theta: np.ndarray
    converged: bool
    n_iter: int
    log_likelihood: float
    kkt_residual: float

    @property
    def rho(self) -> np.ndarray:
        return dense_from_coeffs(self.theta)


# Defaults of every likelihood fit (local_mle, block_data_from_counts and
# ingest-counts). Rounding keeps the KKT residual above a floor, measured
# at 2e-9 to 7e-8 on 100-shot width-5 windows, so a fit asked for a
# smaller tolerance stops unconverged. The default sits two decades above
# the largest floor measured (see local_mle).
MLE_TOL = 1e-5
MLE_MAX_ITER = 10_000
# Backtracking shrinks the step by half per trial and gives up, at the
# floating-point floor, after this many; each accepted step grows it.
_MAX_HALVINGS = 60
_STEP_GROWTH = 1.2
# local_mle evaluates the exact KKT residual from the first accepted step
# whose gradient mapping is within this multiple of tol, and at every
# iterate after that; before it the residual is far above tol. The largest
# multiple a surveyed fit needed is 2.9 at the default tol and 5.6 at
# tol = 1e-7 (see local_mle).
_KKT_SWITCH = 10.0


def _simplex_projection(w: np.ndarray) -> np.ndarray:
    """Euclidean projection of w onto {x >= 0, sum(x) = 1}."""
    u = np.sort(w)[::-1]
    excess = np.cumsum(u) - 1.0
    k = np.flatnonzero(u * np.arange(1, len(w) + 1) > excess)[-1]
    return np.maximum(w - excess[k] / (k + 1), 0.0)


def _project_density(theta: np.ndarray) -> np.ndarray:
    """Nearest unit-trace PSD matrix in Frobenius norm, as coefficients.

    One eigh, then the eigenvalues are projected onto the simplex (Smolin,
    Gambetta & Smith, PRL 108, 070502, 2012). The matrix is built and read
    in the design's X/Z layout (_design), with no Pauli transform: its
    shifted diagonals are the phased coefficients times the design's
    signs, and tr[rho P] for the string (x, z) is its phase times the
    signs applied to the shifted diagonal x of rho^T. Each way is a
    gather, one dim x dim matmul and a gather.
    """
    width = theta.size.bit_length() // 2  # theta.size = 4^width
    _, signs, strings, shift, phase = _design(width)
    w, v = np.linalg.eigh(((theta[strings] * phase) @ signs).ravel()[shift])
    rho_t = (v.conj() * _simplex_projection(w)) @ v.T
    c = (rho_t.ravel()[shift] @ signs) * phase
    # coeffs_from_dense's Hermiticity check: a density matrix has
    # coefficients of at most 2^(-width/2), so its bound is 1e-10
    if abs(c.imag).max() > 1e-10:
        raise ValueError("operator is not Hermitian: complex coefficients")
    out = np.empty(theta.size)
    out[strings] = c.real
    return out


def _linear_inversion(block: CountsBlock) -> np.ndarray:
    """The window's linear-inversion estimate, as coefficients.

    signs is its own inverse, so row s of counts @ signs is the shots of
    setting s times its estimates of the strings cols[s]. Each string
    pools them over the settings that measure it, weighted by their shots:
    a setting with no shots drops out, and a string that no measured
    setting reaches is 0.
    """
    cols, signs = _design(block.width)[:2]
    flat_cols = cols.ravel()
    n_mat = block.counts
    pooled = np.bincount(flat_cols, weights=(n_mat @ signs).ravel(),
                         minlength=4**block.width)
    weight = np.bincount(flat_cols, weights=np.repeat(n_mat.sum(axis=1),
                                                      cols.shape[1]),
                         minlength=4**block.width)
    return np.divide(pooled, weight, out=np.zeros_like(pooled),
                     where=weight > 0)


def local_mle(block: CountsBlock, tol: float = MLE_TOL,
              max_iter: int = MLE_MAX_ITER) -> MleResult:
    """Maximum-likelihood density matrix for one window's counts.

    Accelerated projected gradient (Shang, Zhang & Ng, PRA 95, 062336,
    2017) on f = mean negative log-likelihood per shot, over unit-trace PSD
    matrices. The fit starts from the window's linear-inversion estimate
    (_linear_inversion) projected onto the density matrices, the
    Gaussian-noise maximum-likelihood state of Smolin, Gambetta & Smith
    (PRL 108, 070502, 2012), at the cost of one projection. Each step
    projects a gradient step from the momentum point; its length
    backtracks until f meets the quadratic upper bound, and the momentum
    restarts whenever the objective would rise, so the likelihood of
    accepted iterates never falls. The fit converges when the KKT residual
    ||rho - Proj(rho - grad f(rho))||_F drops below tol. Otherwise it stops
    at max_iter, or when a step can no longer lower f in floating point,
    and the result carries the last iterate with converged False. tol must
    be finite and nonnegative and max_iter at least 1.

    The default tol, MLE_TOL = 1e-5, sits two decades above the rounding
    floor of the residual (2e-9 to 7e-8 measured on 100-shot width-5
    windows). At 1e-7 some fits landed just above the floor and stopped
    unconverged (KKT 1.05e-7 on an ancilla(8) window at R = 5). Going on
    from 1e-5 to 1e-7 takes 28 to 67% more iterations and moves D by at
    most 6.6e-4 and the W fidelity by at most 1.1e-5 relative (W(8) and
    ancilla(8), R = 3 to 6, 100 to 10^4 shots). The benchmark's 16 W(8)
    fits at R = 5 take 314 iterations at 1e-5 against 435 at 1e-7, and the
    16 ancilla(8) fits 999 against 1431, with none unconverged against
    one; pass tol=1e-7 for tighter fits.

    Cost at width R (dim = 2^R): each point the fit visits (start,
    iterate or momentum point) takes one real (3^R x 2^R) @ (2^R x 2^R)
    design matmul, whose entries at the nonzero counts, and their minimum,
    are gathered once for every rise measured from that point. Each
    backtracking trial takes one projection and one design matmul for the
    rise; the accepted trial's rise is also the monotonicity check when the
    momentum point y is the iterate, and otherwise the check costs one more
    design matmul. The gradient at a point costs one more and a
    scatter-add over the 6^R design entries. The KKT residual costs one
    more projection and the gradient at the iterate, so it is evaluated
    only from the first accepted step whose gradient mapping ||x_next - y||
    / min(t, 1), an upper bound on the unit-step residual at y, is within
    _KKT_SWITCH * tol, and at every iterate after that: at the default tol
    the last 2 to 9 of 15 to 27 iterates on the benchmark's W(8) windows at
    R = 5, against 6 to 17 with a multiple of 100. The iterates are those
    of a test at every iterate; a fit could only run past an untested
    iterate already below tol. The multiple is 10 because the largest that
    a fit surveyed needed at its converging step was 2.9 at the default
    tol (criterion 7's W(8) windows at R = 3; 2.8 at R = 5 and for
    product_state(8)) and 5.6 at tol = 1e-7 (product_state(8), R = 5).
    Otherwise the gradient at the iterate is formed for a momentum
    restart, after which y is the iterate, and for a result that stops on
    an untested iterate. A projection is one dim x dim eigh and, on each
    side of it, one gather and one complex (dim x dim) @ (dim x dim)
    matmul with the design's signs (_design), O(8^R) and no Pauli
    transform. The benchmark's W(8) fits need about 1.3 trials per iterate
    and 31 projections at the default tol (42 at 1e-7); the eigh dominates
    from R = 5 up.
    """
    require_integer(max_iter, "max_iter")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    require_real(tol, "tol", nonnegative=True)
    width = block.width
    cols, signs = _design(width)[:2]
    flat_cols = cols.ravel()
    n_mat = block.counts
    n_tot = n_mat.sum()
    if n_tot == 0:
        raise ValueError("no counts present in block")
    nz = np.flatnonzero(n_mat > 0)
    n_nz = n_mat.ravel()[nz]
    n_float = n_mat.astype(float)

    def probabilities(theta):
        return theta[cols] @ signs.T

    def point(theta):
        # theta's probabilities, those at the nonzero counts and their
        # minimum, gathered once for every rise measured from theta
        p_mat = probabilities(theta)
        p = p_mat.ravel()[nz]
        return p_mat, p, p.min()

    def gradient(at):
        ratio = n_float / np.maximum(at[0], _P_FLOOR)
        return -np.bincount(flat_cols, weights=(ratio @ signs).ravel(),
                            minlength=4**width) / n_tot

    def rise(at, d):
        # f(theta + d) - f(theta) for at = point(theta), summed term by
        # term from the exact change in p, so that it keeps its relative
        # precision when it is far below the rounding error of f. Where no
        # probability at either point is below the floor, the clamp leaves
        # p and dp as they are and is skipped.
        _, p, p_min = at
        dp = probabilities(d).ravel()[nz]
        q = p + dp
        if min(p_min, q.min()) < _P_FLOOR:
            lo = np.maximum(p, _P_FLOOR)
            hi = np.maximum(q, _P_FLOOR)
            dp = np.where((p >= _P_FLOOR) & (q >= _P_FLOOR), dp, hi - lo)
            p = lo
        return -float(np.sum(n_nz * np.log1p(dp / p))) / n_tot

    def backtrack(y, py, gy, step):
        # the accepted trial, its step and its rise from y
        for _ in range(_MAX_HALVINGS):
            cand = _project_density(y - step * gy)
            d = cand - y
            r = rise(py, d)
            if r <= gy @ d + (d @ d) / (2.0 * step):
                return cand, step, r
            step /= 2.0
        return None, step, None

    def kkt_residual(x, gx):
        return float(np.linalg.norm(x - _project_density(x - gx)))

    x = _project_density(_linear_inversion(block))
    px = point(x)
    gx = gradient(px)
    y, py, gy = x, px, gx
    step, mom = 1.0, 1.0
    kkt = np.inf  # the start point is never tested
    converged = switched = False
    it = 0
    for it in range(1, max_iter + 1):
        cand, step, r = backtrack(y, py, gy, step)
        # backtrack measured the rise from x when y is x
        rises = cand is None or (r if y is x else rise(px, cand - x)) > 0.0
        if rises and y is not x:  # restart the momentum
            if gx is None:
                gx = gradient(px)
            y, py, gy, mom = x, px, gx, 1.0
            cand, step, r = backtrack(y, py, gy, step)
            rises = cand is None or r > 0.0
        if rises:  # no step lowers f in floating point
            break
        if not switched:
            # the gradient mapping at y bounds the unit-step residual there
            mapping = float(np.linalg.norm(cand - y)) / min(step, 1.0)
            switched = mapping / _KKT_SWITCH <= tol
        x_prev = x
        x = cand
        px = point(x)
        gx = kkt = None
        if switched:
            gx = gradient(px)
            kkt = kkt_residual(x, gx)
            if kkt < tol:
                converged = True
                break
        mom_next = (1.0 + np.sqrt(1.0 + 4.0 * mom * mom)) / 2.0
        beta = (mom - 1.0) / mom_next
        mom = mom_next
        if beta:
            y = x + beta * (x - x_prev)
            py = point(y)
            gy = gradient(py)
        else:
            if gx is None:
                gx = gradient(px)
            y, py, gy = x, px, gx
        step *= _STEP_GROWTH
    if kkt is None:  # the fit stopped on an iterate it never tested
        kkt = kkt_residual(x, gradient(px) if gx is None else gx)
    return MleResult(x, converged, it, _log_likelihood(n_nz, px[1]), kkt)


# _fisher_matrix's per-setting stacks hold at most this many bytes each:
# every setting at width 5, 64 at width 6.
_FISHER_BYTES = 1 << 21


def _fisher_matrix(theta: np.ndarray, shots: np.ndarray) -> np.ndarray:
    """Fisher information over every coefficient of a window with
    coefficients theta and shots[j] shots of setting j of all_settings:
    F = sum_s n_s sum_o (grad p)(grad p)^T / p, p clipped at the floor.
    Row and column c are coefficient c, the identity entry 0 included.

    One matmul gives every probability. Then, over chunks of the measured
    settings whose per-setting stacks hold at most _FISHER_BYTES each, a
    batched Gram matrix of the sqrt(n / p)-weighted signs (exactly
    symmetric) gives every setting's block, and np.add.at adds the blocks
    into F in setting order: the sums bincount over all settings at once
    would make, bit for bit, without its full-size stacks. A setting
    couples only strings whose sites carry the identity or its own axis.
    """
    width = n_sites_of(theta.size, 4)
    cols, signs = _design(width)[:2]
    measured = np.flatnonzero(shots)
    cols = cols[measured]
    p = np.clip(theta[cols] @ signs.T, _P_FLOOR, None)
    root = np.sqrt(shots[measured, None] / p)
    dim = 4**width
    F = np.zeros(dim * dim)
    step = max(1, _FISHER_BYTES // signs.nbytes)
    for lo in range(0, len(cols), step):
        c = cols[lo:lo + step]
        weighted = signs * root[lo:lo + step, :, None]
        gram = weighted.transpose(0, 2, 1) @ weighted
        np.add.at(F, (c[:, :, None] * dim + c[:, None, :]).ravel(),
                  gram.ravel())
    return F.reshape(dim, dim)


def fisher_information(block: CountsBlock, rho_est: np.ndarray) -> np.ndarray:
    """_fisher_matrix of a window's counts at the estimate rho_est, over the
    non-identity coefficients (unit trace fixes the identity's)."""
    theta = coeffs_from_dense(np.asarray(rho_est, dtype=complex))
    return _fisher_matrix(theta, block.counts.sum(axis=1))[1:, 1:]


def _shared_width(blocks: list[CountsBlock]) -> int:
    """The width of a nonempty list of windows' counts that share one."""
    if not blocks:
        raise ValueError("no blocks given")
    widths = sorted({b.width for b in blocks})
    if len(widths) > 1:
        raise ValueError("blocks must share one width, not "
                         + " and ".join(f"R = {w}" for w in widths))
    return widths[0]


def block_data_from_counts(blocks: list[CountsBlock], n_sites: int,
                           tol: float = MLE_TOL,
                           max_iter: int = MLE_MAX_ITER) -> PauliBlockData:
    """Estimate every window from counts; the data holds their shots.

    blocks must share one width and hold one window per k in
    1..n_sites - width + 1. Both are checked before the first fit, and
    the number of windows before their starts, so a huge n_sites builds
    no list."""
    require_integer(n_sites, "n_sites")
    width = _shared_width(blocks)
    n_blocks = n_sites - width + 1
    by_k = {b.k: b for b in blocks}
    if (len(blocks) != n_blocks
            or sorted(by_k) != list(range(1, n_blocks + 1))):
        raise ValueError("blocks must cover every window exactly once")
    vecs, shots = [], []
    for k in range(1, n_blocks + 1):
        res = local_mle(by_k[k], tol=tol, max_iter=max_iter)
        if not res.converged:
            warnings.warn(f"window {k}: likelihood fit stopped after "
                          f"{res.n_iter} iterations with KKT residual "
                          f"{res.kkt_residual:.1e}, not below tol = {tol:g}; "
                          "using the last iterate")
        vecs.append(res.theta)
        shots.append(by_k[k].counts.sum(axis=1))
    return PauliBlockData(np.array(vecs), shots=np.array(shots))


# ---- Serialization ----


def _check_windows(n_sites: int, width: int, starts: list[int],
                   where: str = "") -> None:
    """Reject an R outside 1..N, and a window start k outside 1..N-R+1 or
    listed twice; where prefixes the R message. Not every k is needed."""
    if not 1 <= width <= n_sites:
        raise ValueError(f"{where}R = {width} is outside 1..N = {n_sites}")
    seen = set()
    for k in starts:
        if not 1 <= k <= n_sites - width + 1:
            raise ValueError(f"block k = {k} outside 1..{n_sites - width + 1}")
        if k in seen:
            raise ValueError(f"block k = {k} is listed twice")
        seen.add(k)


def save_counts(blocks: list[CountsBlock], n_sites: int, path: str) -> None:
    """Write every window's measured (nonzero) rows in all_settings order.

    blocks must be nonempty and share one width, and pass load_counts'
    range checks (_check_windows); otherwise nothing is written."""
    width = _shared_width(blocks)
    _check_windows(n_sites, width, [b.k for b in blocks])
    labels = _labels(width)

    def nonzero(c):
        idx = np.flatnonzero(c)
        return dict(zip([labels.outcomes[i] for i in idx.tolist()],
                        [int(v) for v in c[idx].tolist()]))

    payload = {
        "version": FORMAT_VERSION, "N": n_sites, "R": width, "d": 2,
        "blocks": [
            {"k": b.k, "settings": [
                {"s": labels.settings[j], "shots": n,
                 "counts": nonzero(b.counts[j])}
                for j, n in enumerate(b.counts.sum(axis=1).tolist()) if n]}
            for b in blocks],
    }
    write_json(path, payload)


def _check_dense_width(width: int, where: str) -> None:
    """Reject a width too wide to fit; where prefixes the message."""
    if width > DENSE_SITE_CAP:
        raise ValueError(f"{where}R = {width} is above {DENSE_SITE_CAP}; "
                         "each window is fitted as a dense 2^R matrix")


def _read_windows_file(path: str) -> dict:
    """The fields of a counts or window-data file, with integer N and R."""
    payload = read_json(path, ("N", "R", "blocks"))
    for key in ("N", "R"):
        require_type(payload[key], int, f"{path}: {key}")
    return payload


def _window_counts(settings: list, k: int, width: int,
                   path: str) -> np.ndarray:
    """The (3^width, 2^width) counts of window k. One pass checks the
    setting records in file order (see load_counts) and raises at the
    first fault; the inline type tests decide, and require or
    require_type words the error."""
    labels = _labels(width)
    listed, flat, values = set(), [], []
    for j, srec in enumerate(settings):
        if not (type(srec) is dict and "s" in srec and "counts" in srec
                and type(srec["counts"]) is dict
                and type(srec["s"]) is str):
            where = f"{path}: block {k} settings[{j}]"
            require(srec, ("s", "counts"), where)
            require_type(srec["counts"], dict, f"{where} counts")
            require_type(srec["s"], str, f"{where} s")
        setting, table = srec["s"], srec["counts"]
        row = labels.row.get(setting)
        if row is None:
            raise ValueError(f"block {k}: setting {setting!r} is not "
                             f"{width} letters from 'xyz'")
        if row in listed:
            raise ValueError(f"block {k}: setting {setting!r} is listed "
                             "twice")
        listed.add(row)
        offset = row << width
        for o, v in table.items():
            col = labels.index.get(o)
            if col is None:
                raise ValueError(f"block {k} setting {setting}: outcome "
                                 f"{o!r} is not {width} characters from "
                                 "'+-'")
            if type(v) is not int:
                require_type(v, int, f"{path}: block {k} settings[{j}] "
                                     f"count of {o!r}")
            if v < 0:
                raise ValueError(f"block {k} setting {setting}: outcome "
                                 f"{o} has a negative count {v}")
            flat.append(offset + col)
            values.append(v)
        if "shots" in srec:
            shots = srec["shots"]
            if type(shots) is not int:
                require_type(shots, int, f"{path}: block {k} settings[{j}] "
                                         "shots")
            total = sum(table.values())
            if shots != total:
                raise ValueError(f"block {k} setting {setting}: counts sum "
                                 f"to {total}, declared {shots}")
    counts = np.zeros(3**width << width, dtype=np.int64)
    counts[flat] = values
    return counts.reshape(3**width, 1 << width)


def load_counts(path: str):
    """Returns (blocks, n_sites).

    Rejects a bad header (a version other than 1, a d other than 2), a
    missing field, an N, R, k, count or shots that is not an integer, an R
    outside 1..N or above DENSE_SITE_CAP (each window is fitted as a dense
    2^R matrix), a window start k outside 1..N-R+1 or listed twice,
    settings that are not strings of R letters from "xyz" or are listed
    twice in a window, outcomes that are not R characters from "+-",
    negative counts, and per-setting counts that do not sum to the
    declared shots. The block records and their k are checked before any
    window's settings, and a window's setting records one at a time in
    file order, so where several are faulty the first is named. A
    setting the file does not list is a zero row: not measured.
    """
    payload = _read_windows_file(path)
    n_sites, width, records = payload["N"], payload["R"], payload["blocks"]
    require_type(records, list, f"{path}: blocks")
    for i, rec in enumerate(records):
        require(rec, ("k", "settings"), f"{path}: blocks[{i}]")
        require_type(rec["settings"], list, f"{path}: blocks[{i}] settings")
        require_type(rec["k"], int, f"{path}: blocks[{i}] k")
    _check_windows(n_sites, width, [rec["k"] for rec in records], f"{path}: ")
    _check_dense_width(width, f"{path}: ")
    return [CountsBlock(rec["k"], _window_counts(rec["settings"], rec["k"],
                                                 width, path))
            for rec in records], n_sites


def save_block_data(data: PauliBlockData, path: str) -> None:
    """Write window data to a JSON file and its float64 companion
    `path.f64` (files.write_floats): the blocks as one record, the noise
    as text. Refuses, and writes neither file, when a block entry is not
    finite."""
    kind, noise = data.noise_kind, None
    if kind == "scalar":
        noise = {"kind": kind, "sigma": data.sigma}
    elif kind == "fisher":
        noise = {"kind": kind, "shots": data.shots.tolist()}
    payload = {
        "version": FORMAT_VERSION, "N": data.n_sites, "R": data.width,
        "d": 2, "blocks": data.blocks, "noise": noise,
    }
    write_floats(path, payload)


def load_block_data(path: str) -> PauliBlockData:
    """Read a window data file and its companion; rejects a bad header,
    an N or R that is not an integer, `blocks` that are not a companion
    record or a rectangular nested array of numbers (files.read_floats),
    an R outside 1..N, blocks whose shape is not (N - R + 1, 4^R), a
    `noise` other than null that is not an object with a `kind`, an
    unknown noise kind, scalar noise without a `sigma` or with one that is
    not a number, fisher noise without `shots` (so a file that holds
    Fisher matrices) or with shots that are not rows of integers, a noise
    field that its kind does not read (after the missing-field check), and
    whatever PauliBlockData rejects."""
    payload = _read_windows_file(path)
    sigma = shots = None
    raw = payload.get("noise")
    if raw is not None:
        where = f"{path}: noise"
        require(raw, ("kind",), where)
        if raw["kind"] == "fisher":
            require(raw, ("shots",), where)
            require(raw, (), where, allowed=("kind", "shots"))
            shots = raw["shots"]
            require_type(shots, list, f"{where} shots")
            if not all(type(row) is list and not set(map(type, row)) - {int}
                       for row in shots):
                for b, row in enumerate(shots):  # name the first offender
                    require_type(row, list, f"{where} shots[{b}]")
                    for j, n in enumerate(row):
                        require_type(n, int, f"{where} shots[{b}][{j}]")
            if len({len(row) for row in shots}) > 1:
                raise ValueError(f"{where} shots: rows differ in length")
        elif raw["kind"] == "scalar":
            sigma = raw.get("sigma")
            if sigma is None:
                raise ValueError("scalar noise requires sigma")
            require(raw, (), where, allowed=("kind", "sigma"))
            require_type(sigma, float, f"{where} sigma")
        else:
            raise ValueError(f"unknown noise kind {raw['kind']!r}")
    blocks, = read_floats(path, {"blocks": payload["blocks"]})
    n_sites, width = payload["N"], payload["R"]
    _require_width(width, n_sites)
    expect = (n_sites - width + 1, 4**width)
    if blocks.shape != expect:
        raise ValueError(f"blocks must have shape {expect}")
    return PauliBlockData(blocks, sigma, shots)
