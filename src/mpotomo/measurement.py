"""Block expectation data, measurement simulation, and local estimation.

The central container holds, for every window of `width` consecutive sites,
the full vector of normalized basis-string expectations of the state's
reduction onto that window. Exact vectors come from operators._windows, the
one window kernel for dense and matrix-product states; synthetic noisy
vectors come either from Gaussian perturbations of the exact values or from
simulated projective counts pushed through a local maximum-likelihood
estimator. A window's counts are one (3^width, 2^width) integer array, rows
in all_settings order.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .files import (FORMAT_VERSION, float_array, float_record, read_json,
                    require, require_type, write_json)
from .operators import (DENSE_SITE_CAP, DenseOperator,
                        MatrixProductOperator, _windows)
from .pauli import coeffs_from_dense, dense_from_coeffs, n_sites_of

# ---- Block data container ----


@dataclass
class NoiseMeta:
    """Covariance descriptor for the entries of noisy block vectors.

    kind "scalar": iid Gaussian noise of standard deviation `sigma` was
    added to the unnormalized basis expectations (so sigma / sqrt(2^width)
    per normalized entry). kind "fisher": the windows were fitted from
    counts, window b with shots[b, j] shots of setting j of all_settings.
    """

    kind: str
    sigma: float | None = None
    shots: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("scalar", "fisher"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.kind == "scalar" and self.sigma is None:
            raise ValueError("scalar noise requires sigma")
        if self.kind == "scalar" and not (np.isfinite(self.sigma)
                                          and self.sigma >= 0.0):
            raise ValueError("scalar noise sigma must be finite and "
                             "nonnegative")
        if self.kind == "fisher":
            self.shots = np.asarray(self.shots)
            if self.shots.dtype.kind not in "iu" or np.any(self.shots < 0):
                raise ValueError("fisher noise requires shots that are "
                                 "nonnegative integers")


@dataclass
class PauliBlockData:
    """Normalized basis expectations for every width-site window.

    blocks[b] is the coefficient vector of the reduction onto sites
    b+1 .. b+width (1-based), packed big-endian, length 4^width.
    Construction (and so load_block_data) rejects non-finite blocks and
    Fisher shots whose shape is not (n_blocks, 3^width).
    """

    n_sites: int
    width: int
    blocks: np.ndarray
    noise: NoiseMeta | None = None

    def __post_init__(self):
        self.blocks = np.asarray(self.blocks, dtype=float)
        expect = (self.n_blocks, 4**self.width)
        if self.blocks.shape != expect:
            raise ValueError(f"blocks must have shape {expect}")
        if not np.all(np.isfinite(self.blocks)):
            raise ValueError("blocks must be finite")
        if self.noise is not None and self.noise.kind == "fisher":
            shape = (self.n_blocks, 3**self.width)
            if self.noise.shots.shape != shape:
                raise ValueError(f"fisher shots must have shape {shape}")

    @property
    def n_blocks(self) -> int:
        if not 1 <= self.width <= self.n_sites:
            raise ValueError("need 1 <= width <= n_sites")
        return self.n_sites - self.width + 1

    def block(self, k: int) -> np.ndarray:
        """Vector for the window starting at 1-based site k."""
        return self.blocks[k - 1]


def exact_block_data(state, width: int) -> PauliBlockData:
    """Exact window expectations of a dense or matrix-product state.

    One sweep of operators._windows: for a matrix-product state the
    identity environments are built once, so extraction is linear in the
    chain length and costs O(4^width D^2) per window.
    """
    if not isinstance(state, (DenseOperator, MatrixProductOperator)):
        raise TypeError(f"unsupported state type {type(state).__name__}")
    n = state.n_sites
    if not 1 <= width <= n:
        raise ValueError("need 1 <= width <= n_sites")
    blocks = np.empty((n - width + 1, 4**width))
    for b, vector in enumerate(_windows(state, width, 1, n - width + 1)):
        blocks[b] = vector
    return PauliBlockData(n, width, blocks)


def add_gaussian_noise(data: PauliBlockData, sigma: float, seed=None,
                       perturb_identity: bool = True) -> PauliBlockData:
    """Add iid N(0, sigma) noise in the unnormalized string convention.

    Normalized entries receive standard deviation sigma / sqrt(2^width).
    With perturb_identity=False the identity-string entries are left exact,
    preserving the declared trace. sigma must be finite and nonnegative.
    """
    noise = NoiseMeta("scalar", sigma=sigma)
    rng = np.random.default_rng(seed)
    scale = sigma / np.sqrt(2.0 ** data.width)
    noisy = data.blocks + scale * rng.standard_normal(data.blocks.shape)
    if not perturb_identity:
        noisy[:, 0] = data.blocks[:, 0]
    return PauliBlockData(data.n_sites, data.width, noisy, noise)


# ---- Projective measurement simulation ----

_U_BASIS = {
    "z": np.eye(2, dtype=complex),
    "x": np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0),
    "y": np.array([[1.0, -1.0j], [1.0, 1.0j]], dtype=complex) / np.sqrt(2.0),
}

_AXIS = {"x": 1, "y": 2, "z": 3}


@dataclass
class CountsBlock:
    """Projective counts of the window starting at 1-based site k.

    counts is a (3^width, 2^width) integer array: row j is the histogram
    of setting j of all_settings(width) over the 2^width outcomes, indexed
    big-endian with bit 0 for the +1 eigenvalue on a site. A zero row is a
    setting that was not measured. width is read off the array's shape.
    """

    k: int
    counts: np.ndarray

    @property
    def width(self) -> int:
        return n_sites_of(self.counts.shape[1])


def outcome_string(idx: int, width: int) -> str:
    return format(idx, f"0{width}b").replace("0", "+").replace("1", "-")


@functools.lru_cache(maxsize=None)
def _outcome_tables(width: int):
    """(strings, index): the 2^width outcome strings in index order, and
    each string's index. Built once per width and shared by every caller,
    so strings is a tuple and index a read-only mapping."""
    strings = tuple(outcome_string(i, width) for i in range(1 << width))
    return strings, MappingProxyType({s: i for i, s in enumerate(strings)})


def all_settings(width: int):
    return ["".join(p) for p in itertools.product("xyz", repeat=width)]


@functools.lru_cache(maxsize=None)
def _setting_rows(width: int):
    """Read-only mapping of each setting string to its row in
    all_settings(width) order, built once per width."""
    return MappingProxyType({s: j for j, s in enumerate(all_settings(width))})


def _setting_unitaries(settings) -> np.ndarray:
    """Stack of the Kronecker unitaries of `settings`, one per setting.

    The per-site factors are multiplied left to right in np.kron's order,
    so each unitary is bitwise the np.kron chain of its factors.
    """
    factors = np.array([[_U_BASIS[ch] for ch in s] for s in settings])
    u = factors[:, 0]
    for f in factors.transpose(1, 0, 2, 3)[1:]:
        n, rows, cols = u.shape
        u = (u[:, :, None, :, None] * f[:, None, :, None, :]).reshape(
            n, 2 * rows, 2 * cols)
    return u


def _probabilities(rhos, u: np.ndarray) -> np.ndarray:
    """Outcome distributions diag(u rho u^dagger) of every window density
    in `rhos` under every unitary of the stack u, clipped at zero and
    normalized, shape (windows, settings, outcomes).

    The two matmuls are the contraction einsum("ij,jk,ik->i", u, rho,
    u.conj(), optimize=True) performs: t = (rho^T u^T)^T, then each row of
    conj(u) dotted with the matching row of t. With numpy 2.4 the result
    is bitwise that einsum's.
    """
    ut = u.transpose(0, 2, 1)
    rows = u.conj()[:, :, None, :]
    # one buffer serves every window: at width 7 a fresh 1 MB stack per
    # window adds page faults worth about a tenth of the run time
    buf = np.empty_like(u)
    t = buf.transpose(0, 2, 1)[:, :, :, None]
    p = np.empty((len(rhos), *u.shape[:2]))
    for b, rho in enumerate(rhos):
        np.matmul(rho.T, ut, out=buf)
        p[b] = np.matmul(rows, t)[:, :, 0, 0].real
    p = np.clip(p, 0.0, None)
    return p / p.sum(axis=2, keepdims=True)


# Settings are evaluated in batches whose unitary stack holds about this
# many bytes: 64 settings at width 5, 4 at width 7.
_BATCH_BYTES = 1 << 20


def simulate_counts(state, width: int, shots: int, seed=None) -> list[CountsBlock]:
    """Multinomial counts for all 3^width settings of every window.

    A window's density is dense_from_coeffs of its operators._windows
    vector, for either operator type. Settings are taken in batches in
    all_settings order: each batch's unitaries are built once as one stack
    of about 1 MB and applied to every window before the next batch is
    built, which bounds the memory they take. All draws come from one
    multinomial call over the (windows, settings, outcomes) probabilities,
    which consumes the random stream window by window, settings in
    all_settings order, as one call per window and setting would. shots
    must be a positive integer.
    """
    if isinstance(shots, bool) or not isinstance(shots, (int, np.integer)):
        raise ValueError(f"shots must be an integer, not "
                         f"{type(shots).__name__}")
    if shots <= 0:
        raise ValueError("shots must be positive")
    if not 1 <= width <= state.n_sites:
        raise ValueError("need 1 <= width <= n_sites")
    settings = all_settings(width)
    rhos = [dense_from_coeffs(c)
            for c in _windows(state, width, 1, state.n_sites - width + 1)]
    probs = np.empty((len(rhos), len(settings), 1 << width))
    step = max(1, _BATCH_BYTES // (16 * 4**width))
    for lo in range(0, len(settings), step):
        probs[:, lo:lo + step] = _probabilities(
            rhos, _setting_unitaries(settings[lo:lo + step]))
    draws = np.random.default_rng(seed).multinomial(shots, probs)
    return [CountsBlock(b + 1, counts) for b, counts in enumerate(draws)]


# ---- Local maximum-likelihood estimation ----

_P_FLOOR = 1e-12


@functools.lru_cache(maxsize=None)
def _design_blocks(width: int):
    """Measurement design over all settings in the coefficient basis.

    Returns (settings, cols, signs): for setting row s the probability
    vector is theta[cols[s]] @ signs.T, where theta is the window
    coefficient vector, cols[s, b] packs the string with site i carrying
    either the identity or the axis of s_i (b selects which sites are
    non-identity), and signs[o, b] = (-1)^popcount(o & b) * 2^(-width/2).
    The sign matrix is shared by every setting, so one matmul evaluates
    all settings at once. Built once per width and shared by every caller:
    settings is a tuple, and cols and signs are read-only.
    """
    dim = 1 << width
    o = np.arange(dim)
    v = o[:, None] & o[None, :]
    par = np.zeros((dim, dim), dtype=int)
    for t in range(width):
        par += (v >> t) & 1
    signs = np.where(par % 2 == 0, 1.0, -1.0) * 2.0 ** (-width / 2.0)
    bitmat = (o[:, None] >> (width - 1 - np.arange(width))) & 1
    place = 4 ** (width - 1 - np.arange(width))
    settings = tuple(all_settings(width))
    cols = np.zeros((len(settings), dim), dtype=np.intp)
    for j, setting in enumerate(settings):
        axes = np.array([_AXIS[ch] for ch in setting])
        cols[j] = bitmat @ (axes * place)
    cols.setflags(write=False)
    signs.setflags(write=False)
    return settings, cols, signs


def _log_likelihood(nz: np.ndarray, n_nz: np.ndarray,
                    p_mat: np.ndarray) -> float:
    # nz: flat indices of the nonzero counts, n_nz: those counts. np.sum
    # over the same products in the same order as a boolean-mask sum keeps
    # the value bitwise; a dot product would sum in another order.
    p = np.maximum(p_mat.ravel()[nz], _P_FLOOR)
    return float(np.sum(n_nz * np.log(p)))


@dataclass
class MleResult:
    rho: np.ndarray
    converged: bool
    n_iter: int
    log_likelihood: float
    kkt_residual: float


# Defaults of every likelihood fit (local_mle, block_data_from_counts and
# ingest-counts). Rounding keeps the KKT residual above a floor, measured
# at 2e-9 to 7e-8 on 100-shot width-5 windows, so a fit asked for a
# smaller tolerance stops unconverged.
MLE_TOL = 1e-7
MLE_MAX_ITER = 10_000
# Backtracking shrinks the step by half per trial and gives up, at the
# floating-point floor, after this many; each accepted step grows it.
_MAX_HALVINGS = 60
_STEP_GROWTH = 1.2


def _simplex_projection(w: np.ndarray) -> np.ndarray:
    """Euclidean projection of w onto {x >= 0, sum(x) = 1}."""
    u = np.sort(w)[::-1]
    excess = np.cumsum(u) - 1.0
    k = np.flatnonzero(u * np.arange(1, len(w) + 1) > excess)[-1]
    return np.maximum(w - excess[k] / (k + 1), 0.0)


def _project_density(theta: np.ndarray) -> np.ndarray:
    """Nearest unit-trace PSD matrix in Frobenius norm, as coefficients.

    One eigh, then the eigenvalues are projected onto the simplex (Smolin,
    Gambetta & Smith, PRL 108, 070502, 2012).
    """
    w, v = np.linalg.eigh(dense_from_coeffs(theta))
    return coeffs_from_dense((v * _simplex_projection(w)) @ v.conj().T)


def local_mle(block: CountsBlock, tol: float = MLE_TOL,
              max_iter: int = MLE_MAX_ITER) -> MleResult:
    """Maximum-likelihood density matrix for one window's counts.

    Accelerated projected gradient (Shang, Zhang & Ng, PRA 95, 062336,
    2017) on f = mean negative log-likelihood per shot, over unit-trace PSD
    matrices, from the maximally mixed state. Each step projects a
    gradient step from the momentum point; its length backtracks until f
    meets the quadratic upper bound, and the momentum restarts whenever
    the objective would rise, so the likelihood of accepted iterates never
    falls. The fit converges when the KKT residual
    ||rho - Proj(rho - grad f(rho))||_F drops below tol. Otherwise it stops
    at max_iter, or when a step can no longer lower f in floating point,
    and the result carries the last iterate with converged False. tol must
    be finite and nonnegative and max_iter at least 1.

    Cost at width R (dim = 2^R): each backtracking trial takes one dim x
    dim eigh, two Pauli transforms and one real (3^R x 2^R) @ (2^R x 2^R)
    design matmul; each accepted iterate adds one eigh for the KKT
    residual, one design matmul plus a scatter-add over the 6^R design
    entries for its gradient, and two more design matmuls and a
    scatter-add at the momentum point. A Pauli transform is R passes of
    one 4 x 4 matmul, O(R 4^R). Typical fits need about 1.4 trials per
    iterate, and at R = 5 the fixed cost of the numpy calls dominates.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if not (np.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    width = block.width
    _, cols, signs = _design_blocks(width)
    flat_cols = cols.ravel()
    n_mat = block.counts
    n_tot = n_mat.sum()
    if n_tot == 0:
        raise ValueError("no counts present in block")
    nz = np.flatnonzero(n_mat > 0)
    n_nz = n_mat.ravel()[nz]

    def probabilities(theta):
        return theta[cols] @ signs.T

    def gradient(p_mat):
        ratio = n_mat / np.maximum(p_mat, _P_FLOOR)
        return -np.bincount(flat_cols, weights=(ratio @ signs).ravel(),
                            minlength=4**width) / n_tot

    def rise(p_mat, d):
        # f(theta + d) - f(theta) for p_mat = probabilities(theta), summed
        # term by term from the exact change in p, so that it keeps its
        # relative precision when it is far below the rounding error of f.
        p = p_mat.ravel()[nz]
        dp = probabilities(d).ravel()[nz]
        lo = np.maximum(p, _P_FLOOR)
        hi = np.maximum(p + dp, _P_FLOOR)
        dp = np.where((p >= _P_FLOOR) & (p + dp >= _P_FLOOR), dp, hi - lo)
        return -float(np.sum(n_nz * np.log1p(dp / lo))) / n_tot

    def backtrack(y, py, gy, step):
        for _ in range(_MAX_HALVINGS):
            cand = _project_density(y - step * gy)
            d = cand - y
            if rise(py, d) <= gy @ d + (d @ d) / (2.0 * step):
                return cand, step
            step /= 2.0
        return None, step

    x = coeffs_from_dense(np.eye(1 << width, dtype=complex) / (1 << width))
    px = probabilities(x)
    gx = gradient(px)
    y, py, gy = x, px, gx
    step, mom = 1.0, 1.0
    kkt = np.inf
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        cand, step = backtrack(y, py, gy, step)
        rises = cand is None or rise(px, cand - x) > 0.0
        if rises and y is not x:  # restart the momentum
            y, py, gy, mom = x, px, gx, 1.0
            cand, step = backtrack(y, py, gy, step)
            rises = cand is None or rise(px, cand - x) > 0.0
        if rises:  # no step lowers f in floating point
            break
        x_prev = x
        x = cand
        px = probabilities(x)
        gx = gradient(px)
        kkt = float(np.linalg.norm(x - _project_density(x - gx)))
        if kkt < tol:
            converged = True
            break
        mom_next = (1.0 + np.sqrt(1.0 + 4.0 * mom * mom)) / 2.0
        beta = (mom - 1.0) / mom_next
        mom = mom_next
        if beta:
            y = x + beta * (x - x_prev)
            py = probabilities(y)
            gy = gradient(py)
        else:
            y, py, gy = x, px, gx
        step *= _STEP_GROWTH
    return MleResult(dense_from_coeffs(x), converged, it,
                     _log_likelihood(nz, n_nz, px), kkt)


def _fisher_matrix(theta: np.ndarray, shots: np.ndarray) -> np.ndarray:
    """Fisher information over the non-identity coefficients of a window
    with coefficients theta and shots[j] shots of setting j of all_settings:
    F = sum_s n_s sum_o (grad p)(grad p)^T / p, p clipped at the floor.

    One pass over the measured settings: one matmul gives every
    probability, one batched Gram matrix of the sqrt(n / p)-weighted signs
    (exactly symmetric) every setting's block, and one bincount adds the
    blocks into F. A setting couples only strings whose sites carry the
    identity or its own axis.
    """
    width = n_sites_of(theta.size, 4)
    _, cols, signs = _design_blocks(width)
    measured = np.flatnonzero(shots)
    cols = cols[measured]
    p = np.clip(theta[cols] @ signs.T, _P_FLOOR, None)
    weighted = signs * np.sqrt(shots[measured, None] / p)[:, :, None]
    gram = weighted.transpose(0, 2, 1) @ weighted
    dim = 4**width
    flat = cols[:, :, None] * dim + cols[:, None, :]
    full = np.bincount(flat.ravel(), weights=gram.ravel(),
                       minlength=dim * dim).reshape(dim, dim)
    return full[1:, 1:]


def fisher_information(block: CountsBlock, rho_est: np.ndarray) -> np.ndarray:
    """_fisher_matrix of a window's counts at the estimate rho_est."""
    theta = coeffs_from_dense(np.asarray(rho_est, dtype=complex))
    return _fisher_matrix(theta, block.counts.sum(axis=1))


def block_data_from_counts(blocks: list[CountsBlock], n_sites: int,
                           tol: float = MLE_TOL,
                           max_iter: int = MLE_MAX_ITER) -> PauliBlockData:
    """Estimate every window from counts; Fisher noise holds their shots.

    blocks must share one width and hold one window per k in
    1..n_sites - width + 1. Both are checked before the first fit, and
    the number of windows before their starts, so a huge n_sites builds
    no list."""
    if not blocks:
        raise ValueError("no blocks given")
    widths = sorted({b.width for b in blocks})
    if len(widths) > 1:
        raise ValueError("blocks must share one width, not "
                         + " and ".join(f"R = {w}" for w in widths))
    width = widths[0]
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
        vecs.append(coeffs_from_dense(res.rho))
        shots.append(by_k[k].counts.sum(axis=1))
    return PauliBlockData(n_sites, width, np.array(vecs),
                          NoiseMeta("fisher", shots=np.array(shots)))


# ---- Serialization ----


def save_counts(blocks: list[CountsBlock], n_sites: int, path: str) -> None:
    """Write every window's measured (nonzero) rows in all_settings order."""
    width = blocks[0].width
    settings = all_settings(width)
    strings, _ = _outcome_tables(width)

    def nonzero(c):
        idx = np.flatnonzero(c)
        return dict(zip([strings[i] for i in idx.tolist()],
                        [int(v) for v in c[idx].tolist()]))

    payload = {
        "version": FORMAT_VERSION, "N": n_sites, "R": width, "d": 2,
        "blocks": [
            {"k": b.k, "settings": [
                {"s": settings[j], "shots": n, "counts": nonzero(b.counts[j])}
                for j, n in enumerate(b.counts.sum(axis=1).tolist()) if n]}
            for b in blocks],
    }
    write_json(path, payload)


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
    row_of = _setting_rows(width)
    _, index = _outcome_tables(width)
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
        row = row_of.get(setting)
        if row is None:
            raise ValueError(f"block {k}: setting {setting!r} is not "
                             f"{width} letters from 'xyz'")
        if row in listed:
            raise ValueError(f"block {k}: setting {setting!r} is listed "
                             "twice")
        listed.add(row)
        offset = row << width
        for o, v in table.items():
            col = index.get(o)
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
    counts = np.zeros(len(row_of) << width, dtype=np.int64)
    counts[flat] = values
    return counts.reshape(len(row_of), 1 << width)


def load_counts(path: str):
    """Returns (blocks, n_sites).

    Rejects a bad header (a version other than 1, a d other than 2), a
    missing field, an N, R, k, count or shots that is not an integer, an R
    outside 1..N or above DENSE_SITE_CAP (each window is fitted as a dense
    2^R matrix), a window start k outside 1..N-R+1 or listed twice,
    settings that are not strings of R letters from "xyz" or are listed
    twice in a window, outcomes that are not R characters from "+-",
    negative counts, and per-setting counts that do not sum to the
    declared shots. A window's setting records are checked one at a time
    in file order, so where several are faulty the first is named. A
    setting the file does not list is a zero row: not measured.
    """
    payload = _read_windows_file(path)
    n_sites, width = payload["N"], payload["R"]
    if not 1 <= width <= n_sites:
        raise ValueError(f"{path}: R = {width} is outside 1..N = {n_sites}")
    if width > DENSE_SITE_CAP:
        raise ValueError(f"{path}: R = {width} is above {DENSE_SITE_CAP}; "
                         "each window is fitted as a dense 2^R matrix")
    require_type(payload["blocks"], list, f"{path}: blocks")
    blocks = {}
    for i, rec in enumerate(payload["blocks"]):
        require(rec, ("k", "settings"), f"{path}: blocks[{i}]")
        require_type(rec["settings"], list, f"{path}: blocks[{i}] settings")
        require_type(rec["k"], int, f"{path}: blocks[{i}] k")
        k = rec["k"]
        if not 1 <= k <= n_sites - width + 1:
            raise ValueError(f"block k = {k} outside 1..{n_sites - width + 1}")
        if k in blocks:
            raise ValueError(f"block k = {k} is listed twice")
        blocks[k] = CountsBlock(k, _window_counts(rec["settings"], k, width,
                                                  path))
    return list(blocks.values()), n_sites


def save_block_data(data: PauliBlockData, path: str) -> None:
    noise = None
    if data.noise is not None:
        noise = {"kind": data.noise.kind}
        if data.noise.kind == "scalar":
            noise["sigma"] = data.noise.sigma
        else:
            noise["shots"] = data.noise.shots.tolist()
    payload = {
        "version": FORMAT_VERSION, "N": data.n_sites, "R": data.width,
        "d": 2, "blocks": float_record(data.blocks), "noise": noise,
    }
    write_json(path, payload)


def load_block_data(path: str) -> PauliBlockData:
    """Read a window data file; rejects a bad header, an N or R that is
    not an integer, `blocks` that are neither a float record nor a
    rectangular nested array of numbers (files.float_array),
    a `noise` other than null that is not an object with a `kind`, a
    scalar `sigma` that is not a number, fisher noise without `shots` (so
    a file that holds Fisher matrices) or with shots that are not rows of
    integers, and whatever PauliBlockData and NoiseMeta reject, including
    an unknown noise kind."""
    payload = _read_windows_file(path)
    noise = None
    raw = payload.get("noise")
    if raw is not None:
        where = f"{path}: noise"
        require(raw, ("kind",), where)
        sigma, shots = raw.get("sigma"), raw.get("shots")
        if sigma is not None:
            require_type(sigma, float, f"{where} sigma")
        if raw["kind"] == "fisher":
            require(raw, ("shots",), where)
            require_type(shots, list, f"{where} shots")
            if not all(type(row) is list and not set(map(type, row)) - {int}
                       for row in shots):
                for b, row in enumerate(shots):  # name the first offender
                    require_type(row, list, f"{where} shots[{b}]")
                    for j, n in enumerate(row):
                        require_type(n, int, f"{where} shots[{b}][{j}]")
            if len({len(row) for row in shots}) > 1:
                raise ValueError(f"{where} shots: rows differ in length")
        noise = NoiseMeta(raw["kind"],
                          sigma=None if sigma is None else float(sigma),
                          shots=shots)
    return PauliBlockData(payload["N"], payload["R"],
                          float_array(payload["blocks"], f"{path}: blocks"),
                          noise)
