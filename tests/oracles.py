"""Independent brute-force oracles used to derive expected test values.

Everything here is written against first definitions (explicit matrices,
nested loops, finite differences) and deliberately avoids the package's
own helpers, so agreement between the two is evidence, not tautology.
"""

import functools
import itertools

import numpy as np

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (I2, SX, SY, SZ)


def kron_chain(mats):
    return functools.reduce(np.kron, mats)


def string_dense(alphas, normalized=True):
    """Dense Pauli string; normalized divides by sqrt(2) per site."""
    out = kron_chain([PAULIS[a] for a in alphas])
    if normalized:
        out = out / 2.0 ** (len(list(alphas)) / 2.0)
    return out


def coeff_by_trace(rho, alphas):
    """tr[rho P(alphas)] evaluated by literal matrix product."""
    return complex(np.trace(rho @ string_dense(alphas)))


def pack_index(alphas):
    """Flat index of a multi-site string, site 1 most significant."""
    idx = 0
    for a in alphas:
        idx = idx * 4 + int(a)
    return idx


def unpack_index(idx, m):
    """Site labels (a_1, ..., a_m) of the flat big-endian string index."""
    out = []
    for _ in range(m):
        out.append(idx % 4)
        idx //= 4
    if idx:
        raise ValueError("index out of range for m sites")
    return tuple(reversed(out))


def all_coeffs_by_trace(rho, n):
    """Full coefficient vector by looping every string. Exponential; keep
    n small."""
    out = np.zeros(4**n, dtype=complex)
    for idx in range(4**n):
        out[idx] = coeff_by_trace(rho, unpack_index(idx, n))
    return out


def partial_trace_loops(M, keep, n):
    """Partial trace by explicit index loops; keep is 1-based sites."""
    keep = sorted(keep)
    traced = [s for s in range(1, n + 1) if s not in keep]
    nk, nt = len(keep), len(traced)
    out = np.zeros((2**nk, 2**nk), dtype=complex)
    for rk in range(2**nk):
        for ck in range(2**nk):
            acc = 0.0 + 0.0j
            for t in range(2**nt):
                row = [0] * n
                col = [0] * n
                for j, s in enumerate(keep):
                    row[s - 1] = (rk >> (nk - 1 - j)) & 1
                    col[s - 1] = (ck >> (nk - 1 - j)) & 1
                for j, s in enumerate(traced):
                    b = (t >> (nt - 1 - j)) & 1
                    row[s - 1] = b
                    col[s - 1] = b
                ri = int("".join(map(str, row)), 2)
                ci = int("".join(map(str, col)), 2)
                acc += M[ri, ci]
            out[rk, ck] = acc
    return out


AXIS_KETS = {
    "x": (np.array([1, 1]) / np.sqrt(2), np.array([1, -1]) / np.sqrt(2)),
    "y": (np.array([1, 1j]) / np.sqrt(2), np.array([1, -1j]) / np.sqrt(2)),
    "z": (np.array([1, 0]), np.array([0, 1])),
}


# The basis change to each measured axis, as np.kron factors of the
# setting unitaries.
AXIS_BASES = {"z": I2, "x": np.array([[1, 1], [1, -1]]) / np.sqrt(2.0),
              "y": np.array([[1, -1j], [1, 1j]]) / np.sqrt(2.0)}


def outcome_probability(rho, setting, outcome_bits):
    """tr[rho (proj_1 x ... x proj_w)] with explicit rank-1 projectors."""
    projs = []
    for ch, b in zip(setting, outcome_bits):
        k = np.asarray(AXIS_KETS[ch][b], dtype=complex)
        projs.append(np.outer(k, k.conj()))
    return float(np.trace(rho @ kron_chain(projs)).real)


def setting_probabilities(rho, setting):
    """Outcome distribution of one setting, through the package's own
    unitary and probability kernel, so that simulate_counts' draws can be
    replayed bit for bit; outcome_probability checks it independently."""
    from mpotomo.measurement import _probabilities, _setting_unitaries

    axes = np.array([["xyz".index(ch) for ch in setting]])
    return _probabilities([rho], _setting_unitaries(axes))[0, 0]


def setting_probabilities_einsum(rho, setting):
    """Outcome distribution of one setting as diag(u rho u^dagger) from an
    np.kron chain of the per-site basis changes and one einsum, clipped at
    zero and normalized: the per-setting form the package's batched kernel
    replaces."""
    u = kron_chain([AXIS_BASES[ch] for ch in setting]).astype(complex)
    p = np.einsum("ij,jk,ik->i", u, rho, u.conj(), optimize=True).real
    p = np.clip(p, 0.0, None)
    return p / p.sum()


def rho_from_theta(theta, n):
    """Sum of theta[idx] * normalized string, looped literally."""
    dim = 2**n
    rho = np.zeros((dim, dim), dtype=complex)
    for idx in range(4**n):
        rho += theta[idx] * string_dense(unpack_index(idx, n))
    return rho


def settings_loop(width):
    """The 3^width setting strings, x before y before z at every site."""
    return ["".join(s) for s in itertools.product("xyz", repeat=width)]


def fisher_by_finite_difference(counts, width, theta, h=1e-6):
    """F_ij = sum_s n_s sum_o dp_i dp_j / p with dp from central
    differences of the projector probabilities; rows/cols over
    non-identity coefficients. counts[j] is the histogram of setting j of
    settings_loop(width)."""
    n_par = 4**width - 1
    settings = settings_loop(width)
    outs = [tuple((o >> (width - 1 - i)) & 1 for i in range(width))
            for o in range(2**width)]

    def probs(th):
        rho = rho_from_theta(th, width)
        return {
            s: np.array([outcome_probability(rho, s, ob) for ob in outs])
            for s in settings
        }

    grads = {s: np.zeros((2**width, n_par)) for s in settings}
    for j in range(n_par):
        tp, tm = theta.copy(), theta.copy()
        tp[1 + j] += h
        tm[1 + j] -= h
        pp, pm = probs(tp), probs(tm)
        for s in settings:
            grads[s][:, j] = (pp[s] - pm[s]) / (2 * h)
    p0 = probs(theta)
    F = np.zeros((n_par, n_par))
    for s, hist in zip(settings, counts):
        n_s = hist.sum()
        p = np.clip(p0[s], 1e-12, None)
        F += n_s * (grads[s].T @ (grads[s] / p[:, None]))
    return F


def fisher_matrix_loop(theta, shots):
    """Fisher information over every coefficient, one setting at a time:
    each setting's block signs^T diag(n / p) signs is added into F at its
    strings with np.ix_. The per-setting reference for the package's
    batched _fisher_matrix; the design comes from the package, which
    fisher_by_finite_difference checks independently."""
    from mpotomo.measurement import _design

    width = int(round(np.log(theta.size) / np.log(4)))
    cols, signs = _design(width)[:2]
    full = np.zeros((4**width, 4**width))
    for j in np.flatnonzero(shots):
        p = np.clip(signs @ theta[cols[j]], 1e-12, None)
        m = signs.T @ (signs / p[:, None]) * shots[j]
        full[np.ix_(cols[j], cols[j])] += m
    return full


def fisher_penalty_marginal(theta, shots, l, r):
    """(P, flags) of the package's _fisher_penalty from first definitions.

    The marginal of the window's first l + r sites is taken by a partial
    trace of the dense window and its coefficients by traces; each of its
    settings gets the shots of every window setting that extends it. The
    covariance of B's entries is one dense inverse of that marginal's
    information (fisher_matrix_loop), and P[j, j'] = sum_i Cov[(i, j),
    (i, j')] is summed entry by entry. Information with an eigenvalue at
    rounding level gives the scalar fallback: the mean over columns j of
    the summed pseudoinverse variances, times the identity."""
    width = l + r + 1
    dim_l, dim_r = 4**l, 4**r
    rho = partial_trace_loops(rho_from_theta(theta, width),
                              range(1, width), width)
    theta_m = all_coeffs_by_trace(rho, width - 1).real
    by_setting = dict.fromkeys(settings_loop(width - 1), 0)
    for setting, n in zip(settings_loop(width), shots):
        by_setting[setting[:-1]] += n
    F = fisher_matrix_loop(theta_m,
                           np.array(list(by_setting.values())))[1:, 1:]
    w = np.linalg.eigvalsh(F)
    if w[0] <= 1e-12 * max(w[-1], 1e-300):
        var = np.concatenate([[0.0], np.diag(np.linalg.pinv(
            F, rcond=1e-12, hermitian=True))])
        scale = np.mean(var.reshape(dim_l, dim_r).sum(axis=0))
        return scale * np.eye(dim_r), ["fisher_singular_scalar"]
    cov = np.zeros((dim_l * dim_r, dim_l * dim_r))
    cov[1:, 1:] = np.linalg.inv(F)
    P = np.zeros((dim_r, dim_r))
    for i in range(dim_l):
        for j in range(dim_r):
            for jj in range(dim_r):
                P[j, jj] += cov[i * dim_r + j, i * dim_r + jj]
    return P, []


def identity_environments_unscaled(mpo, upto, downto):
    """The identity environments as plain loops with no scale: left[k]
    traces sites 1..k-1, each as sqrt(2) times its alpha = 0 slice, and
    right[k] sites k+1..N (1-based k; left[1..upto], right[downto..N]).
    Wherever no partial product leaves the float range, the package's
    scaled sweep must reproduce these bit for bit, with exponent 0."""
    t, n = mpo.tensors, mpo.n_sites
    rt = np.sqrt(2.0)
    left, right = [None] * (n + 2), [None] * (n + 2)
    left[1], right[n] = np.ones(1), np.ones(1)
    for k in range(1, upto):
        left[k + 1] = rt * (left[k] @ t[k - 1][0])
    for k in range(n, downto, -1):
        right[k - 1] = rt * (t[k - 1][0] @ right[k])
    return left, right


def window_coeffs_tensordot(mpo, k, width):
    """One window contracted site by site with np.tensordot.

    The environments are rebuilt without a scale on every call. This is
    the per-window reference contraction; the package's batched window
    kernel must reproduce it bit for bit.
    """
    left, right = identity_environments_unscaled(mpo, k, k + width - 1)
    G = left[k]
    for i in range(k - 1, k - 1 + width):
        G = np.tensordot(G, mpo.tensors[i], axes=(G.ndim - 1, 1))
    return np.tensordot(G, right[k + width - 1],
                        axes=(G.ndim - 1, 0)).reshape(-1)


def transfer_tensordot(env, ta, tb):
    """One site of an overlap sweep, sum_a ta[a]^T env tb[a], with
    np.tensordot; the package's transfer must reproduce it bit for bit."""
    return np.tensordot(ta.transpose(0, 2, 1) @ env, tb,
                        axes=([0, 2], [0, 1]))


def mpo_overlap_unscaled(a, b):
    """tr[a b] as a plain transfer loop with no scale; the package's
    scaled sweep must reproduce it bit for bit wherever no partial product
    leaves the float range."""
    T = np.ones((1, 1))
    for ta, tb in zip(a.tensors, b.tensors):
        T = transfer_tensordot(T, ta, tb)
    return float(T[0, 0])


def random_mps_per_site(n_sites, bond, rng):
    """Unit-norm random MPS drawn one tensor at a time (real part, then
    imaginary part) and normalized by a tensordot sweep of the norm; the
    package's one-draw random_mps must reproduce it bit for bit."""
    tensors = []
    for i in range(n_sites):
        shape = (2, 1 if i == 0 else bond, 1 if i == n_sites - 1 else bond)
        tensors.append(rng.standard_normal(shape)
                       + 1.0j * rng.standard_normal(shape))
    T = np.ones((1, 1), dtype=complex)
    for A in tensors:
        T = transfer_tensordot(T, A.conj(), A)
    scale = np.sqrt(T[0, 0].real) ** (-1.0 / n_sites)
    return [A * scale for A in tensors]


def ancilla_channel_per_site(rng, t_hnorm):
    """One site's ancilla-coupling superoperator from its own draws, 4 x 4
    eigh and tensordot; the per-site reference for the package's stacked
    ancilla_channel, which must reproduce it bit for bit."""
    g = rng.standard_normal((4, 4)) + 1.0j * rng.standard_normal((4, 4))
    h = (g + g.conj().T) / 2.0
    evals, evecs = np.linalg.eigh(h)
    opnorm = np.max(np.abs(evals))
    t = 0.0 if opnorm == 0 else t_hnorm / opnorm
    u = (evecs * np.exp(-1.0j * t * evals)) @ evecs.conj().T
    kraus = u.reshape(2, 2, 2, 2)[:, :, :, 0].transpose(1, 0, 2)
    return np.tensordot(kraus, kraus.conj(), axes=(0, 0)).transpose(
        0, 2, 1, 3).reshape(4, 4)


def mps_to_mpo_per_site(mps, channels=None):
    """Real MPO tensors of an MPS after a channel per site, one site at a
    time with the Hermitian bond basis rebuilt for every bond; the package's
    stacked mps_to_mpo must reproduce them bit for bit. The bases and the
    Pauli transform come from the package."""
    from mpotomo.pauli import SITE_TRANSFORM, hermitian_basis

    bonds = [A.shape[1] for A in mps] + [mps[-1].shape[2]]
    Q = [hermitian_basis(D).reshape(D * D, D * D).T for D in bonds]
    tensors = []
    for i, A in enumerate(mps):
        dl, dr = A.shape[1], A.shape[2]
        pair = np.multiply.outer(A, A.conj()).transpose(0, 3, 1, 4, 2, 5)
        pair = pair.reshape(4, dl * dl * dr * dr)
        S = np.eye(4, dtype=complex) if channels is None else channels[i]
        T = ((SITE_TRANSFORM @ S) @ pair).reshape(4, dl * dl, dr * dr)
        T = Q[i].conj().T @ T @ Q[i + 1]
        assert np.max(np.abs(T.imag)) <= 1e-10 * max(
            1.0, np.max(np.abs(T.real)))
        tensors.append(T.real)
    return tensors


def random_mpo_per_site(n_sites, seed=None, t_hnorm=0.01):
    """Tensors of random_mpo_via_ancilla built one site at a time."""
    rng = np.random.default_rng(seed)
    mps = random_mps_per_site(n_sites, 2, rng)
    channels = [ancilla_channel_per_site(rng, t_hnorm)
                for _ in range(n_sites)]
    return mps_to_mpo_per_site(mps, channels)


def random_mpo(n_sites, bond, seed=None):
    """Random real-tensor network with the given uniform bulk bond dimension.

    Used for generic-position checks; the global operator is Hermitian by
    construction but not positive. Resamples until the trace is nonzero.
    """
    from mpotomo.operators import MatrixProductOperator

    rng = np.random.default_rng(seed)
    for _ in range(64):
        tensors = []
        for i in range(n_sites):
            dl = 1 if i == 0 else bond
            dr = 1 if i == n_sites - 1 else bond
            tensors.append(rng.standard_normal((4, dl, dr)))
        mpo = MatrixProductOperator(tensors)
        if abs(mpo.trace) > 1e-6:
            return mpo
    raise RuntimeError("failed to draw a network with nonzero trace")


def mixed_product_chain(n_sites, scale=1.0):
    """n_sites copies of scale * (I + 0.6 Z) / 2 as a bond-1 network: trace
    scale^N and purity (0.68 scale^2)^N."""
    from mpotomo.operators import MatrixProductOperator

    t = np.zeros((4, 1, 1))
    t[0], t[3] = scale / np.sqrt(2.0), 0.6 * scale / np.sqrt(2.0)
    return MatrixProductOperator([t] * n_sites)


def recursion_coefficient(blocks, alphas, l, r, solve=None):
    """One basis-string coefficient by the backward recursion, qubits only.

    blocks[b] is the coefficient vector of the window on sites
    b+1 .. b+l+r+1. Site k's system reads window k-l: C lists its left l
    sites against the right r+1 sites, and B = sqrt(2) * C with the last
    site fixed to the identity. solve(B, e) defaults to the pseudoinverse
    with relative cutoff 1e-10.
    """
    if solve is None:
        def solve(B, e):
            return np.linalg.pinv(B, rcond=1e-10) @ e

    def packed(sub):
        idx = 0
        for a in sub:
            idx = 4 * idx + int(a)
        return idx

    alphas = list(alphas)
    n = len(alphas)
    if n == l + r + 1:
        return float(blocks[0][packed(alphas)])

    def window(k):
        v = np.asarray(blocks[k - l - 1], dtype=float)
        C = v.reshape(4**l, 4, 4**r)
        B = np.sqrt(2.0) * v.reshape(4**l, 4**r, 4)[:, :, 0]
        return B, C

    y = np.zeros(4**r)
    y[packed(alphas[n - r:])] = 1.0
    for k in range(n - r, l, -1):
        B, C = window(k)
        y = solve(B, C[:, alphas[k - 1], :] @ y)
    B, _ = window(l + 1)
    return float(B[packed(alphas[:l])] @ y)


# Site transform W[a, r*2 + c] = P(a)[c, r] of the normalized Pauli basis,
# so that (W @ vec(M))[a] = tr[M P(a)]; its inverse is W^dagger.
_W = np.array([(P / np.sqrt(2.0)).T.reshape(-1) for P in PAULIS])


def coeffs_from_dense_tensordot(M):
    """Pauli coefficients of a qubit operator, one tensordot per site axis.

    The per-axis reference transform; the package's transform must
    reproduce it bit for bit.
    """
    m = int(round(np.log2(M.shape[0])))
    T = M.reshape((2,) * (2 * m))
    perm = [ax for i in range(m) for ax in (i, m + i)]
    T = T.transpose(perm).reshape((4,) * m)
    for k in range(m):
        T = np.moveaxis(np.tensordot(_W, T, axes=(1, k)), 0, k)
    return np.ascontiguousarray(T.reshape(-1).real)


def dense_from_coeffs_tensordot(c):
    """Inverse of coeffs_from_dense_tensordot, one tensordot per site."""
    m = int(round(np.log(c.shape[0]) / np.log(4)))
    T = np.asarray(c, dtype=complex).reshape((4,) * m)
    for k in range(m):
        T = np.moveaxis(np.tensordot(_W.conj().T, T, axes=(1, k)), 0, k)
    T = T.reshape((2, 2) * m)
    perm = [2 * i for i in range(m)] + [2 * i + 1 for i in range(m)]
    return T.transpose(perm).reshape(2**m, 2**m)


def project_density_transforms(theta):
    """Nearest unit-trace PSD matrix to the operator with coefficients
    theta, as coefficients: the public Pauli transforms around one eigh.

    The package's X/Z-layout projection must agree with it to rounding,
    and likelihood fits with either must take the same iterations. The
    eigenvalues go through the package's simplex projection, so that the
    two differ only in how the matrix is formed and read.
    """
    from mpotomo.measurement import _simplex_projection
    from mpotomo.pauli import coeffs_from_dense, dense_from_coeffs

    w, v = np.linalg.eigh(dense_from_coeffs(theta))
    return coeffs_from_dense((v * _simplex_projection(w)) @ v.conj().T)


def local_mle_reference(block, tol=1e-10, max_iter=10_000):
    """R rho R likelihood ascent written as the plain per-iteration loop.

    Returns (rho, converged, n_iter, log_likelihood). A second estimator,
    with the Pauli transforms of the tensordot references above: the
    package's fit must reach at least its likelihood. The measurement
    design comes from the package, which the Fisher-information oracle
    checks independently.
    """
    from mpotomo.measurement import _design

    floor = 1e-12

    def log_likelihood(n_mat, p_mat):
        p = np.clip(p_mat, floor, None)
        mask = n_mat > 0
        return float(np.sum(n_mat[mask] * np.log(p[mask])))

    width = block.width
    dim = 1 << width
    cols, signs = _design(width)[:2]
    n_mat = block.counts
    n_tot = n_mat.sum()
    rho = np.eye(dim, dtype=complex) / dim
    p_mat = coeffs_from_dense_tensordot(rho)[cols] @ signs.T
    ll = log_likelihood(n_mat, p_mat)
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        ratio = n_mat / np.clip(p_mat, floor, None)
        grad = np.bincount(cols.ravel(), weights=(ratio @ signs).ravel(),
                           minlength=4**width)
        r_op = dense_from_coeffs_tensordot(grad)
        step = 1.0
        accepted = False
        for _ in range(40):
            g = (1.0 - step) * np.eye(dim) + (step / n_tot) * r_op
            cand = g @ rho @ g.conj().T
            cand = (cand + cand.conj().T) / 2.0
            cand /= np.trace(cand).real
            cand_p = coeffs_from_dense_tensordot(cand)[cols] @ signs.T
            cand_ll = log_likelihood(n_mat, cand_p)
            if cand_ll >= ll - 1e-13 * max(1.0, abs(ll)):
                accepted = True
                break
            step /= 2.0
        if not accepted:
            break
        gain = cand_ll - ll
        rho, p_mat, ll = cand, cand_p, cand_ll
        if gain < tol:
            converged = True
            break
    return rho, converged, it, ll


# ---- file writers of the nested-number format ----
#
# The writers of files before float arrays were stored as float64
# records: every float is a JSON number and every outcome string is
# formatted one at a time. Each returns the payload the old writer passed
# to json.dumps, so json.dumps of it gives that writer's bytes.


def counts_payload_loop(blocks, n_sites):
    width = blocks[0].width

    def outcome(idx):
        return format(idx, f"0{width}b").replace("0", "+").replace("1", "-")

    return {
        "version": 1, "N": n_sites, "R": width, "d": 2,
        "blocks": [
            {"k": b.k, "settings": [
                {"s": s, "shots": int(c.sum()),
                 "counts": {outcome(i): int(v) for i, v in enumerate(c)
                            if v}}
                for s, c in zip(settings_loop(width), b.counts) if c.any()]}
            for b in blocks],
    }


def operator_payload_nested(op):
    if hasattr(op, "tensors"):
        kind, data = "mpo", {"bond_dims": op.bond_dims,
                             "tensors": [t.tolist() for t in op.tensors]}
    else:
        kind, data = "dense", {"matrix": [[[float(z.real), float(z.imag)]
                                           for z in row] for row in op.matrix]}
    return {"version": 1, "kind": kind, "n_sites": op.n_sites, "d": 2,
            **data}


def block_data_payload_nested(data):
    noise = None
    if data.noise_kind is not None:
        noise = {"kind": data.noise_kind}
        if data.noise_kind == "scalar":
            noise["sigma"] = data.sigma
        else:
            noise["shots"] = data.shots.tolist()
    return {"version": 1, "N": data.n_sites, "R": data.width, "d": 2,
            "blocks": data.blocks.tolist(), "noise": noise}


def w_kets(n_sites, phases):
    """Unit W(phi) kets, one row per row of phases (..., n_sites - 1).

    The branch with the excitation j sites in from the right is basis
    state 2^j; the last site's (j = 0) carries phase zero and branch j
    carries phases[..., j - 1], as states.w_state documents.
    """
    phases = np.atleast_2d(phases)
    psi = np.zeros((len(phases), 2**n_sites), dtype=complex)
    psi[:, 1] = 1.0
    for j in range(1, n_sites):
        psi[:, 1 << j] = np.exp(1j * phases[:, j - 1])
    return psi / np.sqrt(n_sites)


def w_fidelity_at(rho, phases):
    """<W(phi)| rho |W(phi)> for each row of phases, from the kets."""
    n = int(np.log2(rho.shape[0]))
    psi = w_kets(n, phases)
    return np.einsum("si,ij,sj->s", psi.conj(), rho, psi).real


def w_fidelity_grid(rho, n_grid):
    """Best W fidelity over the grid of n_grid^(N-1) phase tuples
    2 pi m / n_grid: a lower bound on the maximum."""
    n = int(np.log2(rho.shape[0]))
    axis = 2.0 * np.pi * np.arange(n_grid) / n_grid
    grid = np.stack(np.meshgrid(*[axis] * (n - 1), indexing="ij"), axis=-1)
    return float(w_fidelity_at(rho, grid.reshape(-1, n - 1)).max())


def w_fidelity_power_method(rho, n_starts, seed, max_iter=20_000):
    """Best W fidelity over generalized power iterations z <- phase(A z)
    from n_starts random phasor starts, A the single-excitation block
    shifted to be positive semidefinite (the shift adds the same constant
    to every unit-modulus z, and makes each step nondecreasing)."""
    n = int(np.log2(rho.shape[0]))
    idx = [1 << j for j in range(n)]
    block = rho[np.ix_(idx, idx)]
    shift = max(0.0, -np.linalg.eigvalsh(block)[0])
    A = block + shift * np.eye(n)
    Z = np.exp(2j * np.pi * np.random.default_rng(seed).random((n_starts, n)))
    for _ in range(max_iter):
        Y = Z @ A.T
        Z_new = np.where(np.abs(Y) > 1e-300, Y / np.abs(Y).clip(1e-300), Z)
        done = np.abs(Z_new - Z).max() < 1e-14
        Z = Z_new
        if done:
            break
    return float((np.einsum("si,ij,sj->s", Z.conj(), block, Z).real / n)
                 .max())
