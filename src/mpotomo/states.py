"""Reference state generators: thermal chains, random networks, named states.

Thermal states are produced by exact diagonalization and are therefore
limited to the dense site cap. The random matrix-product family draws a
Gaussian bond-2 pure state, weakly couples every site to its own qubit
ancilla with a random Hermitian generator, and traces the ancillas out,
which yields a positive operator with bond dimension exactly 4.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .files import require_integer, require_real
from .operators import (DENSE_SITE_CAP, DenseOperator, MatrixProductOperator,
                        _transfer)
from .pauli import SIGMA, SITE_TRANSFORM, hermitian_basis

# ---- Hamiltonians and thermal states ----

# The options each family reads, the one table make_state, gen-state and
# sweeps share. The families that read beta are the thermal ones.
FAMILIES = {"critical_ising": ("beta",),
            "random_next_neighbour": ("beta", "seed"),
            "random_mpo": ("seed", "t_hnorm"),
            "w": ("phases",), "ghz": (), "product": ()}


def _embed(term: np.ndarray, i: int, n: int) -> np.ndarray:
    """term acting on the sites from i on that its size spans, identity
    elsewhere; 1-based i."""
    left = np.eye(2 ** (i - 1))
    right = np.eye(2**n // (len(left) * len(term)))
    return np.kron(np.kron(left, term), right)


def hamiltonian_dense(family: str, n_sites: int, seed=None) -> np.ndarray:
    """Nearest-neighbour chain Hamiltonian of a thermal family; `seed`
    draws the random couplings of random_next_neighbour."""
    if "beta" not in FAMILIES.get(family, ()):
        raise ValueError(f"unknown family {family!r}")
    if n_sites < 2:
        raise ValueError("need at least two sites")
    if n_sites > DENSE_SITE_CAP:
        raise ValueError(
            f"exact diagonalization capped at {DENSE_SITE_CAP} sites")
    if family == "critical_ising":
        h = np.zeros((2**n_sites, 2**n_sites), dtype=complex)
        xx = np.kron(SIGMA[1], SIGMA[1])
        for i in range(1, n_sites):
            h -= _embed(xx, i, n_sites)
        for i in range(1, n_sites + 1):
            h -= _embed(SIGMA[3], i, n_sites)
        return h
    rng = np.random.default_rng(seed)
    h = np.zeros((2**n_sites, 2**n_sites), dtype=complex)
    for i in range(1, n_sites):
        g = rng.standard_normal((4, 4)) + 1.0j * rng.standard_normal((4, 4))
        h += _embed((g + g.conj().T) / 2.0, i, n_sites)
    return h


def thermal_dense(family: str, n_sites: int, beta: float,
                  seed=None) -> DenseOperator:
    """Gibbs state exp(-beta H) / Z of hamiltonian_dense(family, n_sites,
    seed) by exact diagonalization."""
    require_real(beta, "beta", nonnegative=True)
    h = hamiltonian_dense(family, n_sites, seed)
    evals, evecs = np.linalg.eigh(h)
    w = np.exp(-beta * (evals - evals.min()))
    w /= w.sum()
    rho = (evecs * w) @ evecs.conj().T
    return DenseOperator((rho + rho.conj().T) / 2.0)


# ---- Matrix-product machinery for pure states and local channels ----

# mps_to_mpo contracts sites in stacks of at most this many bytes of pair
# products: 256 sites of bond 2.
_CHUNK_BYTES = 1 << 18


def _require_sites(n_sites: int) -> None:
    require_integer(n_sites, "n_sites")
    if n_sites < 1:
        raise ValueError(f"need at least one site, not n_sites = {n_sites}")


def random_mps(n_sites: int, bond: int, rng) -> list[np.ndarray]:
    """Unit-norm pure state with iid complex Gaussian tensors (2, Dl, Dr).

    One draw fills every tensor: per site the real part, then the
    imaginary part, in site order.
    """
    _require_sites(n_sites)
    dims = [1] + [bond] * (n_sites - 1) + [1]
    shapes = [(2, dl, dr) for dl, dr in zip(dims, dims[1:])]
    draws = rng.standard_normal(sum(2 * math.prod(s) for s in shapes))
    tensors = []
    end = 0
    for shape, run in itertools.groupby(shapes):
        k = len(list(run))
        start, end = end, end + k * 2 * math.prod(shape)
        part = draws[start:end].reshape((k, 2) + shape)
        tensors.extend(part[:, 0] + 1.0j * part[:, 1])
    T = np.ones((1, 1), dtype=complex)
    for A in tensors:
        T = _transfer(T, A.conj(), A)
    norm = np.sqrt(T[0, 0].real)
    scale = norm ** (-1.0 / n_sites)
    return [A * scale for A in tensors]


def mps_to_mpo(mps: list[np.ndarray], channels=None) -> MatrixProductOperator:
    """Density operator of an MPS after an optional local channel per site.

    channels, if given, is the (N, 4, 4) stack of superoperators, S[i] with
    S[i][(s', t'), (s, t)] the matrix element Lambda_i(|s><t|)[s', t'].
    Bond pair indices are rotated into a Hermitian operator basis, which
    makes every tensor real at bond dimension D^2. Sites whose tensors
    share a shape are contracted as stacks whose pair products hold at
    most _CHUNK_BYTES each, so a long chain's transients stay bounded;
    each site's tensor comes from the same matmul calls at any stack size.
    """
    n = len(mps)
    maps = SITE_TRANSFORM @ (np.eye(4, dtype=complex) if channels is None
                             else np.asarray(channels))
    Q = {D: hermitian_basis(D).reshape(D * D, D * D).T
         for D in {A.shape[1] for A in mps} | {mps[-1].shape[2]}}
    groups = {}
    for i, A in enumerate(mps):
        groups.setdefault(A.shape, []).append(i)
    tensors = [None] * n
    bad = []
    for (_, dl, dr), group in groups.items():
        # a site's pair products: 4 (s, t) by dl^2 dr^2 complex entries
        step = max(1, _CHUNK_BYTES // (64 * dl * dl * dr * dr))
        for lo in range(0, len(group), step):
            sites = group[lo:lo + step]
            A = np.stack([mps[i] for i in sites])
            # pair[i, (s, t), (a, c), (b, e)]
            #     = A[i, s, a, b] conj(A[i, t, c, e])
            pair = (A[:, :, None, :, None, :, None]
                    * A.conj()[:, None, :, None, :, None, :])
            pair = pair.reshape(len(sites), 4, dl * dl * dr * dr)
            S = maps if channels is None else maps[sites]
            T = (S @ pair).reshape(len(sites), 4, dl * dl, dr * dr)
            T = Q[dl].conj().T @ T @ Q[dr]
            imag = np.abs(T.imag).max(axis=(1, 2, 3))
            real = np.abs(T.real).max(axis=(1, 2, 3))
            bad.extend(np.asarray(sites)[imag > 1e-10 * np.maximum(1.0,
                                                                   real)])
            # contiguous, so the MPO keeps the chunk's real parts as they are
            for i, t in zip(sites, np.ascontiguousarray(T.real)):
                tensors[i] = t
    if bad:
        raise ValueError(f"bond gauge failed to produce real tensors: site "
                         f"{min(bad) + 1} of {n} is complex")
    return MatrixProductOperator(tensors)


def ancilla_channel(rng, n_sites: int, t_hnorm: float) -> np.ndarray:
    """Superoperators of a weak random coupling of each of n_sites qubits
    to its own qubit ancilla, as an (n_sites, 4, 4) stack.

    Per site, draws H = (G + G^dagger)/2 with complex Gaussian G on the
    site-ancilla pair (one draw: per site the real part, then the
    imaginary part), evolves for a time t with t * opnorm(H) = t_hnorm
    (t = 0 if H = 0), ancilla starting in |0>, then traces the ancilla.
    """
    draws = rng.standard_normal((n_sites, 2, 4, 4))
    g = draws[:, 0] + 1.0j * draws[:, 1]
    h = (g + g.conj().transpose(0, 2, 1)) / 2.0
    evals, evecs = np.linalg.eigh(h)
    opnorm = np.max(np.abs(evals), axis=1)
    t = np.divide(t_hnorm, opnorm, out=np.zeros(n_sites), where=opnorm != 0)
    phases = np.exp((-1.0j * t)[:, None] * evals)
    u = (evecs * phases[:, None, :]) @ evecs.conj().transpose(0, 2, 1)
    # kraus[i, a', (s', s)] = <s' a'| u_i |s 0>
    kraus = u.reshape(n_sites, 2, 2, 2, 2)[..., 0].transpose(0, 2, 1, 3)
    kraus = kraus.reshape(n_sites, 2, 4)
    S = kraus.transpose(0, 2, 1) @ kraus.conj()
    return S.reshape(n_sites, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(
        n_sites, 4, 4)


def random_mpo_via_ancilla(n_sites: int, seed=None,
                           t_hnorm: float = 0.01) -> MatrixProductOperator:
    """Random positive operator with bond dimension 4 and unit trace.

    One draw for the bond-2 pure state and one for every site's coupling,
    one stacked eigh and a few stacked matmuls per chain; only the norm of
    the pure state is swept site by site. The cost is linear in N: about
    10 ms at N = 256 with one BLAS thread (2-core x86-64 machine).
    """
    require_real(t_hnorm, "t_hnorm")
    rng = np.random.default_rng(seed)
    mps = random_mps(n_sites, 2, rng)
    return mps_to_mpo(mps, ancilla_channel(rng, n_sites, t_hnorm))


# ---- Named states and the family dispatch ----


def _pure_state(mps: list[np.ndarray]):
    """(dense or None, MPO) of the pure state of an MPS; the dense form is
    contracted from the MPS up to DENSE_SITE_CAP sites."""
    dense = None
    if len(mps) <= DENSE_SITE_CAP:
        vec = np.ones((1, 1), dtype=complex)
        for A in mps:
            # vec[p, s, b] = sum_a vec[p, a] A[s, a, b]
            vec = (vec[:, None, :, None] * A).sum(axis=2).reshape(
                -1, A.shape[2])
        dense = DenseOperator(np.outer(vec[:, 0], vec[:, 0].conj()))
    return dense, mps_to_mpo(mps)


def _w_mps(n_sites: int, phases=None) -> list[np.ndarray]:
    _require_sites(n_sites)
    n = n_sites
    phases = np.zeros(n - 1) if phases is None else np.asarray(phases, float)
    if phases.shape != (n - 1,):
        raise ValueError("need n_sites - 1 phases")
    if not np.isfinite(phases).all():
        raise ValueError(f"phases must be finite, not {phases.tolist()!r}")
    phi = np.concatenate(([0.0], phases))
    # A[i, 1, 0, 1] multiplies the branch with the excitation at site i + 1
    A = np.zeros((n, 2, 2, 2), dtype=complex)
    A[:, 0] = np.eye(2)
    A[:, 1, 0, 1] = np.exp(1.0j * phi[::-1]) / np.sqrt(n)
    mps = list(A)
    mps[0] = mps[0][:, :1, :]
    mps[-1] = mps[-1][:, :, 1:]
    return mps


def _ghz_mps(n_sites: int) -> list[np.ndarray]:
    _require_sites(n_sites)
    A = np.zeros((2, 2, 2), dtype=complex)
    A[0, 0, 0] = A[1, 1, 1] = 1.0
    mps = [A] * n_sites
    mps[0] = np.full((1, 2), 2.0 ** -0.5) @ mps[0]
    mps[-1] = mps[-1] @ np.ones((2, 1))
    return mps


def _product_mps(n_sites: int, kets=None) -> list[np.ndarray]:
    _require_sites(n_sites)
    if kets is None:
        kets = [np.array([1.0, 0.0])] * n_sites
    if len(kets) != n_sites:
        raise ValueError("need one ket per site")
    kets = [np.asarray(v, dtype=complex) for v in kets]
    norms = [np.linalg.norm(v) for v in kets]
    for site, norm in enumerate(norms, start=1):
        if not 0.0 < norm < np.inf:
            raise ValueError(f"ket {site}: norm {norm} is zero or not finite")
    return [(v / r).reshape(2, 1, 1) for v, r in zip(kets, norms)]


def w_state(n_sites: int, phases=None):
    """W state with relative branch phases; returns (dense or None, MPO).

    The branch with the excitation on the last site carries phase zero and
    phases[j - 1] multiplies the branch with the excitation j sites in
    from the right, so len(phases) == n_sites - 1.
    """
    return _pure_state(_w_mps(n_sites, phases))


def ghz_state(n_sites: int):
    """GHZ state (|0...0> + |1...1>)/sqrt(2); returns (dense or None, MPO).
    One site gives (|0> + |1>)/sqrt(2)."""
    return _pure_state(_ghz_mps(n_sites))


def product_state(n_sites: int, kets=None):
    """Product of single-site pure states; defaults to all |0>."""
    return _pure_state(_product_mps(n_sites, kets))


def make_state(family: str, n_sites: int, seed=None, beta: float = 5.0,
               t_hnorm: float = 0.01, phases=None):
    """Reference state of one family in FAMILIES, which lists the options
    each family reads; a family ignores the others, so a caller may pass
    them all. A chain needs at least one site.

    The thermal families give the DenseOperator of their Gibbs state;
    every other family gives its MPO, the named states' without their
    dense form (a caller that needs it takes to_dense()).
    """
    _require_sites(n_sites)
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if "beta" in FAMILIES[family]:
        return thermal_dense(family, n_sites, beta, seed=seed)
    if family == "random_mpo":
        return random_mpo_via_ancilla(n_sites, seed=seed, t_hnorm=t_hnorm)
    if family == "w":
        mps = _w_mps(n_sites, phases)
    elif family == "ghz":
        mps = _ghz_mps(n_sites)
    else:
        mps = _product_mps(n_sites)
    return mps_to_mpo(mps)
