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
from dataclasses import dataclass

import numpy as np

from .operators import (DENSE_SITE_CAP, DenseOperator, MatrixProductOperator,
                        _transfer)
from .pauli import SIGMA, SITE_TRANSFORM, hermitian_basis

# ---- Hamiltonians and thermal states ----

HAMILTONIAN_FAMILIES = ("critical_ising", "random_next_neighbour")
FAMILIES = HAMILTONIAN_FAMILIES + ("random_mpo", "w", "ghz", "product")


@dataclass
class HamiltonianSpec:
    """Nearest-neighbour chain Hamiltonian selector."""

    family: str
    n_sites: int
    seed: int | None = None

    def __post_init__(self):
        if self.family not in HAMILTONIAN_FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.n_sites < 2:
            raise ValueError("need at least two sites")
        if self.n_sites > DENSE_SITE_CAP:
            raise ValueError(
                f"exact diagonalization capped at {DENSE_SITE_CAP} sites")


def _embed_two_site(term: np.ndarray, i: int, n: int) -> np.ndarray:
    """term acting on sites (i, i+1), identity elsewhere; 1-based i."""
    left = np.eye(2 ** (i - 1))
    right = np.eye(2 ** (n - i - 1))
    return np.kron(np.kron(left, term), right)


def hamiltonian_dense(spec: HamiltonianSpec) -> np.ndarray:
    n = spec.n_sites
    if spec.family == "critical_ising":
        h = np.zeros((2**n, 2**n), dtype=complex)
        xx = np.kron(SIGMA[1], SIGMA[1])
        for i in range(1, n):
            h -= _embed_two_site(xx, i, n)
        for i in range(1, n + 1):
            z = np.kron(np.kron(np.eye(2 ** (i - 1)), SIGMA[3]),
                        np.eye(2 ** (n - i)))
            h -= z
        return h
    rng = np.random.default_rng(spec.seed)
    h = np.zeros((2**n, 2**n), dtype=complex)
    for i in range(1, n):
        g = rng.standard_normal((4, 4)) + 1.0j * rng.standard_normal((4, 4))
        h += _embed_two_site((g + g.conj().T) / 2.0, i, n)
    return h


def thermal_dense(spec: HamiltonianSpec, beta: float) -> DenseOperator:
    """Gibbs state exp(-beta H) / Z by exact diagonalization."""
    if not (np.isfinite(beta) and beta >= 0):
        raise ValueError(f"beta must be finite and nonnegative, not {beta!r}")
    h = hamiltonian_dense(spec)
    evals, evecs = np.linalg.eigh(h)
    w = np.exp(-beta * (evals - evals.min()))
    w /= w.sum()
    rho = (evecs * w) @ evecs.conj().T
    return DenseOperator((rho + rho.conj().T) / 2.0)


# ---- Matrix-product machinery for pure states and local channels ----


def _require_sites(n_sites: int) -> None:
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
    share a shape are contracted as one stack.
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
    for (_, dl, dr), sites in groups.items():
        A = np.stack([mps[i] for i in sites])
        # pair[i, (s, t), (a, c), (b, e)] = A[i, s, a, b] conj(A[i, t, c, e])
        pair = (A[:, :, None, :, None, :, None]
                * A.conj()[:, None, :, None, :, None, :])
        pair = pair.reshape(len(sites), 4, dl * dl * dr * dr)
        S = maps if channels is None else maps[sites]
        T = (S @ pair).reshape(len(sites), 4, dl * dl, dr * dr)
        T = Q[dl].conj().T @ T @ Q[dr]
        imag = np.abs(T.imag).max(axis=(1, 2, 3))
        real = np.abs(T.real).max(axis=(1, 2, 3))
        bad.extend(np.asarray(sites)[imag > 1e-10 * np.maximum(1.0, real)])
        for i, t in zip(sites, T.real):
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
    if not np.isfinite(t_hnorm):
        raise ValueError(f"t_hnorm must be finite, not {t_hnorm!r}")
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


def w_state(n_sites: int, phases=None):
    """W state with relative branch phases; returns (dense or None, MPO).

    The branch with the excitation on the last site carries phase zero and
    phases[j - 1] multiplies the branch with the excitation j sites in
    from the right, so len(phases) == n_sites - 1.
    """
    _require_sites(n_sites)
    n = n_sites
    if phases is None:
        phases = np.zeros(n - 1)
    phases = np.asarray(phases, dtype=float)
    if phases.shape != (n - 1,):
        raise ValueError("need n_sites - 1 phases")
    phi = np.concatenate(([0.0], phases))
    # A[i, 1, 0, 1] multiplies the branch with the excitation at site i + 1
    A = np.zeros((n, 2, 2, 2), dtype=complex)
    A[:, 0] = np.eye(2)
    A[:, 1, 0, 1] = np.exp(1.0j * phi[::-1]) / np.sqrt(n)
    mps = list(A)
    mps[0] = mps[0][:, :1, :]
    mps[-1] = mps[-1][:, :, 1:]
    return _pure_state(mps)


def ghz_state(n_sites: int):
    """GHZ state (|0...0> + |1...1>)/sqrt(2); returns (dense or None, MPO).
    One site gives (|0> + |1>)/sqrt(2)."""
    _require_sites(n_sites)
    A = np.zeros((2, 2, 2), dtype=complex)
    A[0, 0, 0] = A[1, 1, 1] = 1.0
    mps = [A] * n_sites
    mps[0] = np.full((1, 2), 2.0 ** -0.5) @ mps[0]
    mps[-1] = mps[-1] @ np.ones((2, 1))
    return _pure_state(mps)


def product_state(n_sites: int, kets=None):
    """Product of single-site pure states; defaults to all |0>."""
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
    return _pure_state([(v / r).reshape(2, 1, 1)
                        for v, r in zip(kets, norms)])


def make_state(family: str, n_sites: int, seed=None, beta: float = 5.0,
               t_hnorm: float = 0.01, phases=None):
    """Reference state of one family in FAMILIES; returns (dense, mpo).

    Thermal families ("critical_ising", "random_next_neighbour") give
    (dense, None): the Gibbs state at inverse temperature `beta`; `seed`
    draws the random couplings. "random_mpo" gives (None, mpo) from the
    ancilla construction with coupling strength `t_hnorm`, drawn from
    `seed`. "w" (with optional branch `phases`), "ghz" and "product" give
    what their constructors return: the MPO, and the dense form up to
    DENSE_SITE_CAP sites (None beyond). Deterministic families ignore
    `seed`, and every family but "w" ignores `phases`. A chain needs at
    least one site.
    """
    _require_sites(n_sites)
    if family in HAMILTONIAN_FAMILIES:
        spec = HamiltonianSpec(family, n_sites, seed=seed)
        return thermal_dense(spec, beta), None
    if family == "random_mpo":
        return None, random_mpo_via_ancilla(n_sites, seed=seed,
                                            t_hnorm=t_hnorm)
    if family == "w":
        return w_state(n_sites, phases)
    if family == "ghz":
        return ghz_state(n_sites)
    if family == "product":
        return product_state(n_sites)
    raise ValueError(f"unknown family {family!r}")
