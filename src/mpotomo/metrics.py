"""Comparison metrics between reference states and estimates.

The headline figure of merit is the squared Hilbert-Schmidt distance
renormalized by the reference purity, which both dense matrices and
matrix-product networks support without forming large intermediates. For
single-excitation targets a fidelity maximized over the relative branch
phases is provided, with a closed-form coordinate ascent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import DENSE_SITE_CAP, MatrixProductOperator, mpo_overlap

# Random phase draws fidelity_w_optimized restarts from.
_N_STARTS = 8


def _gram_terms(a, b):
    """(tr[a a], tr[a b], tr[b b]) for any mix of representations."""
    if isinstance(a, MatrixProductOperator) and isinstance(b, MatrixProductOperator):
        return mpo_overlap(a, a), mpo_overlap(a, b), mpo_overlap(b, b)
    ca, cb = a.coeffs(), b.coeffs()
    if ca.shape != cb.shape:
        raise ValueError("operands must share site count")
    return float(ca @ ca), float(ca @ cb), float(cb @ cb)


def _distance(aa: float, ab: float, bb: float) -> float:
    if aa <= 0.0:
        raise ValueError("reference has zero norm")
    return (bb - 2.0 * ab + aa) / aa


def hs_distance(ref, est) -> float:
    """Squared Hilbert-Schmidt distance over the squared norm of ref.

    D = tr[(est - ref)^2] / tr[ref^2]; representation-independent.
    """
    return _distance(*_gram_terms(ref, est))


def purity(state) -> float:
    """tr[state^2] from either representation."""
    if isinstance(state, MatrixProductOperator):
        return mpo_overlap(state, state)
    return float(np.sum(np.abs(state.matrix) ** 2))


def _single_excitation_block(state) -> np.ndarray:
    n = state.n_sites
    if n > DENSE_SITE_CAP:
        raise ValueError("phase-optimized fidelity needs the dense form")
    idx = [1 << j for j in range(n)]
    return state.to_dense().matrix[np.ix_(idx, idx)]


def fidelity_w_optimized(state, seed: int = 0, full_output: bool = False):
    """Best overlap with a single-excitation state over branch phases.

    Maximizes <W(phi)| state |W(phi)> by coordinate ascent on the unit
    phasors, each coordinate update being the closed-form argmax; restarts
    from flat phases, the leading eigenvector, and _N_STARTS random draws.
    Returns (fidelity, phases) with len(phases) = n_sites - 1, phases
    relative to the branch with the excitation on the last site.
    """
    R = _single_excitation_block(state)
    n = R.shape[0]
    rng = np.random.default_rng(seed)
    evals, evecs = np.linalg.eigh(R)
    starts = [np.ones(n, dtype=complex)]
    lead = evecs[:, -1]
    lead = np.where(np.abs(lead) > 1e-12, lead / np.abs(lead).clip(1e-12), 1.0)
    starts.append(lead.astype(complex))
    for _ in range(_N_STARTS):
        starts.append(np.exp(2.0j * np.pi * rng.random(n)))

    def ascend(z):
        f = (z.conj() @ R @ z).real / n
        for _ in range(500):
            for j in range(n):
                w = R[j] @ z - R[j, j] * z[j]
                if abs(w) > 1e-300:
                    z[j] = w / abs(w)
            f_new = (z.conj() @ R @ z).real / n
            if f_new - f < 1e-12:
                f = f_new
                break
            f = f_new
        return f, z

    results = [ascend(z.copy()) for z in starts]
    f_best, z_best = max(results, key=lambda t: t[0])
    z_best = z_best * (z_best[0].conj() / abs(z_best[0]))
    phases = np.mod(np.angle(z_best[1:]), 2.0 * np.pi)
    if full_output:
        return f_best, phases, {"start_fidelities": [t[0] for t in results]}
    return f_best, phases


@dataclass
class ComparisonReport:
    hs_distance: float
    purity_ref: float
    purity_est: float
    min_eig_est: float | None = None
    w_fidelity: float | None = None
    w_phases: list[float] | None = None
    w_start_spread: float | None = None

    def to_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items()}


def compare_states(ref, est, w_fidelity: bool = False,
                   seed: int = 0) -> ComparisonReport:
    """Bundle of distance, purities, spectral floor, optional fidelity.

    The purities are the Gram terms tr[ref^2] and tr[est^2] that the
    distance already needs, so each is computed once.
    """
    aa, ab, bb = _gram_terms(ref, est)
    report = ComparisonReport(hs_distance=_distance(aa, ab, bb),
                              purity_ref=aa, purity_est=bb)
    dense_est = est.to_dense() if est.n_sites <= DENSE_SITE_CAP else None
    if dense_est is not None:
        report.min_eig_est = float(np.linalg.eigvalsh(dense_est.matrix).min())
    if w_fidelity:
        f, phases, extra = fidelity_w_optimized(dense_est or est, seed=seed,
                                                full_output=True)
        report.w_fidelity = float(f)
        report.w_phases = [float(p) for p in phases]
        fs = extra["start_fidelities"]
        report.w_start_spread = float(max(fs) - min(fs))
    return report
