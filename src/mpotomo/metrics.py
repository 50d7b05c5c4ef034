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

from .operators import (_PHYSICAL, DenseOperator, MatrixProductOperator,
                        _overlap, _sweep, _value)


def _gram_terms(a, b):
    """(tr[a a], tr[a b], tr[b b]) as pairs (m, e), each m * 2^e."""
    if isinstance(a, MatrixProductOperator) and isinstance(b, MatrixProductOperator):
        return _overlap(a, a), _overlap(a, b), _overlap(b, b)
    ca, cb = a.coeffs(), b.coeffs()
    if ca.shape != cb.shape:
        raise ValueError("operands must share site count")
    return (float(ca @ ca), 0), (float(ca @ cb), 0), (float(cb @ cb), 0)


def _distance(terms) -> float:
    if terms[0][0] <= 0.0:
        raise ValueError("reference has zero norm")
    e = max(x for _, x in terms)
    aa, ab, bb = (_value(m, x - e) for m, x in terms)
    return (bb - 2.0 * ab + aa) / aa if aa else np.inf


def hs_distance(ref, est) -> float:
    """Squared Hilbert-Schmidt distance over the squared norm of ref.

    D = tr[(est - ref)^2] / tr[ref^2]; representation-independent.
    """
    return _distance(_gram_terms(ref, est))


def _single_excitation_block(state) -> np.ndarray:
    """<e_i| state |e_j> for the N basis states e_i with one excitation,
    e_0 on the last site: the dense matrix's entries at rows and columns
    1 << i.

    An MPO's entries contract from its site operators, entry <r| . |c> of
    site s being sum_a P(a)[r, c] T_s[a]: A_s for <0|.|0> and E_s for
    <1|.|1>, both real, B_s for <1|.|0> and its conjugate for <0|.|1>. Y
    holds the real and imaginary parts of the products with one B over
    the sites so far, then the product of their A's. At site j, Y and the
    product of the A's after j give column j above and on the diagonal,
    and Hermiticity the rest: O(N^2 D^2), with no 2^N matrix. Both sweeps
    carry power-of-two scales, as the overlaps do.
    """
    if isinstance(state, DenseOperator):
        idx = [1 << j for j in range(state.n_sites)]
        return state.matrix[np.ix_(idx, idx)]
    # op[2r + c] = sum_a P(a)[r, c] T[a]
    ops = [(_PHYSICAL @ t.reshape(4, -1)).reshape(t.shape)
           for t in state.tensors]
    A = [op[0].real for op in ops]
    rights = list(_sweep(lambda v, a: a @ v, np.ones(1), zip(A[::-1])))[::-1]

    def step(y, a, b):
        k, ya = len(y) // 2, y @ a
        return np.concatenate([ya[:k], y[-1:] @ b.real, ya[k:-1],
                               y[-1:] @ b.imag, ya[-1:]])

    n = state.n_sites
    lefts = _sweep(step, np.ones((1, 1)),
                   ((a, op[2]) for a, op in zip(A[:-1], ops)))
    block = np.zeros((n, n), dtype=complex)
    for j, ((y, e), (v, f), op) in enumerate(zip(lefts, rights[1:], ops)):
        re, im = y[:j], y[j:-1]
        u, w = op[2].real @ v, op[2].imag @ v
        block.real[:j, j] = np.ldexp(re @ u + im @ w, e + f)
        block.imag[:j, j] = np.ldexp(im @ u - re @ w, e + f)
        block.real[j, j] = np.ldexp(y[-1] @ (op[3].real @ v), e + f)
    block += np.triu(block, 1).conj().T
    return block[::-1, ::-1]


def fidelity_w_optimized(state):
    """Best overlap with a single-excitation state over branch phases.

    Maximizes <W(phi)| state |W(phi)> by coordinate ascent on the unit
    phasors, each coordinate update being the closed-form argmax, from the
    phases of the single-excitation block's leading eigenvector (the
    spectral start of phase synchronization); deterministic. Returns
    (fidelity, phases) with len(phases) = n_sites - 1, phases relative to
    the branch with the excitation on the last site.
    """
    R = _single_excitation_block(state)
    n = R.shape[0]
    z = np.linalg.eigh(R)[1][:, -1].astype(complex)
    z = np.where(np.abs(z) > 1e-12, z / np.abs(z).clip(1e-12), 1.0)
    f = (z.conj() @ R @ z).real / n
    for _ in range(500):
        for j in range(n):
            w = R[j] @ z - R[j, j] * z[j]
            if abs(w) > 1e-300:
                z[j] = w / abs(w)
        f, f_old = (z.conj() @ R @ z).real / n, f
        if f - f_old < 1e-12:
            break
    z = z * (z[0].conj() / abs(z[0]))
    return f, np.mod(np.angle(z[1:]), 2.0 * np.pi)


@dataclass
class ComparisonReport:
    """compare_states' figures: D and both purities, from the Gram terms;
    w_* are fidelity_w_optimized's, or None without w_fidelity."""
    hs_distance: float
    purity_ref: float
    purity_est: float
    w_fidelity: float | None = None
    w_phases: list[float] | None = None

    def to_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items()}


def compare_states(ref, est, w_fidelity: bool = False) -> ComparisonReport:
    """Distance, purities and, with `w_fidelity`, the W fidelity.

    The distance and purities come from the three Gram terms alone, with no
    dense form: the purities are 0.0 below the float range, where D stays
    right, and inf above it, as is D beyond the range. The W fidelity is
    fidelity_w_optimized's one deterministic ascent on est's N x N
    single-excitation block, which an MPO gives at any N with no dense
    form.
    """
    terms = _gram_terms(ref, est)
    report = ComparisonReport(_distance(terms), _value(*terms[0]),
                              _value(*terms[2]))
    if w_fidelity:
        f, phases = fidelity_w_optimized(est)
        report.w_fidelity = float(f)
        report.w_phases = [float(p) for p in phases]
    return report
