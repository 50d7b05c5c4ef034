import json
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from oracles import pack_index, random_mpo
from mpotomo.measurement import (PauliBlockData, add_gaussian_noise,
                                 all_settings, exact_block_data,
                                 simulate_counts, block_data_from_counts)
from mpotomo.operators import DenseOperator, _rescale_trace
from mpotomo.pauli import coeffs_from_dense
from mpotomo.reconstruction import (NOISE_MODES, PINV_RTOL,
                                    ReconstructionConfig,
                                    RegularizerSpec,
                                    check_invertibility_dense,
                                    check_invertibility_mpo_spans,
                                    default_split, noise_tikhonov_sigma2,
                                    numerical_rank, reconstruct_mpo,
                                    _fisher_penalty, _inverse_factor,
                                    _site_matrices, _solve_operators)
import mpotomo
from mpotomo import reconstruction
from mpotomo.files import write_json
from mpotomo.metrics import fidelity_w_optimized, hs_distance
from mpotomo.states import (ghz_state, random_mpo_via_ancilla, thermal_dense,
                            w_state)


# ---- solver closed forms ----


def test_truncated_pinv_matches_numpy_pinv(rng):
    B = rng.normal(size=(8, 5))
    e = rng.normal(size=8)
    (S,), _, _ = _solve_operators(B[None], RegularizerSpec("truncated_pinv"),
                                  None)
    assert np.allclose(S @ e, np.linalg.pinv(B) @ e, atol=1e-10)


def test_truncated_pinv_keeps_singular_values_above_pinv_rtol():
    s = np.array([1.0, 2.0 * PINV_RTOL, PINV_RTOL, 0.5 * PINV_RTOL])
    (S,), (spectrum,), (flags,) = _solve_operators(
        np.diag(s)[None], RegularizerSpec("truncated_pinv"), None)
    assert np.array_equal(spectrum, s) and flags == []
    assert np.array_equal(S @ np.ones(4), [1.0, 1.0 / s[1], 0.0, 0.0])


def test_truncated_pinv_on_rank_deficient_matrix(rng):
    B = rng.normal(size=(6, 2)) @ rng.normal(size=(2, 5))
    e = rng.normal(size=6)
    (S,), _, _ = _solve_operators(B[None], RegularizerSpec("truncated_pinv"),
                                  None)
    assert np.allclose(S @ e, np.linalg.pinv(B) @ e, atol=1e-8)


@pytest.mark.parametrize("scale", [1e-200, 1e-170, 1e-160, 1e160, 1e180,
                                   1e200])
def test_filter_holds_where_the_squared_spectrum_leaves_the_float_range(
        rng, scale):
    # each matrix's filter is taken on its spectrum and damping rescaled by
    # a power of two, so neither s^2 nor s^2 + lam over- or underflows and
    # no warning is raised
    B, e = rng.normal(size=(2, 8, 5)), rng.normal(size=(2, 8))
    S = _solve_operators(scale * B, RegularizerSpec("truncated_pinv"), None)[0]
    x = np.einsum("knm,km->kn", S, e)
    ref = np.array([np.linalg.pinv(b) @ v for b, v in zip(B, e)])
    assert np.linalg.norm(scale * x - ref) <= 1e-13 * np.linalg.norm(ref)
    # a damping of 1 is far above s^2 on the small spectra, where
    # x = B^T e to rounding, and far below it on the large ones
    S = _solve_operators(scale * B, RegularizerSpec("tikhonov", sigma2=1.0),
                         None)[0]
    x = np.einsum("knm,km->kn", S, e)
    if scale < 1.0:
        ref = np.einsum("kmn,km->kn", B, e)
        assert np.linalg.norm(x / scale - ref) <= 1e-13 * np.linalg.norm(ref)
    else:
        assert np.linalg.norm(scale * x - ref) <= 1e-13 * np.linalg.norm(ref)


def test_tikhonov_matches_normal_equations(rng):
    B = rng.normal(size=(7, 4))
    e = rng.normal(size=7)
    s2 = 0.3
    (S,), _, _ = _solve_operators(
        B[None], RegularizerSpec("tikhonov", sigma2=s2), None)
    ref = np.linalg.solve(B.T @ B + s2 * np.eye(4), B.T @ e)
    assert np.allclose(S @ e, ref, atol=1e-10)


def test_tikhonov_zero_equals_pinv_on_full_rank(rng):
    B = rng.normal(size=(5, 5))
    e = rng.normal(size=5)
    (S,), _, _ = _solve_operators(
        B[None], RegularizerSpec("tikhonov", sigma2=0.0), None)
    assert np.allclose(S @ e, np.linalg.solve(B, e), atol=1e-8)


def test_tikhonov_zero_on_rank_deficient_matrix_is_the_truncated_solve(rng):
    # the singular values at rounding level are cut, not inverted
    B = rng.normal(size=(6, 2)) @ rng.normal(size=(2, 5))
    e = rng.normal(size=6)
    (S,), (s,), _ = _solve_operators(
        B[None], RegularizerSpec("tikhonov", sigma2=0.0), None)
    assert s[-1] < PINV_RTOL * s[0]
    (St,), _, _ = _solve_operators(B[None], RegularizerSpec("truncated_pinv"),
                                   None)
    assert np.array_equal(S @ e, St @ e)


def test_fisher_with_scaled_identity_equals_tikhonov(rng):
    B = rng.normal(size=(6, 4))
    e = rng.normal(size=6)
    s2 = 0.05
    (St,), _, _ = _solve_operators(
        B[None], RegularizerSpec("tikhonov", sigma2=s2), None)
    (Sf,), _, _ = _solve_operators(B[None], RegularizerSpec("fisher"),
                                   s2 * np.eye(4)[None])
    assert np.allclose(St @ e, Sf @ e, atol=1e-10)


def test_fisher_penalty_matches_normal_equations(rng):
    B = rng.normal(size=(6, 4))
    e = rng.normal(size=6)
    Q = rng.normal(size=(4, 4))
    P = Q @ Q.T + 0.1 * np.eye(4)
    (S,), _, _ = _solve_operators(B[None], RegularizerSpec("fisher"), P[None])
    ref = np.linalg.solve(B.T @ B + P, B.T @ e)
    assert np.allclose(S @ e, ref, atol=1e-10)


def test_zero_matrix_is_flagged():
    (S,), _, (flags,) = _solve_operators(
        np.zeros((1, 3, 3)), RegularizerSpec("truncated_pinv"), None)
    assert np.array_equal(S @ np.ones(3), np.zeros(3))
    assert flags == ["zero_operator"]


# ---- the stacked solve ----


def _site_stacks(width, seed):
    """(B, C, regs, penalties): the stacked site matrices of noisy
    windows of width `width`, one regularizer per mode and random
    positive definite penalties, one per site."""
    l, r = default_split(width)
    data = add_gaussian_noise(exact_block_data(
        random_mpo_via_ancilla(width + 2, seed=seed), width), 1e-3,
        seed=seed)
    B, C = _site_matrices(data.blocks, l, r)
    rng = np.random.default_rng(seed)
    Q = rng.normal(size=(len(B), 4**r, 4**r))
    penalties = Q @ Q.transpose(0, 2, 1) + 1e-2 * np.eye(4**r)
    regs = [RegularizerSpec("truncated_pinv"),
            RegularizerSpec("tikhonov",
                            sigma2=noise_tikhonov_sigma2(1e-3, l, r)),
            RegularizerSpec("fisher")]
    return B, C, regs, penalties


@pytest.mark.parametrize("width", [3, 5, 7])
def test_stacked_solve_equals_a_loop_of_2d_solves(width):
    B, C, regs, penalties = _site_stacks(width, seed=width)
    assert B.ndim == 3 and len(B) == 3
    for reg in regs:
        P = penalties if reg.mode == "fisher" else None
        S, s, flags = _solve_operators(B, reg, P)
        for i in range(len(B)):
            (Si,), (si,), (fi,) = _solve_operators(
                B[i:i + 1], reg, None if P is None else P[i:i + 1])
            assert s[i].shape == si.shape and np.array_equal(s[i], si)
            assert flags[i] == fi == []
            for e in (C[i], C[i, :, 0]):  # columns, and one vector
                x, xi = S[i] @ e, Si @ e
                assert x.shape == xi.shape and np.array_equal(x, xi)


def test_fisher_stack_gives_each_site_its_own_flags_and_filter(rng):
    # site 0 is regular, site 2 a zero matrix, and sites 1, 3, 4 and 5
    # have a penalty that is not numerically positive definite: zero,
    # indefinite, positive semidefinite of rank 2, and positive definite
    # with its smallest eigenvalue below n * eps times its largest
    B = rng.normal(size=(6, 6, 4))
    B[2] = 0.0
    e = rng.normal(size=(6, 6, 5))
    Q = rng.normal(size=(4, 4))
    O = np.linalg.qr(rng.normal(size=(4, 4)))[0]
    R = rng.normal(size=(4, 2))
    P = np.array([Q @ Q.T + 0.1 * np.eye(4), np.zeros((4, 4)),
                  Q @ Q.T + 0.1 * np.eye(4),
                  O @ np.diag([2.0, 1.0, -0.1, 0.5]) @ O.T, R @ R.T,
                  np.diag([2.0, 1.0, 1e-16, 0.5])])
    fisher = RegularizerSpec("fisher")
    S, s, flags = _solve_operators(B, fisher, P)
    x = S @ e
    assert flags == [[], ["singular_penalty"], ["zero_operator"],
                     ["singular_penalty"], ["singular_penalty"],
                     ["singular_penalty"]]
    S0, (s0,), _ = _solve_operators(B[:1], fisher, P[:1])
    (x0,) = S0 @ e[:1]
    assert np.array_equal(x[0], x0) and np.array_equal(s[0], s0)
    ref = np.linalg.solve(B[0].T @ B[0] + P[0], B[0].T @ e[0])
    assert np.allclose(x[0], ref, atol=1e-10)
    # the spectrum is that of B L^-T for P = L L^T
    L = np.linalg.cholesky(P[0])
    assert np.allclose(s[0], np.linalg.svd(np.linalg.solve(L, B[0].T).T,
                                           compute_uv=False), rtol=1e-13)
    for i in (1, 3, 4, 5):
        # the truncated filter on its own raw B
        Si, (si,), _ = _solve_operators(
            B[i:i + 1], RegularizerSpec("truncated_pinv"), None)
        (xi,) = Si @ e[i:i + 1]
        assert np.array_equal(x[i], xi) and np.array_equal(s[i], si)
        assert np.allclose(x[i], np.linalg.pinv(B[i]) @ e[i], atol=1e-10)
    assert np.array_equal(x[2], np.zeros((4, 5)))
    assert np.array_equal(s[2], np.zeros(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fisher_rejects_a_non_finite_penalty(rng, bad):
    P = np.tile(np.eye(4), (2, 1, 1))
    P[1, 2, 3] = bad
    with pytest.raises(ValueError, match="finite penalty"):
        _solve_operators(rng.normal(size=(2, 6, 4)),
                         RegularizerSpec("fisher"), P)


def test_regularizer_spec_validation():
    with pytest.raises(ValueError):
        RegularizerSpec("other")
    for sigma2 in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="sigma2"):
            RegularizerSpec("tikhonov", sigma2=sigma2)
    for mode in ("truncated_pinv", "fisher"):
        with pytest.raises(ValueError, match=f"sigma2.*{mode}"):
            RegularizerSpec(mode, sigma2=0.5)


def _data_of_kind(kind):
    """Width-3 windows of a 6-site W state: exact, with scalar noise of
    sigma 1e-3 or 0, or fitted from counts."""
    _, st = w_state(6, phases=[0.3, 0.1, 0.7, 0.2, 0.5])
    if kind == "fisher":
        return block_data_from_counts(simulate_counts(st, 3, 300, seed=43),
                                      6)
    data = exact_block_data(st, 3)
    sigma = {"exact": None, "scalar": 1e-3, "scalar0": 0.0}[kind]
    return data if sigma is None else add_gaussian_noise(data, sigma, seed=44)


@pytest.mark.parametrize("kind", ["exact", "scalar", "scalar0", "fisher"])
def test_default_config_takes_the_mode_of_the_noise_kind(kind):
    data = _data_of_kind(kind)
    mode = NOISE_MODES[data.noise_kind]
    est, report = reconstruct_mpo(data, ReconstructionConfig(),
                                  with_report=True)
    named = reconstruct_mpo(data, ReconstructionConfig(
        regularizer=RegularizerSpec(mode)))
    assert report.mode == mode
    for a, b in zip(est.tensors, named.tensors, strict=True):
        assert np.array_equal(a, b)


def test_explicit_regularizer_overrides_the_noise_kind():
    data = _data_of_kind("scalar")
    est, report = reconstruct_mpo(data, ReconstructionConfig(
        regularizer=RegularizerSpec("truncated_pinv")), with_report=True)
    assert report.mode == "truncated_pinv"
    l, r = default_split(3)
    for b, block in enumerate(data.blocks):
        B, C = _site_matrices(block, l, r)
        (S,), _, _ = _solve_operators(
            B[None], RegularizerSpec("truncated_pinv"), None)
        assert np.array_equal(est.tensors[l + b], (S @ C).reshape(
            4**r, 4, 4**r).transpose(1, 0, 2))


@pytest.mark.parametrize("family", ["w", "ghz", "ancilla"])
def test_zero_sigma_data_gives_the_truncated_estimate(family):
    # sigma = 0 scalar data take tikhonov with sigma2 = 0: the PINV_RTOL
    # cut keeps it from dividing by singular values near 1e-17
    st = {"w": lambda: w_state(8)[1], "ghz": lambda: ghz_state(8)[1],
          "ancilla": lambda: random_mpo_via_ancilla(8, seed=45)}[family]()
    exact = exact_block_data(st, 5)
    est, report = reconstruct_mpo(add_gaussian_noise(exact, 0.0),
                                  with_report=True)
    assert report.mode == "tikhonov"
    d_zero = hs_distance(st, est)
    d_exact = hs_distance(st, reconstruct_mpo(exact))
    assert abs(d_zero - d_exact) <= 1e-12
    if family != "ghz":  # GHZ is not (2, 2)-invertible: D = 1/2
        assert abs(d_zero) <= 1e-12


@pytest.mark.parametrize("l, r", [(2, 2), (3, 1)])
def test_default_tikhonov_is_matched_to_the_resolved_split(l, r):
    st = random_mpo_via_ancilla(8, seed=40)
    data = add_gaussian_noise(exact_block_data(st, 5), 1e-3, seed=41)
    matched = reconstruct_mpo(data, ReconstructionConfig(
        l=l, r=r, regularizer=RegularizerSpec("tikhonov")))
    explicit = reconstruct_mpo(data, ReconstructionConfig(
        l=l, r=r, regularizer=RegularizerSpec(
            "tikhonov", sigma2=noise_tikhonov_sigma2(1e-3, l, r))))
    for a, b in zip(matched.tensors, explicit.tensors, strict=True):
        assert np.array_equal(a, b)


def test_tikhonov_without_sigma2_needs_scalar_noise():
    exact = exact_block_data(random_mpo_via_ancilla(6, seed=42), 3)
    with pytest.raises(ValueError, match="scalar noise metadata"):
        reconstruct_mpo(exact, ReconstructionConfig(
            regularizer=RegularizerSpec("tikhonov")))


def test_noise_matched_tikhonov_parameter():
    # variance of sqrt(2) * (window entry) summed over 4^l rows
    assert noise_tikhonov_sigma2(1e-2, 2, 2) == pytest.approx(1e-4)
    assert noise_tikhonov_sigma2(1e-2, 3, 2) == pytest.approx(2e-4)
    assert noise_tikhonov_sigma2(1e-2, 1, 2) == pytest.approx(5e-5)


def test_default_split_is_balanced():
    assert default_split(3) == (1, 1)
    assert default_split(4) == (2, 1)
    assert default_split(5) == (2, 2)


# ---- window matrices ----


def test_transfer_pair_shapes_and_identity_column():
    st = random_mpo_via_ancilla(6, seed=3)
    data = exact_block_data(st, 5)
    B, C = _site_matrices(data.blocks[0], 2, 2)  # site 3
    assert B.shape == (16, 16)
    assert C.shape == (16, 64)
    C3 = C.reshape(16, 16, 4)
    assert np.allclose(B, np.sqrt(2.0) * C3[:, :, 0], atol=1e-14)


def test_transfer_pair_entries_match_window_oracle():
    st = random_mpo_via_ancilla(5, seed=4)
    dense = st.to_dense().matrix
    data = exact_block_data(st, 3)
    B, C = _site_matrices(data.blocks[0], 1, 1)  # site 2
    # B[i, j] = sqrt(2) tr[rho P_i(site 1) P_j(site 2) P_0(site 3)]
    red = oracles.partial_trace_loops(dense, [1, 2, 3], 5)
    for i in range(4):
        for j in range(4):
            ref = oracles.coeff_by_trace(red, [i, j, 0]) * np.sqrt(2.0)
            assert abs(B[i, j] - ref.real) < 1e-12
            ref_c = oracles.coeff_by_trace(red, [i, 0, j])
            assert abs(C[i, 0 * 4 + j] - ref_c.real) < 1e-12


# ---- exact reconstruction ----


def test_exact_reconstruction_of_ancilla_state():
    st = random_mpo_via_ancilla(6, seed=6)
    rec = reconstruct_mpo(exact_block_data(st, 5))
    assert hs_distance(st, rec) < 1e-12


def test_exact_reconstruction_of_w_state_narrow_windows():
    _, wm = w_state(6, phases=[0.5, 1.0, -0.4, 0.2, 0.8])
    rec = reconstruct_mpo(exact_block_data(wm, 3))
    assert hs_distance(wm, rec) < 1e-8


def test_exact_reconstruction_of_thermal_state():
    rho = thermal_dense("critical_ising", 7, 1.0)
    rec = reconstruct_mpo(exact_block_data(rho, 5))
    assert hs_distance(rho, rec) < 1e-8


def test_exact_reconstruction_degrades_gracefully_near_purity():
    # at large beta the state approaches a rank-one projector and the
    # window systems lose conditioning; float64 data still gets close
    rho = thermal_dense("critical_ising", 7, 5.0)
    rec = reconstruct_mpo(exact_block_data(rho, 5))
    assert hs_distance(rho, rec) < 1e-4


def test_reconstruction_fails_on_non_invertible_state():
    # long-range parity correlations cannot be recovered from narrow
    # windows: the estimate is a valid network but far from the state
    _, ghz = ghz_state(6)
    rec = reconstruct_mpo(exact_block_data(ghz, 3))
    assert hs_distance(ghz, rec) > 0.1


@pytest.mark.parametrize("reg", [
    RegularizerSpec("truncated_pinv"),
    RegularizerSpec("tikhonov", sigma2=noise_tikhonov_sigma2(1e-3, 2, 2)),
    RegularizerSpec("fisher"),
], ids=lambda reg: reg.mode)
def test_bulk_tensors_equal_per_alpha_solves(reg):
    st = random_mpo_via_ancilla(10, seed=17)
    data = add_gaussian_noise(exact_block_data(st, 5), 1e-3, seed=18)
    if reg.mode == "fisher":
        # the same shots for every setting of every window
        shots = np.full((data.n_blocks, 3**5), 10**6)
        data = PauliBlockData(data.blocks, shots=shots)
    est = reconstruct_mpo(data, ReconstructionConfig(l=2, r=2,
                                                     regularizer=reg))
    for k in range(3, 9):
        B, C = _site_matrices(data.blocks[k - 3], 2, 2)
        penalty = None
        if reg.mode == "fisher":
            P, _ = _fisher_penalty(data.blocks[k - 3], data.shots[k - 3], 2)
            penalty = P[None]
        (S,), _, _ = _solve_operators(B[None], reg, penalty)
        c3 = C.reshape(16, 4, 16)
        per_alpha = np.array([S @ c3[:, a, :] for a in range(4)])
        assert np.array_equal(est.tensors[k - 1], per_alpha)


@pytest.mark.parametrize("kind", ["scalar", "fisher"])
def test_report_rows_equal_per_site_solves(kind):
    st = random_mpo_via_ancilla(9, seed=30)
    data = add_gaussian_noise(exact_block_data(st, 5), 1e-3, seed=31)
    if kind == "fisher":
        shots = np.random.default_rng(32).integers(1, 500, size=(
            data.n_blocks, 3**5))
        shots[2] = 0  # this window's site is flagged
        data = PauliBlockData(data.blocks, shots=shots)
    est, report = reconstruct_mpo(data, with_report=True)
    reg = RegularizerSpec("tikhonov", sigma2=noise_tikhonov_sigma2(
        1e-3, 2, 2)) if kind == "scalar" else RegularizerSpec("fisher")
    assert report.mode == reg.mode
    for b, row in enumerate(report.sites):
        B, C = _site_matrices(data.blocks[b], 2, 2)
        penalty, penalty_flags = None, []
        if kind == "fisher":
            P, penalty_flags = _fisher_penalty(data.blocks[b], data.shots[b],
                                               2)
            penalty = P[None]
        (S,), (spectrum,), (flags,) = _solve_operators(B[None], reg, penalty)
        x = S @ C
        assert row == {"k": b + 3,
                       "singular_values": [float(v) for v in spectrum],
                       "flags": flags + penalty_flags}
        assert np.array_equal(est.tensors[b + 2],
                              x.reshape(16, 4, 16).transpose(1, 0, 2))
    if kind == "fisher":
        assert report.sites[2]["flags"] == ["singular_penalty",
                                            "fisher_singular_scalar"]


def test_single_block_passthrough():
    st = random_mpo_via_ancilla(4, seed=7)
    data = exact_block_data(st, 4)
    rec = reconstruct_mpo(data)
    assert hs_distance(st, rec) < 1e-12
    idx = pack_index([1, 0, 2, 3])
    assert abs(rec.coefficient([1, 0, 2, 3]) - data.blocks[0][idx]) < 1e-14
    assert oracles.recursion_coefficient(data.blocks, [1, 0, 2, 3], 2,
                                         1) == data.blocks[0][idx]


def test_recursion_matches_dense_coefficients():
    st = random_mpo_via_ancilla(6, seed=8)
    data = exact_block_data(st, 5)
    full = st.coeffs()
    rng = np.random.default_rng(9)
    for idx in rng.integers(0, 4**6, size=60):
        alphas = oracles.unpack_index(int(idx), 6)
        got = oracles.recursion_coefficient(data.blocks, alphas, 2, 2)
        assert abs(got - full[int(idx)]) < 1e-10


def test_mpo_factorizes_the_recursion_exactly():
    # the assembled network must reproduce the recursion value for every
    # string, including on noisy data where both are only estimates
    st = random_mpo_via_ancilla(6, seed=10)
    data = add_gaussian_noise(exact_block_data(st, 5), 1e-2, seed=11)
    s2 = noise_tikhonov_sigma2(1e-2, 2, 2)
    reg = RegularizerSpec("tikhonov", sigma2=s2)
    rec = reconstruct_mpo(data, ReconstructionConfig(regularizer=reg))

    def normal_equations(B, e):
        return np.linalg.solve(B.T @ B + s2 * np.eye(B.shape[1]), B.T @ e)

    rng = np.random.default_rng(12)
    for idx in rng.integers(0, 4**6, size=40):
        alphas = oracles.unpack_index(int(idx), 6)
        ref = oracles.recursion_coefficient(data.blocks, alphas, 2, 2,
                                            solve=normal_equations)
        assert abs(rec.coefficient(alphas) - ref) < 1e-10


def test_unbalanced_splits_also_reconstruct():
    st = random_mpo_via_ancilla(6, seed=13)
    data = exact_block_data(st, 4)
    for l, r in ((2, 1), (1, 2)):
        rec = reconstruct_mpo(data, ReconstructionConfig(l=l, r=r))
        assert hs_distance(st, rec) < 1e-10


def test_normalize_rescales_trace():
    st = random_mpo_via_ancilla(5, seed=14)
    data = add_gaussian_noise(exact_block_data(st, 3), 1e-2, seed=15)
    reg = RegularizerSpec("tikhonov", sigma2=noise_tikhonov_sigma2(1e-2, 1, 1))
    raw = reconstruct_mpo(data, ReconstructionConfig(regularizer=reg))
    unit = reconstruct_mpo(data, ReconstructionConfig(regularizer=reg,
                                                      normalize=True))
    assert abs(raw.trace - 1.0) > 1e-6
    assert abs(unit.trace - 1.0) < 1e-12


def test_normalize_rescales_the_built_tensors_bitwise():
    # normalize=True rescales the new tensors in place: bitwise
    # _rescale_trace on copies of the unnormalized estimate's tensors, and
    # the estimate built before is left untouched
    st = random_mpo_via_ancilla(9, seed=40)
    data = add_gaussian_noise(exact_block_data(st, 5), 1e-3, seed=41)
    raw = reconstruct_mpo(data)
    kept = [t.copy() for t in raw.tensors]
    want = [t.copy() for t in raw.tensors]
    _rescale_trace(want, 1.0)
    unit = reconstruct_mpo(data, ReconstructionConfig(normalize=True))
    for t, u, w, k in zip(raw.tensors, unit.tensors, want, kept):
        assert np.array_equal(u, w) and np.array_equal(t, k)
    # a one-site window's factorization is its own tensor: normalizing it
    # in place leaves the data's block as it was
    data = exact_block_data(DenseOperator(np.diag([0.3, 0.5])), 1)
    block = data.blocks.copy()
    unit = reconstruct_mpo(data, ReconstructionConfig(normalize=True))
    assert unit.trace == pytest.approx(1.0)
    assert np.array_equal(data.blocks, block)


@pytest.fixture(scope="module")
def w_windows():
    """Exact and sigma = 1e-3 windows of W(1024) at R = 5, and W(256)
    windows at sigma = 1e-3 as if fitted with 1000 shots per setting."""
    exact = exact_block_data(w_state(1024)[1], 5)
    fitted = add_gaussian_noise(exact_block_data(w_state(256)[1], 5), 1e-3,
                                seed=42).blocks
    return {"exact": exact,
            "noisy": add_gaussian_noise(exact, 1e-3, seed=42),
            "fitted": PauliBlockData(fitted, shots=np.full(
                (len(fitted), 3**5), 1000))}


@pytest.mark.parametrize("windows, mode, normalize", [
    ("exact", None, False), ("noisy", None, False),
    ("noisy", "truncated_pinv", False), ("exact", None, True),
    ("noisy", None, True), ("fitted", None, False)])
def test_reconstruction_peak_memory_is_near_its_tensors(
        w_windows, windows, mode, normalize):
    # each bulk site's solve operator goes straight into the site tensors,
    # and normalize rescales them in place: the traced peak stays within
    # 1.5 times the tensors returned. Fisher mode also holds the stack of
    # penalties and the whitening W, each a quarter of the tensors: 1.75
    data = w_windows[windows]
    cfg = ReconstructionConfig(
        regularizer=mode and RegularizerSpec(mode), normalize=normalize)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        start = tracemalloc.get_traced_memory()[0]
        est = reconstruct_mpo(data, cfg)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()
    tensors = sum(t.nbytes for t in est.tensors)
    assert peak <= (1.75 if windows == "fitted" else 1.5) * tensors, (
        peak / tensors)


def test_exact_reconstruction_of_a_4096_site_mixed_chain():
    # 4096 sites of (I + 0.6 Z) / 2: the purity 0.68^4096 underflows to 0.0
    # and 2^(N/2) alone overflows, yet exact windows give the state back,
    # with unit trace, with and without normalization
    ref = oracles.mixed_product_chain(4096)
    data = exact_block_data(ref, 5)
    for normalize in (False, True):
        est = reconstruct_mpo(data, ReconstructionConfig(normalize=normalize))
        rep = mpotomo.compare_states(ref, est)
        assert abs(rep.hs_distance) <= 1e-12
        assert abs(est.trace - 1.0) <= 1e-12
        assert rep.purity_ref == 0.0


# ---- chunks of sites solved on separate threads ----


def _split_and_serial(monkeypatch, data, cpus):
    """reconstruct_mpo's (estimate, report) with `cpus` usable CPUs, and
    with one CPU and the whole stack solved as one piece; and the (lo, hi)
    and thread of every chunk the first run solved, in site order."""
    chunks, solve = [], reconstruction._solve_sites

    def recorded(*args):
        chunks.append((args[-2:], threading.current_thread()))
        return solve(*args)

    monkeypatch.setattr(reconstruction, "_solve_sites", recorded)
    monkeypatch.setattr(reconstruction, "_cpu_count", lambda: cpus)
    split = reconstruct_mpo(data, with_report=True)
    split_chunks = sorted(chunks, key=lambda chunk: chunk[0])
    monkeypatch.setattr(reconstruction, "_cpu_count", lambda: 1)
    monkeypatch.setattr(reconstruction, "_PIECE_BYTES", 1 << 62)
    return (split, reconstruct_mpo(data, with_report=True)), split_chunks


@pytest.mark.parametrize("make", [
    lambda: exact_block_data(w_state(256)[1], 5),
    lambda: add_gaussian_noise(exact_block_data(
        random_mpo_via_ancilla(256, seed=(3, 0, 0)), 5), 1e-3, seed=7),
    # fisher chunks hold at least 16^l sites: 16 at R = 3
    lambda: PauliBlockData(add_gaussian_noise(exact_block_data(
        w_state(64)[1], 3), 1e-3, seed=7).blocks, shots=np.full((62, 27),
                                                                1000)),
], ids=["exact_w256", "tikhonov_ancilla256", "fisher_w64"])
def test_split_reconstruction_is_bitwise_the_serial_one(monkeypatch, make):
    # each chunk solves its own sites piece by piece, and _solve_operators
    # gives every matrix what it gets alone: tensors and report do not
    # depend on the number of CPUs, nor on the size of the pieces
    data = make()
    ((split, split_report), (serial, serial_report)), chunks = (
        _split_and_serial(monkeypatch, data, 3))
    count = data.n_blocks
    assert [bounds for bounds, _ in chunks] == [
        (0, count // 3), (count // 3, 2 * count // 3), (2 * count // 3, count)]
    main = threading.main_thread()
    assert chunks[0][1] is main
    assert all(thread is not main for _, thread in chunks[1:])
    assert len(split.tensors) == len(serial.tensors)
    assert all(a.dtype == b.dtype and np.array_equal(a, b)
               for a, b in zip(split.tensors, serial.tensors))
    assert split_report.to_dict() == serial_report.to_dict()
    assert split_report.mode == NOISE_MODES[data.noise_kind]


def test_small_stacks_are_solved_in_one_chunk(monkeypatch, w_windows):
    # below two chunks of _MIN_CHUNK sites, or of 16^l sites in fisher mode
    # (W(256) at R = 5: 252 windows against 256), no thread is used
    for data in (exact_block_data(w_state(35)[1], 5), w_windows["fitted"]):
        _, chunks = _split_and_serial(monkeypatch, data, 8)
        assert [bounds for bounds, _ in chunks] == [(0, data.n_blocks)]
    _, chunks = _split_and_serial(monkeypatch,
                                  exact_block_data(w_state(36)[1], 5), 8)
    assert [bounds for bounds, _ in chunks] == [(0, 16), (16, 32)]
    # one chunk per CPU at most; and one where B is 64-square or larger,
    # whose SVDs use the BLAS threads themselves
    monkeypatch.setattr(reconstruction, "_cpu_count", lambda: 8)
    count = reconstruction._chunk_count
    assert [count(n, 2, 2, "tikhonov") for n in (1000, 47, 48)] == [8, 2, 3]
    assert [count(n, 2, 2, "fisher") for n in (511, 512)] == [1, 2]
    assert [count(n, l, r, "truncated_pinv") for n, l, r in (
        (10**5, 3, 2), (10**5, 2, 3), (10**5, 3, 3), (10**5, 4, 3))] == [
        8, 8, 1, 1]


def test_a_zero_window_in_a_later_chunk_is_reported_at_its_own_site(
        monkeypatch):
    data = exact_block_data(w_state(64)[1], 5)
    blocks = data.blocks.copy()
    blocks[50] = 0.0  # window 50 of 60 starts at site 51, resolves 53
    monkeypatch.setattr(reconstruction, "_cpu_count", lambda: 2)
    _, report = reconstruct_mpo(PauliBlockData(blocks), with_report=True)
    assert [(row["k"], row["flags"]) for row in report.sites
            if row["flags"]] == [(53, ["zero_operator"])]
    assert [row["k"] for row in report.sites] == list(range(3, 63))


def test_an_error_in_a_worker_chunk_reaches_the_caller_unchanged(
        monkeypatch):
    error = np.linalg.LinAlgError("no solve")
    threads, solve = [], reconstruction._solve_sites

    def failing(*args):
        if args[-2] > 0:  # every chunk but the first, the caller's own
            threads.append(threading.current_thread())
            raise error
        return solve(*args)

    monkeypatch.setattr(reconstruction, "_solve_sites", failing)
    monkeypatch.setattr(reconstruction, "_cpu_count", lambda: 2)
    with pytest.raises(np.linalg.LinAlgError) as caught:
        reconstruct_mpo(exact_block_data(w_state(64)[1], 5))
    assert caught.value is error
    assert len(threads) == 1 and threads[0] is not threading.main_thread()


def test_no_chunk_outlives_a_call_whose_own_chunk_failed():
    finished = []

    def solve(lo, hi):
        if lo == 0:
            raise ValueError("the caller's chunk")
        time.sleep(0.2)
        finished.append((lo, hi))

    with pytest.raises(ValueError, match="the caller's chunk"):
        reconstruction._map_chunks(solve, 32, 2)
    assert finished == [(16, 32)]


def test_chunks_run_in_the_callers_numpy_error_state():
    with np.errstate(divide="ignore", over="raise", invalid="print"):
        caller = np.geterr()
        chunks = reconstruction._map_chunks(
            lambda lo, hi: (lo, hi, threading.current_thread(), np.geterr()),
            64, 4)
    assert [chunk[:2] for chunk in chunks] == [(0, 16), (16, 32), (32, 48),
                                               (48, 64)]
    assert any(chunk[2] is not threading.main_thread() for chunk in chunks)
    assert all(chunk[3] == caller for chunk in chunks)


def test_concurrent_callers_share_one_pool(monkeypatch):
    # six callers on a fresh pool, switching threads every microsecond:
    # one pool is made, and every caller gets the one-CPU estimate
    made = []

    class Pool(reconstruction.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(self)
            time.sleep(0.05)  # widens the window between check and set
            super().__init__(*args, **kwargs)

    data = exact_block_data(w_state(64)[1], 5)
    monkeypatch.setattr(reconstruction, "_cpu_count", lambda: 1)
    expected = reconstruct_mpo(data)
    monkeypatch.setattr(reconstruction, "_cpu_count", lambda: 3)
    monkeypatch.setattr(reconstruction, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(reconstruction, "_pool", None)
    results = [None] * 6

    def call(i):
        results[i] = reconstruct_mpo(data)

    callers = [threading.Thread(target=call, args=(i,)) for i in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
        for pool in made:
            pool.shutdown()
    assert not any(caller.is_alive() for caller in callers)
    assert len(made) == 1
    assert all(est is not None and all(
        np.array_equal(a, b) for a, b in zip(est.tensors, expected.tensors))
        for est in results)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_runs_a_split_reconstruction(monkeypatch):
    # the child has none of its parent's pool threads; it must make its own
    # pool rather than wait on the parent's
    monkeypatch.setattr(reconstruction, "_cpu_count", lambda: 2)
    data = exact_block_data(w_state(64)[1], 5)
    expected = reconstruct_mpo(data)  # the parent's pool is running now
    with warnings.catch_warnings():
        # Python 3.12 warns that forking a process with threads may
        # deadlock the child, which is what this test checks does not
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            est = reconstruct_mpo(data)
            code = 0 if all(np.array_equal(a, b) for a, b in
                            zip(est.tensors, expected.tensors)) else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60.0
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's reconstruction did not finish "
                        "in 60 s")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(done[1]) == 0


def test_reconstruction_report_records_sites():
    st = random_mpo_via_ancilla(5, seed=16)
    data = exact_block_data(st, 3)
    rec, report = reconstruct_mpo(data, with_report=True)
    assert report.n_sites == 5 and report.width == 3
    assert report.l == 1 and report.r == 1
    assert [row["k"] for row in report.sites] == [2, 3, 4]
    for row in report.sites:
        assert len(row["singular_values"]) == 4


def test_report_serialization(tmp_path):
    st = random_mpo_via_ancilla(4, seed=17)
    _, report = reconstruct_mpo(exact_block_data(st, 3), with_report=True)
    path = tmp_path / "r.json"
    write_json(path, report.to_dict(), indent=1)
    payload = json.loads(path.read_text())
    assert payload["n_sites"] == 4
    assert len(payload["sites"]) == 2


def test_config_with_only_r_takes_the_rest_of_the_window_for_l():
    assert ReconstructionConfig(r=1).resolved(5, 8) == (3, 1)
    assert ReconstructionConfig(l=1).resolved(5, 8) == (1, 3)
    data = add_gaussian_noise(exact_block_data(
        random_mpo_via_ancilla(8, seed=3), 5), 1e-3, seed=4)
    est, report = reconstruct_mpo(data, ReconstructionConfig(r=1),
                                  with_report=True)
    ref = reconstruct_mpo(data, ReconstructionConfig(l=3, r=1))
    assert (report.l, report.r) == (3, 1)
    assert all(np.array_equal(a, b) for a, b in zip(est.tensors,
                                                    ref.tensors))


def test_config_validation():
    st = random_mpo_via_ancilla(5, seed=18)
    data = exact_block_data(st, 3)
    with pytest.raises(ValueError):
        reconstruct_mpo(data, ReconstructionConfig(l=2, r=2))
    with pytest.raises(ValueError):
        reconstruct_mpo(data, ReconstructionConfig(l=0, r=2))
    with pytest.raises(ValueError):
        ReconstructionConfig(l=2, r=2).resolved(4, 4)  # ok at n == width
    with pytest.raises(ValueError, match=r"need l \+ r <= n_sites - 2"):
        ReconstructionConfig().resolved(7, 5)
    # n == width passthrough accepts the degenerate split
    ReconstructionConfig(l=2, r=1).resolved(4, 4)


@pytest.mark.parametrize("l", [-1, 7])
def test_single_window_rejects_a_negative_split(l):
    # at N = R, l = -1 resolves to r = 4 and l = 7 to r = -4: refused by
    # name; a split of 0 on one side still runs, as does the default
    data = exact_block_data(w_state(4)[1], 4)
    with pytest.raises(ValueError, match="^need l >= 0 and r >= 0$"):
        reconstruct_mpo(data, ReconstructionConfig(l=l))
    assert ReconstructionConfig(l=0).resolved(4, 4) == (0, 3)
    assert ReconstructionConfig().resolved(4, 4) == (2, 1)


# ---- noise and the fisher penalty ----


def test_tikhonov_beats_raw_pinv_on_noisy_data():
    st = random_mpo_via_ancilla(7, seed=19)
    data = add_gaussian_noise(exact_block_data(st, 5), 1e-2, seed=20)
    reg = RegularizerSpec("tikhonov", sigma2=noise_tikhonov_sigma2(1e-2, 2, 2))
    d_tik = hs_distance(st, reconstruct_mpo(
        data, ReconstructionConfig(regularizer=reg)))
    d_raw = hs_distance(st, reconstruct_mpo(
        data, ReconstructionConfig(
            regularizer=RegularizerSpec("truncated_pinv"))))
    assert d_tik < d_raw


def test_fisher_penalties_from_counts_metadata():
    _, wm = w_state(5, phases=[0.1, 0.2, 0.3, 0.4])
    blocks = simulate_counts(wm, 3, 300, seed=21)
    data = block_data_from_counts(blocks, 5)
    rec = reconstruct_mpo(data, ReconstructionConfig(
        regularizer=RegularizerSpec("fisher")))
    assert rec.n_sites == 5
    assert np.isfinite(hs_distance(wm, rec))


def test_no_path_loads_scipy():
    # in a fresh interpreter: import mpotomo, a tikhonov reconstruction
    # and its score and a whole counts -> likelihood fit -> fisher
    # reconstruction leave scipy unloaded; the package needs numpy alone
    script = """
import sys
import mpotomo
from mpotomo.measurement import exact_block_data, simulate_counts
from mpotomo.reconstruction import reconstruct_mpo
from mpotomo.states import random_mpo_via_ancilla, w_state
assert "scipy" not in sys.modules, "import mpotomo loaded scipy"
st = random_mpo_via_ancilla(6, seed=1)
noisy = mpotomo.add_gaussian_noise(exact_block_data(st, 3), 1e-3, seed=2)
d = mpotomo.compare_states(st, reconstruct_mpo(noisy)).hs_distance
assert d < 1e-2 and "scipy" not in sys.modules, "tikhonov loaded scipy"
_, w = w_state(5, phases=[0.1, 0.2, 0.3, 0.4])
data = mpotomo.block_data_from_counts(simulate_counts(w, 3, 300, seed=3), 5)
est, report = reconstruct_mpo(data, with_report=True)
assert report.mode == "fisher"
assert all(row["flags"] == [] for row in report.sites)
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, f"a fisher reconstruction loaded {loaded}"
print(mpotomo.compare_states(w, est).hs_distance)
"""
    src = os.path.dirname(os.path.dirname(mpotomo.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert float(out.stdout) < 0.2


def test_fisher_mode_requires_metadata_or_penalty():
    st = random_mpo_via_ancilla(5, seed=22)
    exact = exact_block_data(st, 3)
    # an explicit fisher spec on exact or scalar-noise data
    for data in (exact, add_gaussian_noise(exact, 1e-3, seed=23)):
        with pytest.raises(ValueError, match="fisher noise metadata"):
            reconstruct_mpo(data, ReconstructionConfig(
                regularizer=RegularizerSpec("fisher")))


def _spd(n, cond, rng):
    # eigenvalues spread log-evenly from 1 down to 1 / cond
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    A = (Q * np.logspace(0, -np.log10(cond), n)) @ Q.T
    return (A + A.T) / 2


@pytest.mark.parametrize("cond", [10.0, 1e10])
@pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 64, 255, 1023])
def test_inverse_factor_is_the_inverse_cholesky_factor(rng, n, cond):
    # 33, 255 and 1023 split into unequal halves, 1023 down four levels
    A = _spd(n, cond, rng)
    ref = np.linalg.inv(np.linalg.cholesky(A))
    W = A.copy()
    _inverse_factor(W)
    assert np.all(np.triu(W, 1) == 0.0)
    # both factors carry errors of about cond * eps; the residual of W
    # stays within a small multiple of that of numpy's factor
    assert np.linalg.norm(W - ref) <= 1e-15 * cond * np.linalg.norm(ref)
    residual = [np.linalg.norm(M @ A @ M.T - np.eye(n)) for M in (W, ref)]
    assert residual[0] <= 20 * residual[1] + n * np.finfo(float).eps


def test_inverse_factor_works_on_a_strided_view(rng):
    # the recursion factors strided views of its argument's halves; a view
    # of a padded array must factor in place, leaving the padding as it is
    full = np.zeros((101, 101))
    full[1:, 1:] = _spd(100, 1e4, rng)
    ref = np.linalg.inv(np.linalg.cholesky(full[1:, 1:]))
    view = full[1:, 1:]
    _inverse_factor(view)
    assert np.allclose(view, ref, rtol=0.0, atol=1e-12 * np.abs(ref).max())
    assert np.all(full[0] == 0.0) and np.all(full[:, 0] == 0.0)


def _first_half_not_positive(n, rng):
    A = _spd(n, 1e3, rng)
    A[3, 3] = -1.0
    return A


def _second_half_not_positive(n, rng):
    A = _spd(n, 1e3, rng)
    A[n - 3, n - 3] = -1.0
    return A


def _only_the_schur_complement_not_positive(n, rng):
    # both diagonal blocks are the identity; A22 - A21 A21^T is not
    h = n // 2
    A = np.eye(n)
    A[:h, h:] = 1.5 * np.eye(h, n - h)
    A[h:, :h] = A[:h, h:].T
    return A


@pytest.mark.parametrize("n", [65, 200])
@pytest.mark.parametrize("make, first_ok, second_ok", [
    (_first_half_not_positive, False, True),
    (_second_half_not_positive, True, False),
    (_only_the_schur_complement_not_positive, True, True),
], ids=["first_half", "second_half", "schur_complement"])
def test_inverse_factor_raises_where_a_cholesky_factor_fails(
        rng, n, make, first_ok, second_ok):
    # which diagonal blocks of A are positive definite on their own
    A = make(n, rng)
    h = n // 2
    for block, ok in ((A[:h, :h], first_ok), (A[h:, h:], second_ok)):
        if ok:
            np.linalg.cholesky(block)
        else:
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.cholesky(block)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(A)
    with pytest.raises(np.linalg.LinAlgError):
        _inverse_factor(A.copy())


def test_fisher_penalty_closed_form_for_the_maximally_mixed_window():
    # On the maximally mixed window every outcome of the first two sites'
    # marginal has p = 1/4 and every coefficient gradient is +-1/2, so the
    # information is diagonal: 4 n 3^(2 - w) for a string of weight w, with
    # n = 3 * 100 marginal shots per setting. Summing the inverse over
    # rows i, with the identity entry exact, gives P[0, 0] = 3 / (12 n) and
    # P[j, j] = 1 / (12 n) + 3 / (4 n) for j != 0
    n = 300
    theta = coeffs_from_dense(np.eye(8) / 8.0)
    P, flags = _fisher_penalty(theta, np.full(27, 100), 1)
    expected = (1.0 / (12 * n) + 3.0 / (4 * n)) * np.eye(4)
    expected[0, 0] = 3.0 / (12 * n)
    assert np.allclose(P, expected, rtol=1e-12, atol=1e-15)
    assert flags == []


@pytest.mark.parametrize("shots_kind", ["uniform", "random", "partly_zero",
                                        "marginal_zero"])
@pytest.mark.parametrize("l, r", [(1, 1), (2, 1), (2, 2), (3, 1), (1, 3)])
def test_fisher_penalty_matches_the_full_cholesky_reference(fisher_window, l,
                                                            r, shots_kind):
    # the reference inverts the whole information of the window's first
    # l + r sites directly. Every marginal setting keeps shots when every
    # fifth window setting is unmeasured; one unmeasured marginal setting
    # leaves its full-weight strings without information, and both take
    # the scalar fallback
    theta, shots = fisher_window(l + r + 1, shots_kind)
    P, flags = _fisher_penalty(theta, shots, r)
    ref, ref_flags = oracles.fisher_penalty_marginal(theta, shots, l, r)
    assert flags == ref_flags
    assert flags == (["fisher_singular_scalar"]
                     if shots_kind == "marginal_zero" else [])
    # entries that cancel to rounding level have no relative precision,
    # so the tolerance is relative to the largest entry
    assert np.allclose(P, ref, rtol=1e-10, atol=1e-10 * np.abs(ref).max())


def test_fisher_singular_information_falls_back_to_scalar():
    # no setting measures x on a window's first site, so the information
    # on every coefficient with x there is zero
    st = random_mpo_via_ancilla(5, seed=24)
    base = exact_block_data(st, 3)
    measured = [0 if s[0] == "x" else 100 for s in all_settings(3)]
    data = PauliBlockData(base.blocks, shots=[measured] * base.n_blocks)
    rec, report = reconstruct_mpo(data, ReconstructionConfig(
        regularizer=RegularizerSpec("fisher")), with_report=True)
    assert [row["k"] for row in report.sites] == [2, 3, 4]
    for site in report.sites:
        assert site["flags"] == ["fisher_singular_scalar"]
        b = site["k"] - 2
        P, flags = _fisher_penalty(data.blocks[b], data.shots[b], 1)
        assert flags == ["fisher_singular_scalar"]
        assert np.allclose(P, P[0, 0] * np.eye(4)) and P[0, 0] > 0.0
    assert all(np.all(np.isfinite(t)) for t in rec.tensors)


def test_zero_fisher_information_flags_singular_penalty():
    # no shots at all give zero information and a zero scalar penalty,
    # which is not positive definite: the sites fall back to the truncated
    # filter on B
    st = random_mpo_via_ancilla(5, seed=27)
    base = exact_block_data(st, 3)
    shots = np.zeros((base.n_blocks, 27), dtype=int)
    data = PauliBlockData(base.blocks, shots=shots)
    rec, report = reconstruct_mpo(data, ReconstructionConfig(
        regularizer=RegularizerSpec("fisher")), with_report=True)
    for row in report.sites:
        assert row["flags"] == ["singular_penalty", "fisher_singular_scalar"]
    assert all(np.all(np.isfinite(t)) for t in rec.tensors)
    assert hs_distance(st, rec) < 1e-10


def test_zero_shots_in_one_window_flag_only_its_site():
    # window 3 (sites 3..5) resolves site 4; its zero information must
    # not leak into the penalties or flags of the other sites
    st = random_mpo_via_ancilla(7, seed=5)
    base = exact_block_data(st, 3)
    shots = np.full((base.n_blocks, 27), 1000)
    shots[2] = 0
    data = PauliBlockData(base.blocks, shots=shots)
    rec, report = reconstruct_mpo(data, ReconstructionConfig(
        regularizer=RegularizerSpec("fisher")), with_report=True)
    assert [row["k"] for row in report.sites] == [2, 3, 4, 5, 6]
    for row in report.sites:
        expected = ["singular_penalty", "fisher_singular_scalar"]
        assert row["flags"] == (expected if row["k"] == 4 else [])
    assert all(np.all(np.isfinite(t)) for t in rec.tensors)
    assert hs_distance(st, rec) < 2e-3
    # in the fisher stack, site 4 takes lam = 0 and W = I: bitwise the
    # truncated_pinv solve of its own B
    B, C = _site_matrices(data.blocks[2], 1, 1)
    (S,), (s,), _ = _solve_operators(
        B[None], RegularizerSpec("truncated_pinv"), None)
    assert report.sites[2]["singular_values"] == s.tolist()
    assert np.array_equal(rec.tensors[3],
                          (S @ C).reshape(4, 4, 4).transpose(1, 0, 2))


def test_fisher_report_spectrum_is_that_of_the_whitened_matrix(rng):
    st = random_mpo_via_ancilla(5, seed=28)
    base = exact_block_data(st, 3)
    shots = rng.integers(1, 1000, size=(base.n_blocks, 27))
    data = PauliBlockData(base.blocks, shots=shots)
    _, report = reconstruct_mpo(data, ReconstructionConfig(
        regularizer=RegularizerSpec("fisher")), with_report=True)
    for row in report.sites:
        k = row["k"]
        P, _ = _fisher_penalty(data.blocks[k - 2], shots[k - 2], 1)
        L = np.linalg.cholesky(P)
        B, _ = _site_matrices(data.blocks[k - 1 - 1], 1, 1)
        expected = np.linalg.svd(B @ np.linalg.inv(L).T, compute_uv=False)
        assert np.allclose(row["singular_values"], expected, rtol=1e-10,
                           atol=0.0)
        assert row["flags"] == []


def test_six_site_windows_beat_five_on_counts():
    # criterion 7's trial-0 W state, 100 shots per setting and one count
    # seed at both widths: the wider window gives the better estimate
    rng = np.random.default_rng((20260822, 0))
    _, wm = w_state(8, phases=list(rng.uniform(0.0, 2.0 * np.pi, size=7)))
    scores = {}
    for width in (5, 6):
        data = block_data_from_counts(
            simulate_counts(wm, width, 100, seed=0), 8)
        rec, report = reconstruct_mpo(data, with_report=True)
        assert report.mode == "fisher"
        assert all(row["flags"] == [] for row in report.sites)
        scores[width] = (hs_distance(wm, rec),
                         fidelity_w_optimized(rec)[0])
    assert scores[6][0] < scores[5][0]
    assert scores[6][1] > scores[5][1]


# ---- invertibility diagnostics ----


def test_numerical_rank():
    assert numerical_rank(np.zeros((3, 3))) == 0
    assert numerical_rank(np.eye(3)) == 3
    m = np.diag([1.0, 1e-3, 1e-12])
    assert numerical_rank(m) == 2


def test_dense_invertibility_of_maximally_mixed():
    mm = DenseOperator(np.eye(64, dtype=complex) / 64)
    rep = check_invertibility_dense(mm, 1, 1)
    assert rep.is_invertible
    assert all(row["rank_window"] == row["rank_cut"] == 1
               for row in rep.rows)


def test_dense_invertibility_rejects_ghz_narrow_windows():
    _, ghz = ghz_state(6)
    rep = check_invertibility_dense(ghz.to_dense(), 1, 1)
    assert not rep.is_invertible
    # two-site reductions are classical: rank 2 against full cut rank 4
    assert rep.rows[0]["rank_window"] == 2
    assert rep.rows[0]["rank_cut"] == 4


def test_dense_invertibility_of_generic_mixed_state():
    st = random_mpo_via_ancilla(6, seed=25)
    rep = check_invertibility_dense(st.to_dense(), 2, 2)
    assert rep.is_invertible


def test_span_condition_on_ancilla_state():
    st = random_mpo_via_ancilla(6, seed=26)
    assert check_invertibility_mpo_spans(st, 2, 2).sufficient
    rep = check_invertibility_mpo_spans(st, 1, 1)
    # a single site cannot span the 16-dimensional bond-pair space
    assert not rep.sufficient
    assert all(row["rank_left"] <= 4 for row in rep.rows)


@pytest.mark.parametrize("check, state, l, r, error, match", [
    (check_invertibility_dense, random_mpo_via_ancilla(4, seed=1), 1, 1,
     TypeError, "dense invertibility check needs a DenseOperator"),
    (check_invertibility_dense, DenseOperator(np.eye(8) / 8), 0, 1,
     ValueError, r"need 1 <= l, r with l \+ r < n_sites"),
    (check_invertibility_dense, DenseOperator(np.eye(8) / 8), 2, 1,
     ValueError, r"need 1 <= l, r with l \+ r < n_sites"),
    (check_invertibility_mpo_spans, random_mpo_via_ancilla(3, seed=1), 1, 2,
     ValueError, r"need 1 <= l, r with l \+ r < n_sites"),
], ids=["dense_type", "dense_l_0", "dense_too_wide", "spans_too_wide"])
def test_invertibility_checks_name_bad_arguments(check, state, l, r, error,
                                                 match):
    with pytest.raises(error, match=match):
        check(state, l, r)


def test_span_condition_needs_nonzero_trace():
    tensors = [np.zeros((4, 1, 2)), np.zeros((4, 2, 1))]
    tensors[0][1, 0, 0] = 1.0
    tensors[1][1, 0, 0] = 1.0
    from mpotomo.operators import MatrixProductOperator
    traceless = MatrixProductOperator(tensors)
    with pytest.raises(ValueError):
        check_invertibility_mpo_spans(traceless, 1, 1)
