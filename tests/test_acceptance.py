"""Acceptance gate: eight end-to-end criteria, one printed verdict each.

Each test prints a single [criterion N] PASS/FAIL line on the real stdout
(bypassing capture) so the gate can be read off a plain pytest run; the
assertions carry the same conditions.
"""

import time

import numpy as np
import pytest

import oracles
from mpotomo.measurement import (CountsBlock, add_gaussian_noise,
                                 block_data_from_counts, exact_block_data,
                                 fisher_information, simulate_counts)
from mpotomo.metrics import fidelity_w_optimized, hs_distance
from mpotomo.operators import DenseOperator
from mpotomo.reconstruction import (ReconstructionConfig, RegularizerSpec,
                                    check_invertibility_dense,
                                    check_invertibility_mpo_spans,
                                    default_split, noise_tikhonov_sigma2,
                                    reconstruct_mpo, _solve_operators)
from mpotomo.states import (product_state, ghz_state,
                            random_mpo_via_ancilla, thermal_dense, w_state)
from mpotomo.sweep import SweepConfig, run_sweep


@pytest.fixture
def verdict(capfd):
    """One printed PASS/FAIL line per criterion, bypassing capture."""

    def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
        tag = "PASS" if ok else "FAIL"
        with capfd.disabled():
            print(f"[criterion {num}] {tag} - {name}: {detail}", flush=True)

    return _verdict


def _noise_matched_config(sigma: float, width: int) -> ReconstructionConfig:
    l, r = default_split(width)
    reg = RegularizerSpec("tikhonov",
                          sigma2=noise_tikhonov_sigma2(sigma, l, r))
    return ReconstructionConfig(regularizer=reg)


def test_criterion_1_exact_reconstruction_fixed_point(verdict):
    t0 = time.time()
    worst = 0.0
    for seed in range(20):
        st = random_mpo_via_ancilla(6, seed=seed, t_hnorm=0.01)
        rec = reconstruct_mpo(exact_block_data(st, 5))
        worst = max(worst, abs(hs_distance(st.to_dense(), rec)))
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and elapsed < 60.0
    verdict(1, "exact reconstruction on 20 generic states",
             ok, f"worst D = {worst:.3e}, {elapsed:.1f}s")
    assert worst <= 1e-8
    assert elapsed < 60.0


def test_criterion_2_recursion_matches_oracles(verdict):
    rng = np.random.default_rng(20260822)
    worst_rel = 0.0
    worst_mpo = 0.0
    for seed in range(20):
        st = random_mpo_via_ancilla(6, seed=seed, t_hnorm=0.01)
        data = exact_block_data(st, 5)
        rec = reconstruct_mpo(data)
        dense = st.to_dense().matrix
        for idx in rng.integers(0, 4**6, size=100):
            alphas = oracles.unpack_index(int(idx), 6)
            got = oracles.recursion_coefficient(data.blocks, alphas, 2, 2)
            ref = oracles.coeff_by_trace(dense, alphas).real
            worst_rel = max(worst_rel,
                            abs(got - ref) / max(abs(ref), 1e-15))
            worst_mpo = max(worst_mpo, abs(got - rec.coefficient(alphas)))
    ok = worst_rel <= 1e-8 and worst_mpo <= 1e-10
    verdict(2, "recursion against trace and network oracles", ok,
             f"max rel err = {worst_rel:.3e}, max network gap = "
             f"{worst_mpo:.3e}")
    assert worst_rel <= 1e-8
    assert worst_mpo <= 1e-10


def test_criterion_3_noise_scaling_on_thermal_chain(verdict):
    t0 = time.time()
    rho = thermal_dense("critical_ising", 8, 5.0)
    data0 = exact_block_data(rho, 5)
    means = {}
    for sigma in (1e-3, 1e-2):
        cfg = _noise_matched_config(sigma, 5)
        ds = []
        for trial in range(20):
            noisy = add_gaussian_noise(data0, sigma,
                                       seed=(int(sigma * 1e6), trial))
            ds.append(hs_distance(rho, reconstruct_mpo(noisy, cfg)))
        means[sigma] = float(np.mean(ds))
    ratio = means[1e-2] / means[1e-3]
    elapsed = time.time() - t0
    ok = means[1e-3] < means[1e-2] and 3.0 <= ratio <= 30.0 and elapsed < 600
    verdict(3, "noise scaling over one decade", ok,
             f"mean D = {means[1e-3]:.3e} / {means[1e-2]:.3e}, "
             f"ratio = {ratio:.1f}, {elapsed:.1f}s")
    assert means[1e-3] < means[1e-2]
    assert 3.0 <= ratio <= 30.0
    assert elapsed < 600.0


def test_criterion_4_wider_windows_reduce_error(verdict):
    sigma = 1e-2
    means = {}
    for width in (3, 5):
        cfg = _noise_matched_config(sigma, width)
        ds = []
        for trial in range(20):
            st = random_mpo_via_ancilla(8, seed=trial, t_hnorm=0.01)
            noisy = add_gaussian_noise(exact_block_data(st, width), sigma,
                                       seed=(width, trial))
            ds.append(hs_distance(st, reconstruct_mpo(noisy, cfg)))
        means[width] = float(np.mean(ds))
    ok = means[5] < means[3]
    verdict(4, "window width 5 beats width 3 at fixed noise", ok,
             f"mean D = {means[5]:.3e} (R=5) vs {means[3]:.3e} (R=3)")
    assert means[5] < means[3]


def test_criterion_5_invertibility_booleans(verdict):
    _, ghz = ghz_state(6)
    ghz_bad = not check_invertibility_dense(ghz.to_dense(), 1, 1).is_invertible

    prod_dense, _ = product_state(6)
    mm = DenseOperator(np.eye(64, dtype=complex) / 64)
    easy_ok = (check_invertibility_dense(prod_dense, 1, 1).is_invertible
               and check_invertibility_dense(mm, 1, 1).is_invertible)

    st = random_mpo_via_ancilla(6, seed=1, t_hnorm=0.01)
    span_wide = check_invertibility_mpo_spans(st, 2, 2).sufficient
    span_narrow = not check_invertibility_mpo_spans(st, 1, 1).sufficient

    ok = ghz_bad and easy_ok and span_wide and span_narrow
    verdict(5, "invertibility and span booleans", ok,
             f"ghz_fails={ghz_bad}, classical_pass={easy_ok}, "
             f"span_wide={span_wide}, span_narrow_fails={span_narrow}")
    assert ghz_bad
    assert easy_ok
    assert span_wide
    assert span_narrow


def test_criterion_6_regularizer_closed_forms(verdict):
    rng = np.random.default_rng(3)
    # synthetic SVD with a wide spectrum
    U, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    V, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    s = np.logspace(0, -7, 6)
    B = U[:, :6] @ np.diag(s) @ V.T
    e = rng.normal(size=8)
    s2 = 1e-6
    (S,), _, _ = _solve_operators(
        B[None], RegularizerSpec("tikhonov", sigma2=s2), None)
    x = S @ e
    factors = (V.T @ x) * s / (U[:, :6].T @ e)
    filt_err = float(np.max(np.abs(factors - s**2 / (s**2 + s2))))

    P = rng.normal(size=(6, 6))
    P = P @ P.T + 0.05 * np.eye(6)
    (S,), _, _ = _solve_operators(B[None], RegularizerSpec("fisher"), P[None])
    xf = S @ e
    ref = np.linalg.solve(B.T @ B + P, B.T @ e)
    fisher_err = float(np.max(np.abs(xf - ref)))

    n = 500
    counts = CountsBlock(1, np.full((3, 2), n // 2))
    F = fisher_information(counts, np.eye(2) / 2)
    theta = np.array([2.0**-0.5, 0.0, 0.0, 0.0])
    F_fd = oracles.fisher_by_finite_difference(counts.counts, 1, theta)
    target = np.diag([2.0 * n, 2.0 * n, 2.0 * n])
    info_err = float(max(np.max(np.abs(F - target)),
                         np.max(np.abs(F_fd - target))))

    ok = filt_err <= 1e-12 and fisher_err <= 1e-10 and info_err <= 1e-6 * n
    verdict(6, "solver and information closed forms", ok,
             f"filter gap = {filt_err:.2e}, penalized solve gap = "
             f"{fisher_err:.2e}, information gap = {info_err:.2e}")
    assert filt_err <= 1e-12
    assert fisher_err <= 1e-10
    # diag(2n) check: absolute tolerance scaled by n for the fd oracle
    assert info_err <= 1e-6 * n


def _counts_trial(wm, width, seed):
    blocks = simulate_counts(wm, width, 100, seed=seed)
    data = block_data_from_counts(blocks, 8)
    rec = reconstruct_mpo(data, ReconstructionConfig(
        regularizer=RegularizerSpec("fisher")))
    f, _ = fidelity_w_optimized(rec)
    return f, hs_distance(wm, rec)


def test_criterion_7_counts_pipeline_prefers_wide_windows(verdict):
    wins = 0
    details = []
    for trial in range(20):
        rng = np.random.default_rng((20260822, trial))
        phases = list(rng.uniform(0.0, 2.0 * np.pi, size=7))
        _, wm = w_state(8, phases=phases)
        f3, d3 = _counts_trial(wm, 3, seed=(7, trial, 3))
        f5, d5 = _counts_trial(wm, 5, seed=(7, trial, 5))
        if f5 >= f3 and d5 <= d3:
            wins += 1
        details.append((f3, f5, d3, d5))
    ok = wins >= 16
    f3m = np.mean([d[0] for d in details])
    f5m = np.mean([d[1] for d in details])
    verdict(7, "counts pipeline, width 5 over width 3", ok,
             f"{wins}/20 trials, mean f = {f5m:.3f} (R=5) vs {f3m:.3f} (R=3)")
    assert wins >= 16


def test_criterion_8_sweeps_are_reproducible(tmp_path, verdict):
    cfg = SweepConfig(family="random_mpo", n_list=[6], width_list=[3, 5],
                      sigma_list=[0.0, 1e-2], trials=2, master_seed=11)
    pairs = []
    for tag in ("one", "two"):
        out = tmp_path / f"{tag}.csv"
        summary = tmp_path / f"{tag}_summary.csv"
        run_sweep(cfg, out_csv=out, summary_csv=summary)
        pairs.append((out.read_bytes(), summary.read_bytes()))
    ok = pairs[0] == pairs[1]
    verdict(8, "sweep rerun is byte-identical", ok,
             f"{len(pairs[0][0])} trial bytes, "
             f"{len(pairs[0][1])} summary bytes")
    assert pairs[0] == pairs[1]
