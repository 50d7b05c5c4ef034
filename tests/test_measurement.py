import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from oracles import random_mpo
from mpotomo.files import write_floats, write_json
from mpotomo.measurement import (MLE_TOL, CountsBlock, PauliBlockData,
                                 _design, _fisher_matrix, _labels,
                                 _linear_inversion, _probabilities,
                                 _project_density, _setting_unitaries,
                                 _workspace, add_gaussian_noise,
                                 all_settings, block_data_from_counts,
                                 exact_block_data,
                                 fisher_information, load_block_data,
                                 load_counts, local_mle,
                                 save_block_data, save_counts,
                                 simulate_counts)
import mpotomo.measurement
import mpotomo.operators
from mpotomo.operators import (DenseOperator, _rescale_trace, load_operator,
                               save_operator, window_coeffs)
from mpotomo.metrics import fidelity_w_optimized, hs_distance
from mpotomo.pauli import coeffs_from_dense, dense_from_coeffs, n_sites_of
from mpotomo.reconstruction import (ReconstructionConfig, RegularizerSpec,
                                    reconstruct_mpo)
from mpotomo.states import (ghz_state, product_state, random_mpo_via_ancilla,
                            w_state)
from mpotomo.sweep import sweep_config_from_json


def _dense_state(seed, n):
    rng = np.random.default_rng(seed)
    dim = 2**n
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = m @ m.conj().T
    return DenseOperator(m / np.trace(m).real)


def test_exact_blocks_match_trace_oracle():
    state = _dense_state(0, 4)
    data = exact_block_data(state, 2)
    assert data.n_blocks == 3
    for b, k in enumerate(range(1, 4)):
        red = oracles.partial_trace_loops(state.matrix, [k, k + 1], 4)
        ref = oracles.all_coeffs_by_trace(red, 2)
        assert np.max(np.abs(data.blocks[b] - ref.real)) < 1e-12


def test_exact_blocks_same_for_dense_and_mpo():
    mpo = random_mpo(6, bond=2, seed=12)
    d1 = exact_block_data(mpo, 3)
    d2 = exact_block_data(mpo.to_dense(), 3)
    assert np.max(np.abs(d1.blocks - d2.blocks)) < 1e-12


@pytest.mark.parametrize("width", [3, 5, 7])
def test_exact_blocks_bitwise_equal_per_window_contractions(width):
    mpo = random_mpo_via_ancilla(64, seed=13)
    starts = range(1, 64 - width + 2)
    blocks = exact_block_data(mpo, width).blocks
    assert np.array_equal(
        blocks, np.array([window_coeffs(mpo, k, width) for k in starts]))
    assert np.array_equal(
        blocks, np.array([oracles.window_coeffs_tensordot(mpo, k, width)
                          for k in starts]))


def test_identity_environments_built_once_per_call(monkeypatch):
    calls = []
    build = mpotomo.operators.identity_environments

    def counted(mpo, *bounds):
        calls.append(mpo)
        return build(mpo, *bounds)

    monkeypatch.setattr(mpotomo.operators, "identity_environments", counted)
    mpo = random_mpo(8, bond=2, seed=14)
    exact_block_data(mpo, 3)
    assert len(calls) == 1
    _rescale_trace(mpo.tensors, 1.0)
    simulate_counts(mpo, 2, 10, seed=0)
    assert len(calls) == 2


def test_simulate_counts_match_window_coeffs_densities():
    # the draws replay one multinomial call per window and setting, window
    # by window, settings in all_settings order; the W states have exact
    # zero probabilities, which consume no random number
    mpo = random_mpo_via_ancilla(7, seed=15)
    dense = w_state(5)[1].to_dense()
    cases = [(mpo, 3, 50, 16), (mpo, 1, 50, 17), (mpo, 4, 30, 18),
             (_w8_bench_state(), 5, 100, 3), (dense, 4, 100, 19)]
    for state, width, shots, seed in cases:
        got = simulate_counts(state, width, shots, seed=seed)
        rng = np.random.default_rng(seed)
        zeros = 0
        for k, block in enumerate(got, start=1):
            rho = dense_from_coeffs(window_coeffs(state, k, width))
            assert block.counts.shape == (3**width, 2**width)
            for j, setting in enumerate(all_settings(width)):
                p = oracles.setting_probabilities(rho, setting)
                zeros += np.count_nonzero(p == 0.0)
                want = rng.multinomial(shots, p)
                assert np.array_equal(block.counts[j], want)
        assert (zeros > 0) == (state is not mpo)


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 6, 7])
def test_setting_kernel_matches_per_setting_einsum(width):
    # each unitary is bitwise the np.kron chain of its factors, built in
    # simulate_counts' batches (4 settings at width 6, 1 at width 7) on one
    # workspace: every setting up to width 5, a fixed sample of 9 at width
    # 6 (so the last batch is short) and of 3 at width 7. The
    # probabilities agree with the per-setting einsum to a tolerance, since
    # einsum's rounding differs between numpy versions
    settings = all_settings(width)
    axes = _labels(width).axes
    sample = (np.arange(len(axes)) if width <= 5 else
              np.random.default_rng(width).choice(
                  len(axes), {6: 9, 7: 3}[width], replace=False))
    step = max(1, mpotomo.measurement._BATCH_BYTES // (16 * 4**width))
    work = _workspace(min(step, len(sample)), width)
    for lo in range(0, len(sample), step):
        rows = sample[lo:lo + step]
        for j, u in zip(rows, _setting_unitaries(axes[rows], work)):
            assert np.array_equal(
                u, oracles.kron_chain([oracles.AXIS_BASES[ch]
                                       for ch in settings[j]]))
    if width > 5:
        return
    u = _setting_unitaries(axes)
    for state in (random_mpo_via_ancilla(6, seed=15), w_state(6)[1]):
        rhos = [dense_from_coeffs(window_coeffs(state, k, width))
                for k in range(1, state.n_sites - width + 2)]
        probs = _probabilities(rhos, u)
        for rho, p in zip(rhos, probs):
            for j, setting in enumerate(settings):
                want = oracles.setting_probabilities_einsum(rho, setting)
                assert np.max(np.abs(p[j] - want)) <= 1e-15


def test_identity_entry_encodes_trace():
    state = _dense_state(1, 4)
    for width in (1, 2, 3):
        data = exact_block_data(state, width)
        assert np.allclose(data.blocks[:, 0], 2.0 ** (-width / 2.0),
                           atol=1e-12)


@pytest.mark.parametrize("call, error, match", [
    (lambda: PauliBlockData(np.zeros((3, 63))),
     ValueError, r"blocks must have shape \(n_blocks, 4\^R\) with "
     r"n_blocks, R >= 1, not \(3, 63\)"),
    (lambda: PauliBlockData(np.zeros((0, 256))),
     ValueError, r"blocks must have shape .*, not \(0, 256\)"),
    (lambda: PauliBlockData(np.zeros((3, 1))),
     ValueError, r"blocks must have shape .*, not \(3, 1\)"),
    (lambda: PauliBlockData(np.zeros(64)),
     ValueError, r"blocks must have shape .*, not \(64,\)"),
    (lambda: PauliBlockData(np.zeros((3, 64)), sigma=1e-3,
                            shots=np.ones((3, 27), dtype=int)),
     ValueError, "window data carries sigma or shots, not both"),
    (lambda: exact_block_data(np.eye(4) / 4, 1),
     TypeError, "unsupported state type ndarray"),
    (lambda: local_mle(CountsBlock(1, np.zeros((3, 2), int))),
     ValueError, "no counts present in block"),
], ids=["blocks_shape", "width_above_n", "no_sites", "one_vector",
        "sigma_and_shots", "not_a_state", "no_counts"])
def test_window_inputs_are_named(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_exact_block_data_validates_width():
    state = _dense_state(2, 3)
    with pytest.raises(ValueError):
        exact_block_data(state, 0)
    with pytest.raises(ValueError):
        exact_block_data(state, 4)


def test_noise_scale_follows_width():
    # injected on unnormalized strings: normalized entries get
    # sigma / sqrt(2^width)
    state = _dense_state(3, 5)
    width, sigma = 3, 1e-2
    data = exact_block_data(state, width)
    deltas = []
    for seed in range(40):
        noisy = add_gaussian_noise(data, sigma, seed=seed)
        deltas.append((noisy.blocks - data.blocks).ravel())
    sd = np.std(np.concatenate(deltas))
    expected = sigma / np.sqrt(2.0**width)
    assert abs(sd - expected) < 0.05 * expected


@pytest.mark.parametrize("perturb_identity", [True, False])
@pytest.mark.parametrize("sigma", [0.0, 1e-3, 0.3])
def test_noise_is_bitwise_the_sum_with_temporaries(sigma, perturb_identity):
    # the in-place draw gives the bits of blocks + scale * z
    data = exact_block_data(_dense_state(6, 5), 3)
    for seed in range(5):
        z = np.random.default_rng(seed).standard_normal(data.blocks.shape)
        want = data.blocks + sigma / np.sqrt(2.0**3) * z
        if not perturb_identity:
            want[:, 0] = data.blocks[:, 0]
        noisy = add_gaussian_noise(data, sigma, seed=seed,
                                   perturb_identity=perturb_identity)
        assert np.array_equal(noisy.blocks, want)


def test_noise_is_seeded_and_marks_metadata():
    state = _dense_state(4, 4)
    data = exact_block_data(state, 2)
    n1 = add_gaussian_noise(data, 1e-3, seed=5)
    n2 = add_gaussian_noise(data, 1e-3, seed=5)
    n3 = add_gaussian_noise(data, 1e-3, seed=6)
    assert np.array_equal(n1.blocks, n2.blocks)
    assert not np.array_equal(n1.blocks, n3.blocks)
    assert n1.noise_kind == "scalar" and n1.sigma == 1e-3


def test_noise_can_keep_identity_exact():
    state = _dense_state(5, 4)
    data = exact_block_data(state, 2)
    noisy = add_gaussian_noise(data, 1e-2, seed=0, perturb_identity=False)
    assert np.array_equal(noisy.blocks[:, 0], data.blocks[:, 0])
    default = add_gaussian_noise(data, 1e-2, seed=0)
    assert not np.array_equal(default.blocks[:, 0], data.blocks[:, 0])


@pytest.mark.parametrize("sigma", [-0.01, float("nan"), float("inf")])
def test_noise_rejects_negative_or_non_finite_sigma(sigma):
    data = exact_block_data(_dense_state(5, 3), 2)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        add_gaussian_noise(data, sigma, seed=0)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        PauliBlockData(data.blocks, sigma=sigma)


def test_setting_probabilities_match_projector_oracle():
    state = _dense_state(7, 2)
    rho = state.matrix
    for setting in all_settings(2):
        p = oracles.setting_probabilities(rho, setting)
        ref = [oracles.outcome_probability(rho, setting, (o >> 1 & 1, o & 1))
               for o in range(4)]
        assert np.allclose(p, ref, atol=1e-12)
        assert abs(p.sum() - 1.0) < 1e-12


def test_outcome_string_roundtrip():
    strings, index = _labels(3).outcomes, _labels(3).index
    assert strings[0] == "+++"
    assert strings[5] == "-+-"
    # bit 0 of a site is "+", site 1 the most significant bit
    assert strings == tuple("".join("+-"[(idx >> (2 - i)) & 1]
                                    for i in range(3)) for idx in range(8))
    for idx in range(8):
        assert index[strings[idx]] == idx
    # built once per width, and shared, so neither table can be changed
    assert _labels(3) is _labels(3)
    with pytest.raises(TypeError):
        index["+++"] = 1


def test_simulate_counts_on_all_up_state():
    state, _ = product_state(3)
    blocks = simulate_counts(state, 2, 500, seed=0)
    assert [b.k for b in blocks] == [1, 2]
    settings = all_settings(2)
    for b in blocks:
        assert b.width == 2 and b.counts.shape == (9, 4)
        assert np.all(b.counts.sum(axis=1) == 500)
        # measuring z on |0> is deterministic: every shot lands on "+"
        assert b.counts[settings.index("zz"), 0] == 500
        assert b.counts[settings.index("xy")].sum() == 500


@pytest.mark.parametrize("width", [3, 4, 5])
def test_simulate_counts_does_not_depend_on_the_batch_size(monkeypatch,
                                                          width):
    # each setting's probabilities come from the same matmul calls in any
    # batch, and every batch reuses one workspace (the short last batch its
    # leading rows), so the counts are bitwise those of one batch of all
    # settings
    state = random_mpo_via_ancilla(6, seed=21, t_hnorm=0.1)
    counts = []
    for settings in (1, 5, 3**width):
        monkeypatch.setattr(mpotomo.measurement, "_BATCH_BYTES",
                            settings * 16 * 4**width)
        counts.append([b.counts
                       for b in simulate_counts(state, width, 300, seed=2)])
    assert all(map(np.array_equal, counts[0], counts[1]))
    assert all(map(np.array_equal, counts[0], counts[2]))


def test_simulate_counts_is_seeded():
    state, _ = product_state(3)
    b1 = simulate_counts(state, 2, 100, seed=3)
    b2 = simulate_counts(state, 2, np.int64(100), seed=3)
    for x, y in zip(b1, b2):
        assert np.array_equal(x.counts, y.counts)


def test_mle_recovers_pure_product_state():
    state, _ = product_state(2)
    block = simulate_counts(state, 2, 5000, seed=1)[0]
    res = local_mle(block)
    assert res.converged
    assert abs(res.rho[0, 0].real - 1.0) < 2e-2
    assert np.trace(res.rho).real == pytest.approx(1.0, abs=1e-10)
    ev = np.linalg.eigvalsh(res.rho)
    assert ev[0] > -1e-10


def test_mle_consistent_on_maximally_mixed():
    rho = DenseOperator(np.eye(2) / 2)
    block = simulate_counts(rho, 1, 1_000_000, seed=2)[0]
    res = local_mle(block)
    err = np.linalg.norm(res.rho - np.eye(2) / 2)
    assert err < 2e-3


def test_mle_likelihood_never_decreases():
    state = _dense_state(8, 2)
    block = simulate_counts(state, 2, 300, seed=4)[0]
    lls = []
    for cap in (1, 2, 5, 10, 40):
        lls.append(local_mle(block, max_iter=cap).log_likelihood)
    assert all(b >= a - 1e-9 for a, b in zip(lls, lls[1:]))


def _w8_bench_state():
    # the 8-site W state with the branch phases of acceptance criterion 7's
    # first trial, which the counts benchmark fits
    rng = np.random.default_rng((20260822, 0))
    return w_state(8, phases=list(rng.uniform(0.0, 2.0 * np.pi, size=7)))[1]


@pytest.mark.parametrize("state, width, shots, seed, k", [
    (w_state(4)[1], 3, 200, 0, 2),
    (random_mpo_via_ancilla(5, seed=15), 3, 200, 0, 1),
    (w_state(5)[1], 5, 100, 0, 1),
    # the window the fixed-point reference leaves at its iteration cap
    (_w8_bench_state(), 5, 100, 3, 2),
], ids=["w4_width3", "ancilla_width3", "w5_width5", "w8_seed3_window2"])
def test_mle_reaches_reference_likelihood(state, width, shots, seed, k):
    block = simulate_counts(state, width, shots, seed=seed)[k - 1]
    res = local_mle(block)
    assert res.converged
    assert res.kkt_residual < MLE_TOL
    assert np.allclose(res.rho, res.rho.conj().T, atol=1e-14)
    assert np.trace(res.rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(res.rho)[0] > -1e-12
    _, _, _, ref_ll = oracles.local_mle_reference(block)
    assert res.log_likelihood >= ref_ll - 1e-9 * abs(ref_ll)


def test_density_projection_is_the_nearest_density_matrix():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    target = coeffs_from_dense((m + m.conj().T) / 4.0)
    proj = _project_density(target)
    rho = dense_from_coeffs(proj)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(rho)[0] > -1e-12
    assert np.allclose(_project_density(proj), proj, atol=1e-12)
    # nearest point of a convex set: <target - proj, q - proj> <= 0 for
    # every density matrix q
    for _ in range(20):
        q = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        q = q @ q.conj().T
        q = coeffs_from_dense(q / np.trace(q).real)
        assert (target - proj) @ (q - proj) <= 1e-12


def test_density_projection_rejects_complex_coefficients(monkeypatch):
    # a simplex projection with complex weights makes the projected matrix
    # non-Hermitian; the guard names it instead of dropping the imaginary
    # parts
    orig = mpotomo.measurement._simplex_projection
    monkeypatch.setattr(mpotomo.measurement, "_simplex_projection",
                        lambda w: orig(w) * (1 + 1j))
    target = coeffs_from_dense(np.diag([0.7, 0.2, 0.1, 0.0]))
    with pytest.raises(ValueError, match="not Hermitian: complex"):
        _project_density(target)


@pytest.mark.parametrize("width", range(1, 8))
def test_xz_projection_matches_transform_projection(width):
    # random Hermitian targets, some far outside the density matrices
    rng = np.random.default_rng(30 + width)
    dim = 1 << width
    for scale in (0.05, 1.0, 20.0):
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        target = coeffs_from_dense(scale * (m + m.conj().T) / dim)
        proj = _project_density(target)
        want = oracles.project_density_transforms(target)
        assert np.max(np.abs(proj - want)) <= 1e-13
        assert np.max(np.abs(_project_density(proj) - proj)) <= 1e-13


def test_xz_projection_keeps_the_likelihood_fit_trajectory(monkeypatch):
    # criterion 7's W(8) counts at R = 5: every projection the fit makes
    # with the X/Z projection, the start's included, is the transform
    # projection's to 1e-13, and the fit with the transform projection takes
    # the same iterations to the same outcome. (Their final iterates can
    # differ more: on count seed 2, window 3, rounding differences grow to
    # 5e-8 over 26 iterations.)
    blocks = [b for seed in range(4)
              for b in simulate_counts(_w8_bench_state(), 5, 100, seed=seed)]
    project = mpotomo.measurement._project_density
    calls = []

    def recorded(theta):
        calls.append((theta, project(theta)))
        return calls[-1][1]

    monkeypatch.setattr(mpotomo.measurement, "_project_density", recorded)
    fits = [local_mle(b) for b in blocks]
    for theta, proj in calls:
        want = oracles.project_density_transforms(theta)
        assert np.max(np.abs(proj - want)) <= 1e-13
    monkeypatch.setattr(mpotomo.measurement, "_project_density",
                        oracles.project_density_transforms)
    for block, fit in zip(blocks, fits):
        ref = local_mle(block)
        assert (fit.n_iter, fit.converged) == (ref.n_iter, ref.converged)


def test_mle_tests_the_residual_from_the_switch_with_the_same_fits(
        monkeypatch):
    # local_mle evaluates the exact KKT residual only from the first step
    # whose gradient mapping is within _KKT_SWITCH * tol; an infinite
    # multiple evaluates it at every iterate. Criterion 7's W(8) windows
    # at R = 5, and at R = 4 and 6 (count seed 0), ancilla windows at R = 3
    # and at R = 5 (count seed 2, window 2, with tol = 1e-7, where it stops
    # unconverged after 203 iterations because no step lowers f), and
    # product and GHZ windows at R = 5 give the same fits. The product
    # windows need the largest multiple: their last step's mapping is
    # 2.8 tol at the default tol and 5.6 tol at 1e-7.
    w8 = [b for seed in range(4)
          for b in simulate_counts(_w8_bench_state(), 5, 100, seed=seed)]
    ancilla = random_mpo_via_ancilla(8, seed=0)
    mixed = (simulate_counts(_w8_bench_state(), 4, 100, seed=0)
             + simulate_counts(_w8_bench_state(), 6, 100, seed=0)
             + simulate_counts(product_state(8)[0], 5, 100, seed=0)
             + simulate_counts(ghz_state(8)[0], 5, 100, seed=0)
             + simulate_counts(ancilla, 3, 100, seed=0)
             + simulate_counts(ancilla, 5, 100, seed=2)[1:2])
    cases = [(b, {}) for b in w8 + mixed[:-1]] + [
        (mixed[-1], {"tol": 1e-7})] + [
        (b, kwargs) for b in w8[:4] + mixed[-3:]
        for kwargs in ({"tol": 0.0, "max_iter": 40}, {"max_iter": 1},
                       {"max_iter": 7})]
    fits = [local_mle(b, **kwargs) for b, kwargs in cases]
    assert [fit.converged for fit in fits[len(w8 + mixed) - 1:]] == [
        False] * (1 + 3 * 7)
    monkeypatch.setattr(mpotomo.measurement, "_KKT_SWITCH", np.inf)
    for (block, kwargs), fit in zip(cases, fits):
        ref = local_mle(block, **kwargs)
        assert ((fit.n_iter, fit.converged, fit.log_likelihood,
                 fit.kkt_residual)
                == (ref.n_iter, ref.converged, ref.log_likelihood,
                    ref.kkt_residual))
        assert np.array_equal(fit.rho, ref.rho)


def test_mle_skips_the_exact_residual_far_from_convergence(monkeypatch):
    # a W(8) window at R = 5 takes 17 iterations. Testing every iterate
    # costs 42 projections: one for the start, one per backtracking trial
    # and one per iterate's residual; from the switch the fit takes 30
    # (33 with a switch at 100 tol)
    block = simulate_counts(_w8_bench_state(), 5, 100, seed=0)[0]
    project = mpotomo.measurement._project_density
    calls = []

    def counted(theta):
        calls.append(theta)
        return project(theta)

    monkeypatch.setattr(mpotomo.measurement, "_project_density", counted)
    res = local_mle(block)
    assert (res.n_iter, res.converged) == (17, True)
    assert len(calls) <= 30


@pytest.mark.parametrize("state, shots, seed, k", [
    (random_mpo_via_ancilla(8, seed=0), 100, 2, 2),
    (random_mpo_via_ancilla(6, seed=0), 1000, 1, 1),
], ids=["ancilla8_seed2_window2", "ancilla6_1000_shots_seed1_window1"])
def test_mle_converges_above_the_rounding_floor(state, shots, seed, k):
    # at tol = 1e-7 both fits stop unconverged because no step lowers f
    # (KKT 1.05e-7, after 203 and 121 iterations); the default tol sits
    # two decades above that floor, and they converge in 179 and 70
    block = simulate_counts(state, 5, shots, seed=seed)[k - 1]
    res = local_mle(block)
    assert res.converged and res.kkt_residual < MLE_TOL


def test_default_tol_keeps_the_benchmark_scores():
    # the counts benchmark's W(8) at R = 5, count seeds 0-3: D and the W
    # fidelity of the estimate from default fits are within 1e-3 relative
    # of those from fits to tol = 1e-7 (measured: within 1e-4)
    state = _w8_bench_state()
    config = ReconstructionConfig(regularizer=RegularizerSpec("fisher"))
    for seed in range(4):
        blocks = simulate_counts(state, 5, 100, seed=seed)
        scores = []
        for tol in (MLE_TOL, 1e-7):
            est = reconstruct_mpo(block_data_from_counts(blocks, 8, tol=tol),
                                  config)
            scores.append((hs_distance(state, est),
                           fidelity_w_optimized(est)[0]))
        (d, f), (d_ref, f_ref) = scores
        assert abs(d - d_ref) <= 1e-3 * abs(d_ref)
        assert abs(f - f_ref) <= 1e-3 * abs(f_ref)


def _exact_counts(rho, shots):
    # counts exactly proportional to rho's outcome probabilities, for a rho
    # whose probabilities are all multiples of 1 / shots
    width = n_sites_of(rho.shape[0])
    p = _probabilities([rho], _setting_unitaries(_labels(width).axes))[0]
    counts = np.rint(p * shots).astype(int)
    assert np.allclose(counts, p * shots, rtol=0.0, atol=1e-9)
    return CountsBlock(1, counts)


@pytest.mark.parametrize("width", range(1, 6))
def test_linear_inversion_start_gives_back_exact_windows(width):
    # with exact frequencies the likelihood fit starts at the window itself:
    # the maximally mixed and the all-|0> product windows
    dim = 1 << width
    zero = np.zeros((dim, dim), complex)
    zero[0, 0] = 1.0
    for rho in (np.eye(dim, dtype=complex) / dim, zero):
        want = coeffs_from_dense(rho)
        estimate = _linear_inversion(_exact_counts(rho, 3 * dim))
        assert np.max(np.abs(estimate - want)) <= 1e-14
        assert np.max(np.abs(_project_density(estimate) - want)) <= 1e-14


def test_linear_inversion_drops_a_setting_without_shots():
    # |0>|+>|+i>: the string ZXY, which setting zxy alone measures, starts
    # at 0 once that setting has no shots; every other string is still
    # pooled from settings with shots and stays exact
    kets = [np.array([1.0, 0.0]), np.array([1.0, 1.0]), np.array([1.0, 1.0j])]
    rho = product_state(3, kets)[0].matrix
    block = _exact_counts(rho, 40)
    block.counts[_labels(3).row["zxy"]] = 0
    estimate = _linear_inversion(block)
    want = coeffs_from_dense(rho)
    zxy = 3 * 16 + 1 * 4 + 2  # Z X Y, packed big-endian (I, X, Y, Z = 0-3)
    assert abs(want[zxy]) > 0.3 and estimate[zxy] == 0.0
    assert np.max(np.abs(np.delete(estimate - want, zxy))) <= 1e-14


def test_mle_iterations_on_mixed_windows():
    # ancilla(8) windows at R = 5, of ranks 12 to 23, count seeds 0-3: the
    # fits take 999 iterations from the projected linear-inversion start;
    # the bound fails fits to tol = 1e-7 (1431) and a start from the
    # maximally mixed state (1952)
    ancilla = random_mpo_via_ancilla(8, seed=0)
    fits = [local_mle(b) for seed in range(4)
            for b in simulate_counts(ancilla, 5, 100, seed=seed)]
    assert sum(fit.n_iter for fit in fits) <= 1200


@pytest.mark.parametrize("k, counts, match", [
    (0, np.ones((9, 4), int), "window start k must be at least 1, not 0"),
    (-1, np.ones((9, 4), int), "window start k must be at least 1, not -1"),
    (1.0, np.ones((9, 4), int), "window start k must be an integer, not "
                                "float"),
    (True, np.ones((9, 4), int), "window start k must be an integer, not "
                                 "bool"),
    (1, np.ones((8, 4), int), r"shape \(3\^R, 2\^R\) with R >= 1, "
                              r"not \(8, 4\)"),
    (1, np.ones((9, 6), int), r"not \(9, 6\)"),
    (1, np.ones((1, 1), int), r"not \(1, 1\)"),
    (1, np.ones(4, int), r"not \(4,\)"),
    (1, np.ones((9, 4, 1), int), r"not \(9, 4, 1\)"),
    (1, np.ones((9, 4)), "counts must be integers, not float64"),
    (1, np.ones((9, 4), bool), "counts must be integers, not bool"),
    (1, -np.ones((9, 4), int), "counts must be nonnegative"),
], ids=["k_0", "k_negative", "k_float", "k_bool", "rows_not_3R",
        "outcomes_not_2R", "width_0", "one_axis", "three_axes",
        "float_counts", "bool_counts", "negative_counts"])
def test_counts_block_rejects_bad_windows(k, counts, match):
    with pytest.raises(ValueError, match=match):
        CountsBlock(k, counts)


def test_counts_block_accepts_integer_arrays():
    block = CountsBlock(np.int64(2), np.zeros((27, 8), np.uint16).tolist())
    assert block.k == 2 and block.width == 3
    assert block.counts.dtype.kind == "i"


@pytest.mark.parametrize("kwargs", [
    {"max_iter": 0}, {"max_iter": -3}, {"tol": -1e-10},
    {"tol": float("nan")}, {"tol": float("inf")},
], ids=["max_iter_0", "max_iter_neg", "tol_neg", "tol_nan", "tol_inf"])
def test_mle_rejects_bad_iteration_settings(kwargs):
    blocks = simulate_counts(product_state(2)[1], 2, 10, seed=1)
    with pytest.raises(ValueError, match="max_iter|tol"):
        local_mle(blocks[0], **kwargs)
    with pytest.raises(ValueError, match="max_iter|tol"):
        block_data_from_counts(blocks, 2, **kwargs)


def test_fisher_information_on_maximally_mixed_single_site():
    # p = 1/2 +- c/sqrt(2) per setting, so F = 2n per axis, diagonal
    n = 600
    counts = CountsBlock(1, np.full((3, 2), n // 2))
    F = fisher_information(counts, np.eye(2) / 2)
    assert np.allclose(F, np.diag([2 * n, 2 * n, 2 * n]), atol=1e-9)


def test_fisher_information_matches_finite_differences():
    state = _dense_state(9, 2)
    block = simulate_counts(state, 2, 200, seed=5)[0]
    res = local_mle(block)
    F = fisher_information(block, res.rho)
    theta = coeffs_from_dense(res.rho)
    ref = oracles.fisher_by_finite_difference(block.counts, 2, theta)
    assert np.max(np.abs(F - ref)) < 1e-3 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("shots_kind", ["uniform", "random", "partly_zero"])
@pytest.mark.parametrize("width", [3, 4, 5])
def test_fisher_matrix_matches_per_setting_loop(fisher_window, width,
                                                shots_kind):
    theta, shots = fisher_window(width, shots_kind)
    F = _fisher_matrix(theta, shots)
    ref = oracles.fisher_matrix_loop(theta, shots)
    # entries that cancel to rounding level have no relative precision,
    # so the tolerance is relative to the largest entry
    assert np.allclose(F, ref, rtol=1e-10, atol=1e-10 * np.abs(ref).max())
    assert np.array_equal(F, F.T)


@pytest.mark.parametrize("per_chunk", [1, 7, 40])
@pytest.mark.parametrize("shots_kind", ["random", "partly_zero"])
@pytest.mark.parametrize("width", [3, 4])
def test_fisher_matrix_over_chunks_of_settings(monkeypatch, fisher_window,
                                               width, shots_kind, per_chunk):
    # the blocks of several chunks of settings add into F in setting order,
    # so F is bitwise that of one chunk, and matches the per-setting loop
    theta, shots = fisher_window(width, shots_kind)
    whole = _fisher_matrix(theta, shots)
    monkeypatch.setattr(mpotomo.measurement, "_FISHER_BYTES",
                        per_chunk * 8 * 4**width)
    F = _fisher_matrix(theta, shots)
    assert np.array_equal(F, whole)
    ref = oracles.fisher_matrix_loop(theta, shots)
    assert np.allclose(F, ref, rtol=1e-10, atol=1e-10 * np.abs(ref).max())


@pytest.mark.parametrize("width", [3, 4, 5])
def test_fisher_matrix_has_no_coupling_between_last_site_axes(
        fisher_window, width):
    # no setting measures two axes on one site, so coefficients whose last
    # sites carry different non-identity Paulis are never coupled; row
    # 4 m + s of F is coefficient 4 m + s
    F = _fisher_matrix(*fisher_window(width, "random"))
    for s in (1, 2, 3):
        assert np.all(F[s::4, s::4].diagonal() > 0.0)
        for t in (1, 2, 3):
            if t != s:
                assert not np.any(F[s::4, t::4])


def test_block_data_from_counts_has_fisher_metadata():
    _, wm = w_state(4)
    blocks = simulate_counts(wm, 2, 400, seed=6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # every window converges
        data = block_data_from_counts(blocks, 4)
    assert data.noise_kind == "fisher"
    assert np.array_equal(data.shots, np.full((3, 9), 400))
    # each window is stored as it was fitted, and the information the
    # penalty forms from it and its shots is that of its counts at the
    # fitted state, whose dense form rounds the coefficients
    for b, block in enumerate(blocks):
        fit = local_mle(block)
        assert np.array_equal(data.blocks[b], fit.theta)
        F = fisher_information(block, fit.rho)
        assert np.allclose(
            _fisher_matrix(data.blocks[b], data.shots[b])[1:, 1:], F,
            rtol=0.0, atol=1e-12 * np.abs(F).max())
    # identity entries are fixed by unit trace
    assert np.allclose(data.blocks[:, 0], 0.5, atol=1e-12)


def test_block_data_from_counts_warns_when_a_fit_stops_early():
    _, wm = w_state(4)
    blocks = simulate_counts(wm, 2, 400, seed=6)
    assert local_mle(blocks[0], max_iter=1).converged is False
    with pytest.warns(UserWarning, match="likelihood fit stopped after 1 "
                      "iterations") as record:
        block_data_from_counts(blocks, 4, max_iter=1)
    assert [str(w.message)[:8] for w in record] == [
        "window 1", "window 2", "window 3"]


def test_block_data_from_counts_requires_full_coverage():
    _, wm = w_state(4)
    blocks = simulate_counts(wm, 2, 50, seed=7)
    with pytest.raises(ValueError):
        block_data_from_counts(blocks[:-1], 4)
    with pytest.raises(ValueError, match="every window exactly once"):
        block_data_from_counts(blocks + blocks[:1], 4)
    # the number of windows is compared first, so no list of N - R + 1
    # window starts is built
    with pytest.raises(ValueError, match="^blocks must cover every window "
                                         "exactly once$"):
        block_data_from_counts(blocks[:1], 2**62)


def test_block_data_from_counts_rejects_mixed_widths(monkeypatch):
    # windows k = 1, 2, 3 of W(4), the middle one of width 3: as many as
    # width-2 windows need, so only the width check can reject them
    _, wm = w_state(4)
    two = simulate_counts(wm, 2, 50, seed=7)
    three = simulate_counts(wm, 3, 50, seed=7)
    monkeypatch.setattr(mpotomo.measurement, "local_mle",
                        lambda *a, **k: pytest.fail("a window was fitted"))
    with pytest.raises(ValueError, match="^blocks must share one width, "
                                         "not R = 2 and R = 3$"):
        block_data_from_counts([two[0], three[1], two[2]], 4)


@pytest.mark.parametrize("widths, match", [
    ([], "^no blocks given$"),
    ([2, 3, 2], "^blocks must share one width, not R = 2 and R = 3$"),
], ids=["empty", "mixed_widths"])
def test_save_counts_names_missing_and_mixed_widths(tmp_path, widths, match):
    # windows k = 1, 2, 3 of W(4) with the given widths, as
    # block_data_from_counts rejects them
    _, wm = w_state(4)
    blocks = [simulate_counts(wm, w, 50, seed=7)[k]
              for k, w in enumerate(widths)]
    path = tmp_path / "c.json"
    with pytest.raises(ValueError, match=match):
        save_counts(blocks, 4, path)
    assert not path.exists()


@pytest.mark.parametrize("n_sites, ks, match", [
    (3, (1, 2), "block k = 2 outside 1..1"),
    (2, (1, 2), "R = 3 is outside 1..N = 2"),
    (4, (2, 2), "block k = 2 is listed twice"),
], ids=["k_past_end", "R_past_N", "window_twice"])
def test_save_counts_refuses_what_load_counts_refuses(tmp_path, n_sites, ks,
                                                      match):
    # windows k = 1, 2 of W(4) at R = 3: the writer names the fault in the
    # reader's words, and writes nothing
    blocks = simulate_counts(w_state(4)[1], 3, 10, seed=1)
    chosen = [blocks[k - 1] for k in ks]
    path = tmp_path / "c.json"
    with pytest.raises(ValueError, match=f"^{re.escape(match)}$"):
        save_counts(chosen, n_sites, path)
    assert not path.exists()
    path.write_text(json.dumps(oracles.counts_payload_loop(chosen, n_sites)))
    with pytest.raises(ValueError, match=f"{re.escape(match)}$"):
        load_counts(path)
    # any subset of the windows stays legal on both sides
    save_counts(blocks[1:], 4, path)
    assert [b.k for b in load_counts(path)[0]] == [2]


def test_simulate_counts_rejects_widths_above_the_dense_cap(monkeypatch):
    # load_counts refuses R = 13, so the writer refuses it too, before any
    # window is formed
    _, mpo = product_state(13)
    monkeypatch.setattr(mpotomo.measurement, "_windows",
                        lambda *a: pytest.fail("a window was formed"))
    with pytest.raises(ValueError, match="^R = 13 is above 12; each window "
                                         "is fitted as a dense 2\\^R "
                                         "matrix$"):
        simulate_counts(mpo, 13, 10, seed=1)


@pytest.mark.parametrize("shots", [10.5, True, "100", 0, -1])
def test_simulate_counts_rejects_shots_that_are_not_positive_integers(shots):
    with pytest.raises(ValueError, match="shots"):
        simulate_counts(w_state(3)[1], 2, shots, seed=1)


def test_design_blocks_are_built_once_and_read_only():
    labels, design = _labels(3), _design(3)
    again = _labels(3), _design(3)
    assert again[0] is labels and again[1] is design
    assert all(a is b for a, b in zip(_design(3), design))
    assert labels.settings == tuple(all_settings(3))
    assert [labels.row[s] for s in all_settings(3)] == list(range(27))
    assert ["".join("xyz"[a] for a in row) for row in labels.axes] \
        == all_settings(3)
    with pytest.raises(TypeError):
        labels.row["xxx"] = 1
    for arr in (labels.axes, *design):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 0


def test_counts_files_leave_the_design_table_unbuilt(tmp_path):
    # reading or writing counts builds only the label table: the design
    # table's cols alone would hold 6^R entries
    blocks = simulate_counts(w_state(4)[1], 2, 20, seed=3)
    path = tmp_path / "c.json"
    _design.cache_clear()
    save_counts(blocks, 4, path)
    load_counts(path)
    assert _design.cache_info().currsize == 0


@pytest.mark.parametrize("width", [1, 2, 3])
def test_xz_tables_match_pauli_strings(width):
    # string (x, z) is phase[x, z] X^x Z^z: entry (x ^ c, c) is
    # (-1)^popcount(c & z) and shift gathers it from the flat matrix
    _, _, strings, shift, phase = _design(width)
    dim = 1 << width
    assert sorted(strings.ravel().tolist()) == list(range(4**width))
    for x in range(dim):
        for z in range(dim):
            p = oracles.string_dense(oracles.unpack_index(strings[x, z],
                                                          width), False)
            diag = p.ravel()[shift[x]]
            signs = [(-1) ** bin(c & z).count("1") for c in range(dim)]
            assert np.array_equal(diag, phase[x, z] * np.array(signs))
            assert np.count_nonzero(p) == dim


@pytest.mark.parametrize("width, kind", [(True, "bool"), (2.0, "float"),
                                         ("2", "str")])
@pytest.mark.parametrize("extract", [
    exact_block_data, lambda st, width: simulate_counts(st, width, 10, seed=1),
], ids=["exact_block_data", "simulate_counts"])
def test_window_widths_that_are_not_integers_are_refused_by_name(
        extract, width, kind):
    # a range check alone takes True as width 1
    with pytest.raises(ValueError, match=f"^width must be an integer, not "
                                         f"{kind}$"):
        extract(w_state(4)[1], width)


@pytest.mark.parametrize("width", [0, 5])
def test_simulate_counts_rejects_widths_outside_the_chain(width):
    _, wm = w_state(4)
    with pytest.raises(ValueError, match="need 1 <= width <= n_sites"):
        simulate_counts(wm, width, 10, seed=1)


@pytest.mark.parametrize("indent", [None, 1])
def test_write_json_bytes_match_json_dump(tmp_path, indent):
    payload = {"a": [[-0.0, 1e-300, 0.1 + 0.2], [2**60, -1.5e-7, 0]],
               "b": {"c": [[[1.0, -0.0]], []], "d": None, "e": "x"}}
    got, want = tmp_path / "got.json", tmp_path / "want.json"
    write_json(got, payload, indent=indent)
    with open(want, "w") as fh:
        json.dump(payload, fh, indent=indent)
        fh.write("\n")
    assert got.read_bytes() == want.read_bytes()


def test_counts_serialization_roundtrip(tmp_path):
    state, _ = product_state(3)
    blocks = simulate_counts(state, 2, 64, seed=9)
    path = tmp_path / "c.json"
    save_counts(blocks, 3, path)
    back, n_sites = load_counts(path)
    assert n_sites == 3
    assert [b.k for b in back] == [b.k for b in blocks]
    for x, y in zip(back, blocks):
        assert x.counts.dtype == np.int64
        assert np.array_equal(x.counts, y.counts)
    # sparse storage: zero histogram entries are dropped from the file
    payload = json.loads(path.read_text())
    ss = payload["blocks"][0]["settings"]
    zz = next(e for e in ss if e["s"] == "zz")
    assert zz["counts"] == {"++": 64}


def test_block_data_serialization_roundtrip(tmp_path):
    state = _dense_state(10, 4)
    data = add_gaussian_noise(exact_block_data(state, 2), 1e-3, seed=10)
    path = tmp_path / "d.json"
    save_block_data(data, path)
    back = load_block_data(path)
    assert back.n_sites == data.n_sites and back.width == data.width
    assert np.array_equal(back.blocks, data.blocks)
    assert back.noise_kind == "scalar" and back.sigma == 1e-3


def test_block_data_serialization_keeps_fisher(tmp_path):
    # a reloaded fit reconstructs bitwise as the fit in memory, and the
    # file holds shots, not (4^R - 1)-square matrices: 27 MB at this size
    _, wm = w_state(8, phases=[0.4, 1.0, 2.2, 0.1, 1.7, 0.9, 2.8])
    blocks = simulate_counts(wm, 5, 100, seed=11)
    data = block_data_from_counts(blocks, 8)
    path = tmp_path / "f.json"
    save_block_data(data, path)
    assert path.stat().st_size + _companion(path).stat().st_size < 0.5e6
    back = load_block_data(path)
    assert back.noise_kind == "fisher"
    assert np.array_equal(back.shots, data.shots)
    cfg = ReconstructionConfig(regularizer=RegularizerSpec("fisher"))
    for a, b in zip(reconstruct_mpo(back, cfg).tensors,
                    reconstruct_mpo(data, cfg).tensors):
        assert np.array_equal(a, b)


def _rewrite_records(path, form):
    """The JSON of a saved file with every companion record replaced by
    form(array), the array decoded here from the companion's bytes rather
    than by the package."""
    flat = np.fromfile(f"{path}.f64", dtype="<f8")

    def rewrite(value):
        if isinstance(value, dict) and set(value) == {"shape", "offset"}:
            start, shape = value["offset"], value["shape"]
            return form(flat[start:start + math.prod(shape)].reshape(shape))
        if isinstance(value, dict):
            return {key: rewrite(v) for key, v in value.items()}
        if isinstance(value, list):
            return [rewrite(v) for v in value]
        return value
    return rewrite(json.loads(path.read_text()))


def _nested_payload(path):
    """The JSON of a saved file with every float array written as nested
    lists of numbers: the form files had before the float64 record, in
    which a test can edit single entries."""
    return _rewrite_records(path, lambda a: a.tolist())


# ---- validation where window data enters ----


def test_load_block_data_rejects_non_finite_blocks(tmp_path):
    data = exact_block_data(random_mpo_via_ancilla(4, seed=31), 3)
    path = tmp_path / "d.json"
    save_block_data(data, path)
    payload = _nested_payload(path)
    payload["blocks"][1][5] = float("nan")
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="blocks must be finite"):
        load_block_data(path)


def _set_block_entry(payload, value):
    payload["blocks"][1][5] = value


@pytest.mark.parametrize("mutate, match", [
    (lambda p: _set_block_entry(p, "0.25"),
     "d.json: blocks: entries must be JSON numbers, not str"),
    (lambda p: _set_block_entry(p, True),
     "d.json: blocks: entries must be JSON numbers, not bool"),
    (lambda p: _set_block_entry(p, None),
     "d.json: blocks: entries must be JSON numbers, not NoneType"),
    (lambda p: p["blocks"][1].pop(), "d.json: blocks: rows differ in length"),
], ids=["string", "bool", "null", "ragged"])
def test_load_block_data_rejects_blocks_that_are_not_numbers(tmp_path, mutate,
                                                             match):
    path = tmp_path / "d.json"
    save_block_data(exact_block_data(random_mpo_via_ancilla(4, seed=31), 3),
                    path)
    payload = _nested_payload(path)
    mutate(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=match):
        load_block_data(path)


@pytest.mark.parametrize("key, value, match", [
    ("N", 5, r"blocks must have shape \(4, 16\)"),
    ("N", 3, r"blocks must have shape \(2, 16\)"),
    ("R", 1, r"blocks must have shape \(4, 4\)"),
    ("R", 3, r"blocks must have shape \(2, 64\)"),
    ("R", 5, "need 1 <= width <= n_sites"),
    ("R", 0, "need 1 <= width <= n_sites"),
], ids=["N_above", "N_below", "R_below", "R_above", "R_above_N", "R_zero"])
def test_load_block_data_rejects_sizes_that_disagree_with_blocks(
        tmp_path, key, value, match):
    # the 3 windows of width 2 on 4 sites, read with another N or R
    path = tmp_path / "d.json"
    _save_block_file(path)
    _set_field(path, key, value)
    with pytest.raises(ValueError, match=match):
        load_block_data(path)


def _with_shots(data, shots):
    return PauliBlockData(data.blocks, shots=shots)


def test_block_data_rejects_fisher_shots_for_too_few_windows():
    data = exact_block_data(random_mpo_via_ancilla(5, seed=32), 3)
    with pytest.raises(ValueError, match="fisher shots must have shape "
                                         "\\(3, 27\\)"):
        _with_shots(data, np.ones((data.n_blocks - 1, 27), dtype=int))


def test_block_data_rejects_fisher_shots_of_wrong_shape():
    data = exact_block_data(random_mpo_via_ancilla(5, seed=33), 3)
    with pytest.raises(ValueError, match="fisher shots must have shape "
                                         "\\(3, 27\\)"):
        _with_shots(data, np.ones((data.n_blocks, 64), dtype=int))


@pytest.mark.parametrize("shots", [
    np.full((3, 27), -1), np.full((3, 27), 1.5), np.full((3, 27), True),
], ids=["negative", "fractional", "bool"])
def test_block_data_rejects_fisher_shots_that_are_not_counts(shots):
    data = exact_block_data(random_mpo_via_ancilla(5, seed=34), 3)
    with pytest.raises(ValueError, match="fisher noise requires shots that "
                                         "are nonnegative integers"):
        _with_shots(data, shots)


# ---- validation where files enter ----


def _save_operator_file(path):
    save_operator(random_mpo(3, bond=2, seed=35), path)


def _save_block_file(path):
    save_block_data(exact_block_data(random_mpo(4, bond=2, seed=36), 2), path)


def _save_counts_file(path):
    save_counts(simulate_counts(product_state(4)[1], 3, 16, seed=37), 4, path)


_LOADERS = pytest.mark.parametrize("save, load", [
    (_save_operator_file, load_operator),
    (_save_block_file, load_block_data),
    (_save_counts_file, load_counts),
], ids=["operator", "block_data", "counts"])


def _set_field(path, key, value):
    """Rewrite one top-level field of a saved file; None deletes it."""
    payload = json.loads(path.read_text())
    if value is None:
        del payload[key]
    else:
        payload[key] = value
    path.write_text(json.dumps(payload))


@pytest.mark.parametrize("version", [None, 0, 2, 99])
@_LOADERS
def test_loaders_reject_other_versions(tmp_path, save, load, version):
    path = tmp_path / "f.json"
    save(path)
    _set_field(path, "version", version)
    with pytest.raises(ValueError, match="unsupported file version"):
        load(path)


@pytest.mark.parametrize("d", [None, 3])
@_LOADERS
def test_loaders_reject_other_local_dimensions(tmp_path, save, load, d):
    path = tmp_path / "f.json"
    save(path)
    _set_field(path, "d", d)
    with pytest.raises(ValueError, match=f"unsupported local dimension "
                                         f"d = {d}; every site is a qubit"):
        load(path)


@pytest.mark.parametrize("save, load, key", [
    (_save_operator_file, load_operator, "kind"),
    (_save_operator_file, load_operator, "n_sites"),
    (_save_operator_file, load_operator, "bond_dims"),
    (_save_operator_file, load_operator, "tensors"),
    (lambda path: save_operator(w_state(3)[0], path), load_operator,
     "matrix"),
    (_save_block_file, load_block_data, "N"),
    (_save_block_file, load_block_data, "R"),
    (_save_block_file, load_block_data, "blocks"),
    (_save_counts_file, load_counts, "N"),
    (_save_counts_file, load_counts, "R"),
    (_save_counts_file, load_counts, "blocks"),
], ids=lambda x: x if isinstance(x, str) else None)
def test_loaders_name_a_missing_field(tmp_path, save, load, key):
    path = tmp_path / "f.json"
    save(path)
    _set_field(path, key, None)
    with pytest.raises(ValueError, match=f"f.json: missing field '{key}'"):
        load(path)


@pytest.mark.parametrize("top", [[], [1, 2], "text", 3, None])
@_LOADERS
def test_loaders_reject_a_top_level_that_is_not_an_object(tmp_path, save,
                                                          load, top):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(top))
    with pytest.raises(ValueError, match="f.json: top level must be a "
                                         "JSON object"):
        load(path)


def _poison_tensor(payload):
    payload["tensors"][1][2][0][1] = float("nan")


def _poison_matrix(payload):
    payload["matrix"][3][1][0] = float("inf")


def _set_tensor_entry(payload, value):
    payload["tensors"][1][2][0][1] = value


@pytest.mark.parametrize("kind, mutate, match", [
    ("mpo", _poison_tensor, "operator entries must be finite"),
    ("dense", _poison_matrix, "operator entries must be finite"),
    ("mpo", lambda p: p.update(n_sites=9), "n_sites 9 disagrees"),
    ("dense", lambda p: p.update(n_sites=3), "n_sites 3 disagrees"),
    ("mpo", lambda p: p.update(bond_dims=[1, 2, 2, 2, 1]),
     "bond_dims \\[1, 2, 2, 2, 1\\] disagree"),
    ("mpo", lambda p: p.update(n_sites=0, bond_dims=[1], tensors=[]),
     "at least one tensor"),
    ("dense", lambda p: p.update(n_sites=0, matrix=[[[1.0, 0.0]]]),
     "a dense operator needs at least one site"),
    ("mpo", lambda p: _set_tensor_entry(p, "0.25"),
     "op.json: tensors\\[1\\]: entries must be JSON numbers, not str"),
    ("mpo", lambda p: _set_tensor_entry(p, True),
     "op.json: tensors\\[1\\]: entries must be JSON numbers, not bool"),
    ("mpo", lambda p: _set_tensor_entry(p, None),
     "op.json: tensors\\[1\\]: entries must be JSON numbers, not NoneType"),
    ("mpo", lambda p: p["tensors"][1][2].pop(),
     "op.json: tensors\\[1\\]: rows differ in length"),
    ("mpo", lambda p: p.update(tensors={"0": 1.0}),
     "op.json: tensors must be a JSON array, not dict"),
    ("dense", lambda p: p["matrix"][3][1].__setitem__(0, "0.25"),
     "op.json: matrix: entries must be JSON numbers, not str"),
    ("dense", lambda p: p.__setitem__(
        "matrix", [[z[0] for z in row] for row in p["matrix"]]),
     "op.json: matrix: entries must be \\[re, im\\] pairs"),
    ("dense", lambda p: p.__setitem__(
        "matrix", [[z + [0.0] for z in row] for row in p["matrix"]]),
     "op.json: matrix: entries must be \\[re, im\\] pairs"),
    ("dense", lambda p: p.update(matrix=[[[1.0, 0.0]] * 4] * 2),
     "matrix must be square and 2-D, not shape \\(2, 4\\)"),
    ("mpo", lambda p: p.update(kind="what"), "unknown operator kind 'what'"),
], ids=["mpo_nan", "dense_inf", "mpo_n_sites", "dense_n_sites",
        "mpo_bond_dims", "mpo_empty", "dense_empty", "mpo_string",
        "mpo_bool", "mpo_null", "mpo_ragged", "mpo_tensors_object",
        "dense_string", "dense_one_number_per_entry",
        "dense_three_numbers_per_entry", "dense_not_square", "unknown_kind"])
def test_load_operator_rejects_malformed_entries(tmp_path, kind, mutate,
                                                 match):
    dense, mpo = w_state(4)
    path = tmp_path / "op.json"
    save_operator(mpo if kind == "mpo" else dense, path)
    payload = _nested_payload(path)
    mutate(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=match):
        load_operator(path)


# ---- float arrays in the float64 companion ----


def _companion(path):
    return path.with_name(path.name + ".f64")


def _assert_companion(records, arrays, path):
    # one record per array, each starting where the one before it ends,
    # and the companion their little-endian bytes in C order, in that order
    starts = np.cumsum([0] + [a.size for a in arrays]).tolist()
    assert records == [{"shape": list(a.shape), "offset": k}
                       for a, k in zip(arrays, starts)]
    assert _companion(path).read_bytes() == b"".join(
        np.asarray(a, "<f8").tobytes() for a in arrays)


# entries at the edges of float64: the smallest subnormal, the largest
# finite number, a sum that has no short decimal form and a negative zero
_EDGES = [5e-324, 1.7976931348623157e308, 0.1 + 0.2, -0.0]


def _assert_bitwise(a, b):
    assert a.dtype == b.dtype == float and a.shape == b.shape
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))
    assert a.tobytes() == b.tobytes()


def test_mpo_round_trips_bitwise(tmp_path):
    mpo = random_mpo(4, bond=3, seed=40)
    mpo.tensors[1][:, 0, 0] = _EDGES
    mpo.tensors[2][0, 1] = -0.0
    path = tmp_path / "op.json"
    save_operator(mpo, path)
    _assert_companion(json.loads(path.read_text())["tensors"], mpo.tensors,
                      path)
    back = load_operator(path)
    assert back.bond_dims == mpo.bond_dims
    for a, b in zip(back.tensors, mpo.tensors):
        _assert_bitwise(a, b)


def test_dense_operator_round_trips_bitwise(tmp_path):
    m = w_state(3)[0].matrix.copy()
    m[0, 0] = 1.7976931348623157e308
    m[1, 1] = complex(-0.0, -0.0)
    m[2, 3] = complex(5e-324, 0.1 + 0.2)
    m[3, 2] = m[2, 3].conjugate()
    m[4, 5], m[5, 4] = -0.0, -0.0
    op = DenseOperator(m)
    path = tmp_path / "op.json"
    save_operator(op, path)
    _assert_companion([json.loads(path.read_text())["matrix"]],
                      [np.stack([m.real, m.imag], -1)], path)
    back = load_operator(path)
    assert np.array_equal(back.matrix, m)
    _assert_bitwise(back.matrix.real, m.real)
    _assert_bitwise(back.matrix.imag, m.imag)


def test_dense_operator_is_saved_from_its_own_storage(tmp_path):
    # each complex entry is already its [re, im] pair: the record is a
    # view of the matrix, so saving the 16 MiB W(10) matrix holds no copy
    op = w_state(10)[0]
    path = tmp_path / "op.json"
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        start = tracemalloc.get_traced_memory()[0]
        save_operator(op, path)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < op.matrix.nbytes // 4, peak
    assert _companion(path).read_bytes() == op.matrix.tobytes()
    # a matrix that is not C-contiguous is written in C order all the same
    m = w_state(3)[0].matrix * (1 + 0.5j)
    m = m + m.conj().T
    op = DenseOperator(np.asfortranarray(m))
    save_operator(op, path)
    _assert_companion([json.loads(path.read_text())["matrix"]],
                      [np.stack([m.real, m.imag], -1)], path)
    assert np.array_equal(load_operator(path).matrix, m)


def test_load_operator_names_a_dense_matrix_without_rows(tmp_path):
    # a (0, 0, 2) record once took the logarithm of 0: a RuntimeWarning,
    # then an OverflowError
    path = tmp_path / "op.json"
    save_operator(w_state(2)[0], path)
    payload = json.loads(path.read_text())
    payload["matrix"] = {"shape": [0, 0, 2], "offset": 0}
    path.write_text(json.dumps(payload))
    _companion(path).write_bytes(b"")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="dimension 0 is not a power "
                                             "of 2"):
            load_operator(path)


@pytest.mark.parametrize("noise", ["none", "scalar", "fisher"])
def test_block_data_round_trips_bitwise(tmp_path, noise):
    data = exact_block_data(random_mpo_via_ancilla(5, seed=41), 2)
    if noise == "scalar":
        data = add_gaussian_noise(data, 1e-3, seed=41)
    elif noise == "fisher":
        shots = np.arange(data.n_blocks * 9).reshape(data.n_blocks, 9)
        data = _with_shots(data, shots)
    data.blocks[1, :4] = _EDGES
    data.blocks[3, -1] = -0.0
    path = tmp_path / "d.json"
    save_block_data(data, path)
    _assert_companion([json.loads(path.read_text())["blocks"]],
                      [data.blocks], path)
    back = load_block_data(path)
    _assert_bitwise(back.blocks, data.blocks)
    if noise == "fisher":
        assert np.array_equal(back.shots, data.shots)


def _fitted_block_data():
    data = exact_block_data(random_mpo_via_ancilla(4, seed=44), 2)
    return _with_shots(data, np.arange(27).reshape(3, 9))


def _float_arrays(obj):
    if hasattr(obj, "tensors"):
        return obj.tensors
    if hasattr(obj, "matrix"):
        return [obj.matrix]
    return [obj.blocks]


_NESTED_CASES = {
    "mpo": (lambda: random_mpo(4, bond=3, seed=42), save_operator,
            load_operator, oracles.operator_payload_nested),
    "dense": (lambda: _dense_state(43, 3), save_operator, load_operator,
              oracles.operator_payload_nested),
    "block_data": (lambda: add_gaussian_noise(
        exact_block_data(random_mpo(4, bond=2, seed=36), 2), 1e-3, seed=36),
        save_block_data, load_block_data, oracles.block_data_payload_nested),
    "fitted_block_data": (_fitted_block_data, save_block_data,
                          load_block_data,
                          oracles.block_data_payload_nested),
}


@pytest.mark.parametrize("case", sorted(_NESTED_CASES))
def test_nested_number_files_load_as_record_files(tmp_path, case):
    # a file in the nested-number form, as written before the record,
    # loads to the same arrays as the record file; that form is also what
    # _nested_payload makes of the record file
    make, save, load, nested_payload = _NESTED_CASES[case]
    obj = make()
    rec, nested = tmp_path / "rec.json", tmp_path / "nested.json"
    save(obj, rec)
    nested.write_text(json.dumps(nested_payload(obj)) + "\n")
    assert _nested_payload(rec) == nested_payload(obj)
    a, b = load(rec), load(nested)
    for x, y, z in zip(_float_arrays(a), _float_arrays(b),
                       _float_arrays(obj), strict=True):
        assert x.tobytes() == y.tobytes() == z.tobytes()
    assert (rec.stat().st_size + _companion(rec).stat().st_size
            < nested.stat().st_size)


# W(2) and its width-1 windows with noise as written by the package before
# the companion: float arrays as base64 records inside the JSON
_BASE64_FILES = {
    "mpo": '{"version": 1, "kind": "mpo", "n_sites": 2, "d": 2, '
    '"bond_dims": [1, 4, 1], "tensors": [{"shape": [4, 1, 4], "float64": '
    '"zDt/Zp6g5j/LO39mnqDWPwAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAyzt/'
    'Zp6g5j8AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAMs7f2aeoOY/zDt/Zp6g5j'
    '/LO39mnqDWvwAAAAAAAAAAAAAAAAAAAAA="}, {"shape": [4, 4, 1], "float64": '
    '"yzt/Zp6g1j/MO39mnqDmPwAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAyzt/'
    'Zp6g5j8AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAMs7f2aeoOY/yzt/Zp6g1r'
    '/MO39mnqDmPwAAAAAAAAAAAAAAAAAAAAA="}]}\n',
    "dense": '{"version": 1, "kind": "dense", "n_sites": 2, "d": 2, '
    '"matrix": {"shape": [4, 4, 2], "float64": "'
    'AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA'
    'AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAD+///////fPwAAAAAAAAAA/v//////'
    '3z8AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA/v//////3z8A'
    'AAAAAAAAAP7//////98/AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA'
    'AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA'
    'AA=='
    '"}}\n',
    "block_data": '{"version": 1, "N": 2, "R": 1, "d": 2, "blocks": '
    '{"shape": [2, 4], "float64": "fsU6Nfmb5j/1h0d3n69Ov05Pr73EBCe/ppXxZdx7'
    'Mz93nzsOM6fmP/fq8I7pVRQ/bNFTMDacOb9iS3AqCS9Cvw=="}, "noise": '
    '{"kind": "scalar", "sigma": 0.001}}\n',
}


@pytest.mark.parametrize("case", sorted(_BASE64_FILES))
def test_files_written_before_the_companion_are_refused_by_name(tmp_path,
                                                                case):
    # the loaders read no base64 record: such a file is refused at its
    # first record, by the field that holds the text
    load, where = {"mpo": (load_operator, "tensors\\[0\\]"),
                   "dense": (load_operator, "matrix"),
                   "block_data": (load_block_data, "blocks")}[case]
    path = tmp_path / "old.json"
    path.write_text(_BASE64_FILES[case])
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "
                       f"{where}: unknown field 'float64'$"):
        load(path)


# Where each tool-written file holds a record, and how a message names it.
_RECORD_SITES = pytest.mark.parametrize("save, load, keys, where", [
    (_save_operator_file, load_operator, ("tensors", 1),
     "f.json: tensors\\[1\\]"),
    (lambda p: save_operator(w_state(3)[0], p), load_operator, ("matrix",),
     "f.json: matrix"),
    (_save_block_file, load_block_data, ("blocks",), "f.json: blocks"),
], ids=["mpo", "dense", "block_data"])


def _edit_record(path, keys, edit):
    """Replace the record at payload[keys[0]][keys[1]]... of a saved file
    by edit(record)."""
    payload = json.loads(path.read_text())
    outer = payload
    for key in keys[:-1]:
        outer = outer[key]
    outer[keys[-1]] = edit(outer[keys[-1]])
    path.write_text(json.dumps(payload))


def _without(field):
    return lambda r: {k: v for k, v in r.items() if k != field}


def _shape_entry(value):
    return lambda r: {**r, "shape": [value] + r["shape"][1:]}


def _old_form(value):
    """A record as files written before the companion held it: a shape and
    a float64 field, no offset."""
    return lambda r: {"shape": r["shape"], "float64": value}


# the field a record of a file written before the companion is refused by,
# whatever its float64 field holds
_OLD_FIELD = ": unknown field 'float64'"


@pytest.mark.parametrize("edit, message", [
    (lambda r: "0.25",
     " must be a float record or a JSON array, not str"),
    (lambda r: 1.5,
     " must be a float record or a JSON array, not float"),
    (lambda r: None,
     " must be a float record or a JSON array, not NoneType"),
    (_without("shape"), ": missing field 'shape'"),
    # a record with a shape alone and no offset
    (_without("offset"), ": missing field 'offset'"),
    (lambda r: {**r, "dtype": "<f8"}, ": unknown field 'dtype'"),
    (lambda r: {**r, "shape": 12},
     " shape must be a JSON array, not int"),
    (_shape_entry(4.0),
     " shape\\[0\\] must be a JSON integer, not float"),
    (_shape_entry(True),
     " shape\\[0\\] must be a JSON integer, not bool"),
    (_shape_entry("4"),
     " shape\\[0\\] must be a JSON integer, not str"),
    (_shape_entry(-1), " shape\\[0\\] must be nonnegative, not -1"),
    (_old_form([0.0]), _OLD_FIELD),
    (_old_form(None), _OLD_FIELD),
    # as many entries on 70 axes; numpy's own message follows "shape: "
    # and varies between versions
    (lambda r: {**r, "shape": [math.prod(r["shape"])] + [1] * 69},
     " shape: "),
    (lambda r: {"shape": [0, 10**30], "float64": ""}, _OLD_FIELD),
], ids=["not_object_string", "not_object_number", "not_object_null",
        "no_shape", "no_float64", "extra_field", "shape_not_array",
        "shape_float", "shape_bool", "shape_string", "shape_negative",
        "float64_array", "float64_null", "too_many_axes", "shape_too_large"])
@_RECORD_SITES
def test_loaders_reject_malformed_float_records(tmp_path, save, load, keys,
                                                where, edit, message):
    path = tmp_path / "f.json"
    save(path)
    _edit_record(path, keys, edit)
    with pytest.raises(ValueError, match=where + message):
        load(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@_RECORD_SITES
def test_non_finite_entries_in_the_companion_are_rejected(tmp_path, save,
                                                          load, keys, where,
                                                          value):
    path = tmp_path / "f.json"
    save(path)
    record = json.loads(path.read_text())
    for key in keys:
        record = record[key]
    flat = np.fromfile(_companion(path), "<f8")
    flat[record["offset"] + math.prod(record["shape"]) // 2] = value
    flat.tofile(_companion(path))
    with pytest.raises(ValueError, match="blocks must be finite"
                       if keys == ("blocks",)
                       else "operator entries must be finite"):
        load(path)


def _resize_companion(change):
    def resize(path):
        raw = _companion(path).read_bytes()
        _companion(path).write_bytes(raw[:change] if change < 0
                                     else raw + bytes(change))
    return resize


@pytest.mark.parametrize("damage, message", [
    (lambda path: _companion(path).unlink(),
     "f.json: companion .*f\\.json\\.f64 is missing"),
    (_resize_companion(-8), "f.json: companion holds \\d+ bytes; its "
     "records list \\d+ entries, \\d+ bytes"),
    (_resize_companion(3), "f.json: companion holds \\d+ bytes; its "
     "records list \\d+ entries, \\d+ bytes"),
    (_resize_companion(8), "f.json: companion holds \\d+ bytes; its "
     "records list \\d+ entries, \\d+ bytes"),
], ids=["missing", "short", "odd_length", "long"])
@_RECORD_SITES
def test_loaders_reject_a_companion_that_does_not_match(tmp_path, save, load,
                                                        keys, where, damage,
                                                        message):
    path = tmp_path / "f.json"
    save(path)
    damage(path)
    with pytest.raises(ValueError, match=message):
        load(path)


@pytest.mark.parametrize("edit, message", [
    (lambda r: {**r, "offset": 10**6}, " offset 1000000: the records do "
     "not tile the companion in order, which puts it at \\d+"),
    (lambda r: {**r, "float64": ""}, _OLD_FIELD),
    (lambda r: {**r, "offset": 0.0},
     " offset must be a JSON integer, not float"),
    (lambda r: {**r, "offset": True},
     " offset must be a JSON integer, not bool"),
    (lambda r: {**r, "offset": -1}, " offset must be nonnegative, not -1"),
    (_without("shape"), ": missing field 'shape'"),
    (lambda r: {**r, "dtype": "<f8"}, ": unknown field 'dtype'"),
    (_shape_entry(-1), " shape\\[0\\] must be nonnegative, not -1"),
    (lambda r: {**r, "shape": r["shape"] + [2]}, "f.json: companion holds "
     "\\d+ bytes; its records list \\d+ entries"),
], ids=["past_the_end", "both_forms", "offset_float", "offset_bool",
        "offset_negative", "no_shape", "extra_field", "shape_negative",
        "shape_too_large"])
@_RECORD_SITES
def test_loaders_reject_malformed_companion_records(tmp_path, save, load,
                                                    keys, where, edit,
                                                    message):
    path = tmp_path / "f.json"
    save(path)
    _edit_record(path, keys, edit)
    # a record that lists more entries is named by the companion's size
    with pytest.raises(ValueError, match=(
            message if message.startswith("f.json") else where + message)):
        load(path)


@pytest.mark.parametrize("index, shift", [(1, -1), (0, 1), (2, -2)])
def test_loaders_reject_records_that_do_not_tile_the_companion(tmp_path,
                                                               index, shift):
    # an MPO's tensors follow one another in the companion; a record that
    # overlaps the one before it, or leaves a gap, is named
    path = tmp_path / "f.json"
    _save_operator_file(path)
    _edit_record(path, ("tensors", index),
                 lambda r: {**r, "offset": r["offset"] + shift})
    with pytest.raises(ValueError, match=f"f.json: tensors\\[{index}\\] "
                       "offset \\d+: the records do not tile the companion "
                       "in order, which puts it at \\d+"):
        load_operator(path)


def _poisoned(case, value):
    if case == "mpo":
        op = random_mpo(3, bond=2, seed=35)
        op.tensors[1][2, 0, 1] = value
        return op, save_operator, "tensors\\[1\\]"
    if case == "dense":
        op = w_state(3)[0]
        op.matrix[1, 1] = value
        return op, save_operator, "matrix"
    data = exact_block_data(random_mpo(4, bond=2, seed=36), 2)
    data.blocks[1, 5] = value
    return data, save_block_data, "blocks"


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("case", ["mpo", "dense", "block_data"])
def test_a_refused_save_writes_neither_file(tmp_path, case, value):
    obj, save, where = _poisoned(case, value)
    with pytest.raises(ValueError, match=f"f.json: {where}: entries must be "
                                         "finite"):
        save(obj, tmp_path / "f.json")
    assert not list(tmp_path.iterdir())


def test_an_unencodable_payload_leaves_the_files_it_would_overwrite(
        tmp_path):
    # the JSON is encoded before either file is opened: an existing pair
    # keeps every byte, and a new path gets neither file
    path = tmp_path / "f.json"
    _save_block_file(path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    for new in (path, tmp_path / "g.json"):
        with pytest.raises(TypeError, match="float32 is not JSON "
                                            "serializable"):
            write_floats(new, {"blocks": np.ones(3),
                               "sigma": np.float32(1e-3)})
        with pytest.raises(TypeError, match="float32 is not JSON "
                                            "serializable"):
            write_json(new, {"sigma": np.float32(1e-3)})
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("sigma", [np.float32(1e-3), np.int64(0)],
                         ids=["float32", "int64"])
def test_a_numpy_sigma_is_kept_as_a_float(tmp_path, sigma):
    data = add_gaussian_noise(exact_block_data(w_state(4)[1], 2), sigma,
                              seed=1)
    assert type(data.sigma) is float and data.sigma == float(sigma)
    save_block_data(data, tmp_path / "d.json")
    back = load_block_data(tmp_path / "d.json")
    assert type(back.sigma) is float and back.sigma == data.sigma
    assert np.array_equal(back.blocks, data.blocks)


def test_a_bool_sigma_is_refused_by_name():
    # True would be saved as "sigma": true, which load_block_data refuses
    data = exact_block_data(w_state(4)[1], 2)
    for make in (lambda: add_gaussian_noise(data, True, seed=1),
                 lambda: PauliBlockData(data.blocks, sigma=False)):
        with pytest.raises(ValueError, match="^scalar noise sigma must be "
                                             "a real number, not bool$"):
            make()


def _save_sweep_config(path):
    path.write_text(json.dumps({"family": "w", "n_list": [4],
                                "width_list": [2], "sigma_list": [0.0]}))


@pytest.mark.parametrize("cut", [0, 0.5], ids=["empty", "truncated"])
@pytest.mark.parametrize("save, load", [
    (_save_operator_file, load_operator),
    (_save_block_file, load_block_data),
    (_save_counts_file, load_counts),
    (_save_sweep_config, sweep_config_from_json),
], ids=["operator", "block_data", "counts", "sweep_config"])
def test_text_that_is_not_json_is_named_with_its_path(tmp_path, save, load,
                                                      cut):
    path = tmp_path / "f.json"
    save(path)
    text = path.read_text()
    path.write_text(text[:int(cut * len(text))])
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not "
                                         "valid JSON: ") as caught:
        load(path)
    assert type(caught.value) is ValueError


@pytest.mark.parametrize("state, width, shots", [
    (lambda: w_state(8, phases=[0.4, 1.0, 2.2, 0.1, 1.7, 0.9, 2.8])[1], 5,
     200),
    (lambda: random_mpo_via_ancilla(6, seed=45), 3, 1000),
    (lambda: product_state(3)[1], 1, 7),
], ids=["w8_r5", "random6_r3", "product3_r1"])
def test_save_counts_bytes_match_the_outcome_loop(tmp_path, state, width,
                                                  shots):
    n = state().n_sites
    blocks = simulate_counts(state(), width, shots, seed=46)
    path = tmp_path / "c.json"
    save_counts(blocks, n, path)
    want = json.dumps(oracles.counts_payload_loop(blocks, n)) + "\n"
    assert path.read_text() == want
    back, _ = load_counts(path)
    for x, y in zip(back, blocks):
        assert np.array_equal(x.counts, y.counts)


@pytest.mark.parametrize("counts, match", [
    ({"+++": 1.5, "+0-": 3},
     "settings\\[0\\] count of '\\+\\+\\+' must be a JSON integer"),
    ({"+0-": 3, "+++": 1.5}, "outcome '\\+0-' is not 3 characters"),
    ({"++-": -1, "+++": 1.5}, "outcome \\+\\+- has a negative count -1"),
    ({"++-": 2, "+++": True, "+--": -4},
     "count of '\\+\\+\\+' must be a JSON integer, not bool"),
], ids=["float_then_outcome", "outcome_then_float", "negative_then_float",
        "bool_then_negative"])
def test_load_counts_names_the_first_bad_outcome(tmp_path, counts, match):
    # with two bad entries in one setting, the first in file order is named
    path = tmp_path / "c.json"
    _save_counts_file(path)
    payload = json.loads(path.read_text())
    entry = payload["blocks"][0]["settings"][0]
    entry["counts"] = counts
    del entry["shots"]
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=match):
        load_counts(path)


def _shots(entry=100, last=None):
    """Fisher noise for the 3 windows of width 2 of _save_block_file, with
    one entry (or the last row) replaced."""
    rows = [[100] * 9 for _ in range(3)]
    rows[1][4] = entry
    if last is not None:
        rows[2] = last
    return {"kind": "fisher", "shots": rows}


@pytest.mark.parametrize("noise, match", [
    ({"kind": "gaussian", "sigma": 1e-3}, "unknown noise kind 'gaussian'"),
    ({"kind": "scalar"}, "scalar noise requires sigma"),
    ({"sigma": 1e-3}, "noise: missing field 'kind'"),
    ({"kind": "scalar", "sigma": "0.001"},
     "d.json: noise sigma must be a JSON number, not str"),
    ({"kind": "scalar", "sigma": True},
     "d.json: noise sigma must be a JSON number, not bool"),
    ({"kind": "fisher", "fisher": [np.eye(15).tolist()] * 3},
     "d.json: noise: missing field 'shots'"),
    (_shots(1.5), "d.json: noise shots\\[1\\]\\[4\\] must be a JSON "
     "integer, not float"),
    (_shots(True), "d.json: noise shots\\[1\\]\\[4\\] must be a JSON "
     "integer, not bool"),
    (_shots("100"), "d.json: noise shots\\[1\\]\\[4\\] must be a JSON "
     "integer, not str"),
    (_shots("100", last=[100] * 8 + [True]), "d.json: noise "
     "shots\\[1\\]\\[4\\] must be a JSON integer, not str"),
    (_shots(-1), "fisher noise requires shots that are nonnegative"),
    (_shots(last=[100] * 8), "d.json: noise shots: rows differ in length"),
    (_shots(last=100), "d.json: noise shots\\[2\\] must be a JSON array"),
    ({"kind": "fisher", "shots": [[100] * 9] * 2},
     "fisher shots must have shape \\(3, 9\\)"),
    ({}, "d.json: noise: missing field 'kind'"),
    (0, "d.json: noise must be a JSON object, not int"),
    ([], "d.json: noise must be a JSON object, not list"),
    (False, "d.json: noise must be a JSON object, not bool"),
    ("", "d.json: noise must be a JSON object, not str"),
    # a field the kind does not read is named, not dropped
    ({"kind": "scalar", "sigma": 1e-3, "shots": [[100] * 9] * 3},
     "d.json: noise: unknown field 'shots'"),
    ({"kind": "fisher", "shots": [[100] * 9] * 3, "sigma": 0.5},
     "d.json: noise: unknown field 'sigma'"),
    ({"kind": "scalar", "sigma": 1e-3, "junk": 5},
     "d.json: noise: unknown field 'junk'"),
], ids=["unknown_kind", "scalar_without_sigma", "no_kind", "sigma_string",
        "sigma_bool", "fisher_matrices", "shots_float", "shots_bool",
        "shots_string", "shots_first_of_two", "shots_negative", "shots_ragged", "shots_row_int",
        "shots_too_few_windows", "empty_object", "zero", "empty_array",
        "false", "empty_string", "scalar_with_shots", "fisher_with_sigma",
        "unknown_field"])
def test_load_block_data_rejects_bad_noise(tmp_path, noise, match):
    path = tmp_path / "d.json"
    _save_block_file(path)
    _set_field(path, "noise", noise)
    with pytest.raises(ValueError, match=match):
        load_block_data(path)


@pytest.mark.parametrize("key, value", [
    ("N", 4.9), ("N", "4"), ("R", 2.5), ("R", True), ("R", 2.0),
], ids=["N_float", "N_string", "R_float", "R_bool", "R_integral_float"])
@pytest.mark.parametrize("save, load", [
    (_save_block_file, load_block_data),
    (_save_counts_file, load_counts),
], ids=["block_data", "counts"])
def test_loaders_reject_sizes_that_are_not_integers(tmp_path, save, load,
                                                    key, value):
    path = tmp_path / "f.json"
    save(path)
    _set_field(path, key, value)
    with pytest.raises(ValueError, match=f"f.json: {key} must be a JSON "
                                         f"integer, not "
                                         f"{type(value).__name__}"):
        load(path)


def _rename_setting(payload, new):
    payload["blocks"][0]["settings"][0]["s"] = new


def _rename_outcome(payload, new):
    counts = payload["blocks"][0]["settings"][0]["counts"]
    counts[new] = counts.pop(next(iter(counts)))


def _negate_first_count(payload):
    # a negative count with shots still matching the sum
    entry = payload["blocks"][0]["settings"][0]
    first = next(iter(entry["counts"]))
    entry["counts"][first] *= -1
    entry["shots"] = sum(entry["counts"].values())


def _add_to_first_count(payload, extra):
    # a count that is not an integer but truncates to the declared shots
    entry = payload["blocks"][0]["settings"][0]
    first = next(iter(entry["counts"]))
    entry["counts"][first] += extra


def _set_first_count(payload, value):
    counts = payload["blocks"][0]["settings"][0]["counts"]
    counts[next(iter(counts))] = value


@pytest.mark.parametrize("mutate, match", [
    (lambda p: _rename_setting(p, "xy"), "setting 'xy' is not 3 letters"),
    (lambda p: _rename_setting(p, "xqz"), "setting 'xqz' is not 3 letters"),
    (lambda p: _rename_outcome(p, "+-"), "outcome '\\+-' is not 3"),
    (lambda p: _rename_outcome(p, "+0-"), "outcome '\\+0-' is not 3"),
    (lambda p: p["blocks"][0].update(k=0), "k = 0 outside 1..2"),
    (lambda p: p["blocks"][1].update(k=3), "k = 3 outside 1..2"),
    (_negate_first_count, "negative count"),
    (lambda p: p["blocks"].append(p["blocks"][0]), "k = 1 is listed twice"),
    (lambda p: p["blocks"][1]["settings"].append(
        p["blocks"][1]["settings"][4]), "block 2: setting 'xyy' is listed"),
    (lambda p: p["blocks"][1].pop("k"), "blocks\\[1\\]: missing field 'k'"),
    (lambda p: p["blocks"][0].pop("settings"),
     "blocks\\[0\\]: missing field 'settings'"),
    (lambda p: p["blocks"][0]["settings"][2].pop("s"),
     "block 1 settings\\[2\\]: missing field 's'"),
    (lambda p: p["blocks"][0]["settings"][2].pop("counts"),
     "block 1 settings\\[2\\]: missing field 'counts'"),
    (lambda p: p.update(blocks=[1, 2]),
     "blocks\\[0\\] must be a JSON object, not int"),
    (lambda p: p.update(blocks={"k": 1}), "blocks must be a JSON array, not "
     "dict"),
    (lambda p: p["blocks"][0].update(settings="xyz"),
     "blocks\\[0\\] settings must be a JSON array, not str"),
    (lambda p: p["blocks"][0]["settings"].__setitem__(1, "xx"),
     "block 1 settings\\[1\\] must be a JSON object, not str"),
    (lambda p: p["blocks"][0]["settings"][2].update(counts=[3, 4]),
     "block 1 settings\\[2\\] counts must be a JSON object, not list"),
    (lambda p: p["blocks"][0].update(k=1.5),
     "blocks\\[0\\] k must be a JSON integer, not float"),
    (lambda p: p["blocks"][1].update(k=True),
     "blocks\\[1\\] k must be a JSON integer, not bool"),
    (lambda p: _add_to_first_count(p, 0.7),
     "block 1 settings\\[0\\] count of '[+-]{3}' must be a JSON integer, "
     "not float"),
    (lambda p: p["blocks"][0]["settings"][0].update(shots=16.5),
     "block 1 settings\\[0\\] shots must be a JSON integer, not float"),
    (lambda p: p["blocks"][0]["settings"][0].update(shots="16"),
     "block 1 settings\\[0\\] shots must be a JSON integer, not str"),
    (lambda p: _rename_setting(p, 5),
     "block 1 settings\\[0\\] s must be a JSON string, not int"),
    (lambda p: _rename_setting(p, None),
     "block 1 settings\\[0\\] s must be a JSON string, not NoneType"),
    (lambda p: _rename_setting(p, ["x", "x", "x"]),
     "block 1 settings\\[0\\] s must be a JSON string, not list"),
    (lambda p: p.update(R=0), "c.json: R = 0 is outside 1..N = 4"),
    (lambda p: p.update(R=-1), "c.json: R = -1 is outside 1..N = 4"),
    (lambda p: p.update(R=5), "c.json: R = 5 is outside 1..N = 4"),
    (lambda p: p.update(N=16, R=13), "c.json: R = 13 is above 12; each "
     "window is fitted as a dense 2\\^R matrix"),
    (lambda p: p["blocks"][1]["settings"][3].update(shots=17),
     "block 2 setting [xyz]{3}: counts sum to 16, declared 17"),
    (lambda p: _set_first_count(p, True),
     "block 1 settings\\[0\\] count of '[+-]{3}' must be a JSON integer, "
     "not bool"),
    (lambda p: p["blocks"][0]["settings"][0].update(shots=True),
     "block 1 settings\\[0\\] shots must be a JSON integer, not bool"),
], ids=["short_setting", "bad_axis", "short_outcome", "bad_outcome",
        "k_zero", "k_past_end", "negative_count", "window_twice",
        "setting_twice", "no_k", "no_settings", "no_s", "no_counts",
        "block_not_object", "blocks_not_array", "settings_not_array",
        "setting_not_object", "counts_not_object", "k_float", "k_bool",
        "count_float", "shots_float", "shots_string", "s_int", "s_null",
        "s_list", "R_zero", "R_negative", "R_past_N", "R_above_cap",
        "shots_mismatch", "count_bool", "shots_bool"])
def test_load_counts_rejects_malformed_entries(tmp_path, mutate, match):
    path = tmp_path / "c.json"
    _save_counts_file(path)
    payload = json.loads(path.read_text())
    mutate(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=match):
        load_counts(path)


def _set_outcome(entry, outcome, count=1):
    """Set one outcome's count in a setting record and drop its shots."""
    entry["counts"][outcome] = count
    entry.pop("shots", None)


@pytest.mark.parametrize("mutate, match", [
    # a fault checked late in an early record, and one checked early in
    # a later record
    (lambda rows: (rows[2].update(shots=99), rows.__setitem__(5, "x")),
     "block 2 setting [xyz]{3}: counts sum to 16, declared 99"),
    (lambda rows: (rows[5].update(s="xq"), rows[2].update(counts=[1])),
     "block 2 settings\\[2\\] counts must be a JSON object, not list"),
    (lambda rows: (_set_outcome(rows[2], "+0-"),
                   rows[5].update(s=rows[0]["s"])),
     "block 2 setting [xyz]{3}: outcome '\\+0-' is not 3 characters"),
    (lambda rows: (_set_outcome(rows[1], "+++", -2),
                   _set_outcome(rows[3], "---", True)),
     "block 2 setting [xyz]{3}: outcome \\+\\+\\+ has a negative "
     "count -2"),
], ids=["shots_then_not_object", "counts_then_setting",
        "outcome_then_setting_twice", "negative_then_bool"])
def test_load_counts_names_the_first_faulty_setting(tmp_path, mutate, match):
    path = tmp_path / "c.json"
    _save_counts_file(path)
    payload = json.loads(path.read_text())
    mutate(payload["blocks"][1]["settings"])
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=match):
        load_counts(path)


def test_load_counts_names_the_fault_in_the_earlier_window(tmp_path):
    # a shots mismatch (checked last in a record) in window 1 is named
    # before a record that is not an object (checked first) in window 2
    path = tmp_path / "c.json"
    _save_counts_file(path)
    payload = json.loads(path.read_text())
    payload["blocks"][0]["settings"][4]["shots"] += 1
    payload["blocks"][1]["settings"][0] = "xyz"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="block 1 setting [xyz]{3}: counts "
                                         "sum to 16, declared 17"):
        load_counts(path)
