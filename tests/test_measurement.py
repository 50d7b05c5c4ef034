import base64
import json
import warnings

import numpy as np
import pytest

import oracles
from oracles import random_mpo
from mpotomo.files import write_json
from mpotomo.measurement import (MLE_TOL, _U_BASIS, CountsBlock, NoiseMeta,
                                 PauliBlockData, _design_blocks,
                                 _fisher_matrix, _probabilities,
                                 _project_density, _setting_unitaries,
                                 add_gaussian_noise,
                                 all_settings, block_data_from_counts,
                                 exact_block_data,
                                 fisher_information, load_block_data,
                                 load_counts, local_mle,
                                 _outcome_tables, outcome_string,
                                 save_block_data, save_counts,
                                 simulate_counts)
import mpotomo.measurement
import mpotomo.operators
from mpotomo.operators import (DenseOperator, load_operator, save_operator,
                               window_coeffs)
from mpotomo.pauli import coeffs_from_dense, dense_from_coeffs
from mpotomo.reconstruction import (ReconstructionConfig, RegularizerSpec,
                                    reconstruct_mpo)
from mpotomo.states import product_state, random_mpo_via_ancilla, w_state


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

    def counted(mpo):
        calls.append(mpo)
        return build(mpo)

    monkeypatch.setattr(mpotomo.operators, "identity_environments", counted)
    mpo = random_mpo(8, bond=2, seed=14)
    exact_block_data(mpo, 3)
    assert len(calls) == 1
    simulate_counts(mpo.rescaled_trace(1.0), 2, 10, seed=0)
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


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
def test_setting_kernel_matches_per_setting_einsum(width):
    # each unitary is bitwise the np.kron chain of its factors; the
    # probabilities agree with the per-setting einsum to a tolerance, since
    # einsum's rounding differs between numpy versions
    settings = all_settings(width)
    u = _setting_unitaries(settings)
    for j, setting in enumerate(settings):
        assert np.array_equal(
            u[j], oracles.kron_chain([_U_BASIS[ch] for ch in setting]))
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


def test_noise_is_seeded_and_marks_metadata():
    state = _dense_state(4, 4)
    data = exact_block_data(state, 2)
    n1 = add_gaussian_noise(data, 1e-3, seed=5)
    n2 = add_gaussian_noise(data, 1e-3, seed=5)
    n3 = add_gaussian_noise(data, 1e-3, seed=6)
    assert np.array_equal(n1.blocks, n2.blocks)
    assert not np.array_equal(n1.blocks, n3.blocks)
    assert n1.noise.kind == "scalar" and n1.noise.sigma == 1e-3


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
        NoiseMeta("scalar", sigma=sigma)


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
    assert outcome_string(0, 3) == "+++"
    assert outcome_string(5, 3) == "-+-"
    strings, index = _outcome_tables(3)
    assert strings == tuple(outcome_string(idx, 3) for idx in range(8))
    for idx in range(8):
        assert index[outcome_string(idx, 3)] == idx
    # built once per width, and shared, so neither table can be changed
    assert _outcome_tables(3) is _outcome_tables(3)
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


@pytest.mark.parametrize("width", [3, 4, 5])
def test_fisher_matrix_has_no_coupling_between_last_site_axes(
        fisher_window, width):
    # no setting measures two axes on one site, so coefficients whose last
    # sites carry different non-identity Paulis are never coupled; row
    # 4 m + s - 1 of F is coefficient 4 m + s
    F = _fisher_matrix(*fisher_window(width, "random"))
    for s in (1, 2, 3):
        assert np.all(F[s - 1::4, s - 1::4].diagonal() > 0.0)
        for t in (1, 2, 3):
            if t != s:
                assert not np.any(F[s - 1::4, t - 1::4])


def test_block_data_from_counts_has_fisher_metadata():
    _, wm = w_state(4)
    blocks = simulate_counts(wm, 2, 400, seed=6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # every window converges
        data = block_data_from_counts(blocks, 4)
    assert data.noise is not None and data.noise.kind == "fisher"
    assert np.array_equal(data.noise.shots, np.full((3, 9), 400))
    # the information the penalty forms from a window's estimate and shots
    # is that of its counts at the fitted state
    for b, block in enumerate(blocks):
        assert np.array_equal(
            _fisher_matrix(data.blocks[b], data.noise.shots[b]),
            fisher_information(block, local_mle(block).rho))
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


@pytest.mark.parametrize("shots", [10.5, True, "100", 0, -1])
def test_simulate_counts_rejects_shots_that_are_not_positive_integers(shots):
    with pytest.raises(ValueError, match="shots"):
        simulate_counts(w_state(3)[1], 2, shots, seed=1)


def test_design_blocks_are_built_once_and_read_only():
    settings, cols, signs = _design_blocks(3)
    again = _design_blocks(3)
    assert again[0] is settings and again[1] is cols and again[2] is signs
    assert settings == tuple(all_settings(3))
    for arr in (cols, signs):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 0


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
    assert back.noise.kind == "scalar" and back.noise.sigma == 1e-3


def test_block_data_serialization_keeps_fisher(tmp_path):
    # a reloaded fit reconstructs bitwise as the fit in memory, and the
    # file holds shots, not (4^R - 1)-square matrices: 27 MB at this size
    _, wm = w_state(8, phases=[0.4, 1.0, 2.2, 0.1, 1.7, 0.9, 2.8])
    blocks = simulate_counts(wm, 5, 100, seed=11)
    data = block_data_from_counts(blocks, 8)
    path = tmp_path / "f.json"
    save_block_data(data, path)
    assert path.stat().st_size < 0.5e6
    back = load_block_data(path)
    assert back.noise.kind == "fisher"
    assert np.array_equal(back.noise.shots, data.noise.shots)
    cfg = ReconstructionConfig(regularizer=RegularizerSpec("fisher"))
    for a, b in zip(reconstruct_mpo(back, cfg).tensors,
                    reconstruct_mpo(data, cfg).tensors):
        assert np.array_equal(a, b)


def _nested_payload(path):
    """The JSON of a saved file with every float64 record rewritten as the
    nested lists of numbers it encodes: the form files had before the
    record, in which a test can edit single entries."""
    def nested(value):
        if isinstance(value, dict) and set(value) == {"shape", "float64"}:
            raw = base64.b64decode(value["float64"])
            return np.frombuffer(raw, "<f8").reshape(value["shape"]).tolist()
        if isinstance(value, dict):
            return {key: nested(v) for key, v in value.items()}
        if isinstance(value, list):
            return [nested(v) for v in value]
        return value
    return nested(json.loads(path.read_text()))


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


def _with_shots(data, shots):
    return PauliBlockData(data.n_sites, data.width, data.blocks,
                          NoiseMeta("fisher", shots=shots))


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
    None,
], ids=["negative", "fractional", "bool", "missing"])
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
], ids=["mpo_nan", "dense_inf", "mpo_n_sites", "dense_n_sites",
        "mpo_bond_dims", "mpo_empty", "mpo_string", "mpo_bool", "mpo_null",
        "mpo_ragged", "mpo_tensors_object", "dense_string",
        "dense_one_number_per_entry", "dense_three_numbers_per_entry"])
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


# ---- float arrays as float64 records ----


def _record(array):
    """A float64 record, encoded here rather than by the package."""
    data = np.asarray(array, dtype="<f8")
    return {"shape": list(data.shape),
            "float64": base64.b64encode(data.tobytes()).decode()}


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
    payload = json.loads(path.read_text())
    assert payload["tensors"][1] == _record(mpo.tensors[1])
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
    payload = json.loads(path.read_text())
    assert payload["matrix"] == _record(np.stack([m.real, m.imag], -1))
    back = load_operator(path)
    assert np.array_equal(back.matrix, m)
    _assert_bitwise(back.matrix.real, m.real)
    _assert_bitwise(back.matrix.imag, m.imag)


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
    payload = json.loads(path.read_text())
    assert payload["blocks"] == _record(data.blocks)
    back = load_block_data(path)
    _assert_bitwise(back.blocks, data.blocks)
    if noise == "fisher":
        assert np.array_equal(back.noise.shots, data.noise.shots)


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
    assert rec.stat().st_size < nested.stat().st_size


# Where each tool-written file holds a record, and how a message names it.
_RECORD_SITES = pytest.mark.parametrize("save, load, keys, where", [
    (_save_operator_file, load_operator, ("tensors", 1),
     "f.json: tensors\\[1\\]"),
    (lambda p: save_operator(w_state(3)[0], p), load_operator, ("matrix",),
     "f.json: matrix"),
    (_save_block_file, load_block_data, ("blocks",), "f.json: blocks"),
], ids=["mpo", "dense", "block_data"])


def _edit_record(path, keys, edit):
    """Replace the record at payload[keys[0]][keys[1]]... by edit(record)."""
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


def _text(edit):
    return lambda r: {**r, "float64": edit(r["float64"])}


@pytest.mark.parametrize("edit, message", [
    (lambda r: r["float64"],
     " must be a float64 record or a JSON array, not str"),
    (lambda r: 1.5, " must be a float64 record or a JSON array, not float"),
    (lambda r: None,
     " must be a float64 record or a JSON array, not NoneType"),
    (_without("shape"), ": missing field 'shape'"),
    (_without("float64"), ": missing field 'float64'"),
    (lambda r: {**r, "dtype": "<f8"}, ": unknown field 'dtype'"),
    (lambda r: {**r, "shape": 12}, " shape must be a JSON array, not int"),
    (_shape_entry(4.0), " shape\\[0\\] must be a JSON integer, not float"),
    (_shape_entry(True), " shape\\[0\\] must be a JSON integer, not bool"),
    (_shape_entry("4"), " shape\\[0\\] must be a JSON integer, not str"),
    (_shape_entry(-1), " shape\\[0\\] must be nonnegative, not -1"),
    (lambda r: {**r, "float64": [0.0]},
     " float64 must be a JSON string, not list"),
    (lambda r: {**r, "float64": None},
     " float64 must be a JSON string, not NoneType"),
    (_text(lambda t: "@" + t[1:]), " float64 is not valid base64"),
    (_text(lambda t: t[:-1]), " float64 is not valid base64"),
    (_text(lambda t: t[:8] + "\n" + t[8:]), " float64 is not valid base64"),
    (_text(lambda t: "é" + t[1:]), " float64 is not valid base64"),
    (_text(lambda t: t[:-12]), " float64 holds \\d+ bytes; shape "
     "\\[[0-9, ]+\\] needs \\d+"),
    (lambda r: {**r, "shape": [r["shape"][0] + 1] + r["shape"][1:]},
     " float64 holds \\d+ bytes; shape \\[[0-9, ]+\\] needs \\d+"),
    (lambda r: {**r, "shape": r["shape"] + [2]},
     " float64 holds \\d+ bytes; shape \\[[0-9, ]+\\] needs \\d+"),
    # numpy's own message follows "shape: " and varies between versions
    (lambda r: {"shape": [1] * 70, "float64": "AAAAAAAAAAA="}, " shape: "),
    (lambda r: {"shape": [0, 10**30], "float64": ""}, " shape: "),
], ids=["not_object_string", "not_object_number", "not_object_null",
        "no_shape", "no_float64", "extra_field", "shape_not_array",
        "shape_float", "shape_bool", "shape_string", "shape_negative",
        "float64_array", "float64_null", "bad_character", "bad_padding",
        "line_break", "not_ascii", "too_few_bytes", "shape_too_large",
        "shape_extra_axis", "too_many_axes", "axis_too_long"])
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
def test_non_finite_entries_in_records_are_rejected(tmp_path, save, load,
                                                    keys, where, value):
    def poison(r):
        a = np.frombuffer(base64.b64decode(r["float64"]), "<f8").copy()
        a[len(a) // 2] = value
        return _record(a.reshape(r["shape"]))

    path = tmp_path / "f.json"
    save(path)
    _edit_record(path, keys, poison)
    with pytest.raises(ValueError, match="blocks must be finite"
                       if keys == ("blocks",)
                       else "operator entries must be finite"):
        load(path)


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
], ids=["unknown_kind", "scalar_without_sigma", "no_kind", "sigma_string",
        "sigma_bool", "fisher_matrices", "shots_float", "shots_bool",
        "shots_string", "shots_first_of_two", "shots_negative", "shots_ragged", "shots_row_int",
        "shots_too_few_windows", "empty_object", "zero", "empty_array",
        "false", "empty_string"])
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
