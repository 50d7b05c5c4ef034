import functools
import json

import numpy as np
import pytest

from oracles import (random_mpo, w_fidelity_at, w_fidelity_grid,
                     w_fidelity_power_method)
from mpotomo.files import write_json
from mpotomo.measurement import (add_gaussian_noise, block_data_from_counts,
                                 exact_block_data, simulate_counts)
from mpotomo.metrics import (_single_excitation_block, compare_states,
                             fidelity_w_optimized, hs_distance)
from mpotomo.operators import (DenseOperator, MatrixProductOperator,
                               mpo_from_dense)
from mpotomo.reconstruction import (ReconstructionConfig, RegularizerSpec,
                                    reconstruct_mpo)
from mpotomo.states import ghz_state, random_mpo_via_ancilla, w_state


def _wrap(x):
    return np.mod(np.asarray(x), 2.0 * np.pi)


def _dense_purity(state):
    # tr[state^2] from the dense matrix, not from compare_states' Gram terms
    if isinstance(state, MatrixProductOperator):
        state = state.to_dense()
    return float(np.sum(np.abs(state.matrix) ** 2))


def test_hs_distance_of_identical_states_is_zero():
    a = random_mpo(5, bond=2, seed=0)
    assert abs(hs_distance(a, a)) < 1e-12


def test_hs_distance_halved_state():
    # D(rho, rho/2) = ||rho/2||^2 / ||rho||^2 = 1/4
    a = random_mpo(4, bond=2, seed=1)
    half = MatrixProductOperator([a.tensors[0] / 2.0, *a.tensors[1:]])
    assert abs(hs_distance(a, half) - 0.25) < 1e-12


def test_hs_distance_paths_agree(rng):
    a = random_mpo(6, bond=2, seed=2)
    b = random_mpo(6, bond=3, seed=3)
    ad, bd = a.to_dense(), b.to_dense()
    base = hs_distance(a, b)
    assert abs(hs_distance(ad, bd) - base) < 1e-10
    assert abs(hs_distance(ad, b) - base) < 1e-10
    assert abs(hs_distance(a, bd) - base) < 1e-10


def test_hs_distance_reference_normalization():
    a = random_mpo(4, bond=2, seed=4)
    b = random_mpo(4, bond=2, seed=5)
    na = hs_distance(a, b) * compare_states(a, b).purity_ref
    nb = hs_distance(b, a) * compare_states(b, a).purity_ref
    assert abs(na - nb) < 1e-10 * max(abs(na), 1.0)


def test_purity_closed_forms():
    n = 5
    mm = DenseOperator(np.eye(2**n, dtype=complex) / 2**n)
    assert abs(compare_states(mm, mm).purity_ref - 2.0**-n) < 1e-14
    dense, mpo = ghz_state(4)
    rep = compare_states(dense, mpo)
    assert abs(rep.purity_ref - 1.0) < 1e-12
    assert abs(rep.purity_est - 1.0) < 1e-12
    rep = compare_states(mpo, mpo_from_dense(dense))
    assert abs(rep.purity_ref - rep.purity_est) < 1e-12


def test_w_fidelity_of_w_state_is_one_with_phase_recovery():
    target = [0.3, -0.2, 0.9, 2.5]
    dense, mpo = w_state(5, phases=target)
    f, phases = fidelity_w_optimized(dense)
    assert abs(f - 1.0) < 1e-10
    assert np.allclose(_wrap(phases), _wrap(target), atol=1e-5)
    f2, _ = fidelity_w_optimized(mpo)
    assert abs(f2 - 1.0) < 1e-10


def test_w_fidelity_of_maximally_mixed():
    n = 4
    mm = DenseOperator(np.eye(2**n, dtype=complex) / 2**n)
    f, _ = fidelity_w_optimized(mm)
    assert abs(f - 2.0**-n) < 1e-12


def test_w_fidelity_of_mixture_closed_form():
    n = 4
    dense, _ = w_state(n, phases=[1.0, -0.5, 0.25])
    mix = 0.9 * dense.matrix + 0.1 * np.eye(2**n) / 2**n
    f, _ = fidelity_w_optimized(DenseOperator(mix))
    assert abs(f - (0.9 + 0.1 / 2**n)) < 1e-10


def _w_mixture(n, seed):
    # 0.7 W(a) + 0.2 W(b) + 0.1 of the maximally mixed state
    rng = np.random.default_rng(seed)
    a, b = (w_state(n, phases=rng.uniform(0.0, 2.0 * np.pi, n - 1))[0]
            for _ in range(2))
    return 0.7 * a.matrix + 0.2 * b.matrix + 0.1 * np.eye(2**n) / 2**n


def _wishart(n, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _criterion_7_estimate(width):
    # criterion 7's trial-0 W(8) state fitted from counts at this width
    rng = np.random.default_rng((20260822, 0))
    _, wm = w_state(8, phases=list(rng.uniform(0.0, 2.0 * np.pi, size=7)))
    data = block_data_from_counts(
        simulate_counts(wm, width, 100, seed=(7, 0, width)), 8)
    return reconstruct_mpo(data).to_dense().matrix


# name: (N, builder of the dense matrix)
_W_STATES = {f"{kind}{n}_seed{seed}": (n, functools.partial(f, n, seed))
             for kind, f in (("w_mixture", _w_mixture), ("wishart", _wishart))
             for n in range(3, 9) for seed in (1, 2)}
_W_STATES.update({f"criterion7_R{w}": (8, functools.partial(
    _criterion_7_estimate, w)) for w in (3, 5)})


def _check_w_fidelity_against(rho, best, tol):
    # the ascent reaches the reference's best, and its phases give its
    # fidelity on the W kets formed from first definitions
    f, phases = fidelity_w_optimized(DenseOperator(rho))
    assert f >= best - tol
    assert abs(w_fidelity_at(rho, phases)[0] - f) < 1e-12


@pytest.mark.parametrize("name", [k for k, (n, _) in _W_STATES.items()
                                  if n <= 4])
def test_w_fidelity_reaches_the_phase_grid(name):
    rho = _W_STATES[name][1]()
    n_grid = 200 if rho.shape[0] == 8 else 48
    _check_w_fidelity_against(rho, w_fidelity_grid(rho, n_grid), 1e-9)


@pytest.mark.parametrize("name", [k for k, (n, _) in _W_STATES.items()
                                  if n >= 5])
def test_w_fidelity_reaches_the_best_of_many_power_iterations(name):
    rho = _W_STATES[name][1]()
    _check_w_fidelity_against(rho, w_fidelity_power_method(rho, 64, seed=0),
                              1e-12)


def test_compare_states_report_fields():
    from mpotomo.states import random_mpo_via_ancilla
    a = random_mpo_via_ancilla(4, seed=6)
    dense, _ = w_state(4)
    rep = compare_states(dense, a, w_fidelity=True)
    assert rep.hs_distance > 0.0
    assert abs(rep.purity_ref - 1.0) < 1e-10
    assert 0.0 <= rep.w_fidelity <= 1.0 + 1e-12
    assert len(rep.w_phases) == 3
    d = rep.to_dict()
    assert set(d) >= {"hs_distance", "purity_ref", "purity_est",
                      "w_fidelity"}
    assert "min_eig_est" not in d


def test_compare_states_forms_no_dense_matrix(monkeypatch):
    # without the W fidelity the comparison is the three Gram terms: no
    # dense form of either operand and no spectrum
    a = random_mpo_via_ancilla(8, seed=6)
    b = random_mpo(8, bond=3, seed=7)
    want = (hs_distance(a, b), compare_states(a, a).purity_ref,
            compare_states(b, b).purity_ref)

    def refuse(*args, **kwargs):
        raise AssertionError("compare_states formed a dense spectrum")

    monkeypatch.setattr(MatrixProductOperator, "to_dense", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    rep = compare_states(a, b)
    assert (rep.hs_distance, rep.purity_ref, rep.purity_est) == want


@pytest.mark.parametrize("pair", ["mpo-mpo", "dense-mpo", "dense-dense"])
def test_compare_states_matches_standalone_metrics(pair):
    a = random_mpo(5, bond=2, seed=11)
    b = random_mpo(5, bond=3, seed=12)
    if pair != "mpo-mpo":
        a = a.to_dense()
    if pair == "dense-dense":
        b = b.to_dense()
    rep = compare_states(a, b)
    for got, want in ((rep.hs_distance, hs_distance(a, b)),
                      (rep.purity_ref, _dense_purity(a)),
                      (rep.purity_est, _dense_purity(b))):
        assert abs(got - want) <= 1e-12 * abs(want)


def test_compare_states_rejects_zero_norm_reference():
    b = random_mpo(3, bond=2, seed=13)
    zero = MatrixProductOperator([0.0 * t for t in b.tensors])
    for ref in (zero, zero.to_dense()):
        with pytest.raises(ValueError, match="zero norm"):
            compare_states(ref, b)


def test_hs_distance_names_a_site_mismatch():
    with pytest.raises(ValueError, match="operands must share site count"):
        hs_distance(DenseOperator(np.eye(4) / 4),
                    DenseOperator(np.eye(8) / 8))


def test_w_fidelity_of_w_chains_past_the_dense_cap(monkeypatch):
    """W(13) and W(16), past the 12-site dense cap, with phases: an MPO's
    single-excitation block forms no dense matrix, and the ascent gives
    fidelity 1 and the branch phases back."""
    def refuse(*args, **kwargs):
        raise AssertionError("the W fidelity formed a dense matrix")

    monkeypatch.setattr(MatrixProductOperator, "to_dense", refuse)
    rng = np.random.default_rng(38)
    for n in (13, 16):
        target = rng.uniform(0.0, 2.0 * np.pi, n - 1)
        _, mpo = w_state(n, phases=target)
        f, phases = fidelity_w_optimized(mpo)
        assert abs(f - 1.0) <= 1e-12
        assert np.abs(np.angle(np.exp(1j * (phases - target)))).max() < 1e-12


def test_single_excitation_block_of_an_mpo_matches_its_dense_form():
    # random networks with mixed bonds, N = 3-10: the block contracted
    # from the site operators is the dense matrix's, entry for entry
    rng = np.random.default_rng(380)
    for n in range(3, 11):
        bonds = [1, *rng.integers(1, 5, n - 1), 1]
        mpo = MatrixProductOperator([rng.standard_normal((4, dl, dr))
                                     for dl, dr in zip(bonds, bonds[1:])])
        want = _single_excitation_block(mpo.to_dense())
        got = _single_excitation_block(mpo)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_distance_beyond_the_float_range_is_inf():
    # a truncated solve of noisy windows gives an estimate whose trace is
    # near 8e191: its purity and its distance to the state are beyond the
    # float range, and read inf with no overflow warning and no nan
    st = random_mpo_via_ancilla(256, seed=0)
    noisy = add_gaussian_noise(exact_block_data(st, 5), 1e-3, seed=0)
    est = reconstruct_mpo(noisy, ReconstructionConfig(
        regularizer=RegularizerSpec("truncated_pinv")))
    assert 1e191 < est.trace < 1e193
    rep = compare_states(st, est)
    assert rep.hs_distance == hs_distance(st, est) == np.inf
    assert rep.purity_est == np.inf
    assert rep.purity_ref == compare_states(st, st).purity_ref
    assert 0.0 < rep.purity_ref <= 1.0


def test_compare_states_without_w_block():
    a = random_mpo(4, bond=2, seed=7)
    b = random_mpo(4, bond=2, seed=8)
    rep = compare_states(a, b)
    assert rep.w_fidelity is None and rep.w_phases is None


def test_report_serialization(tmp_path):
    a = random_mpo(3, bond=2, seed=9)
    b = random_mpo(3, bond=2, seed=10)
    rep = compare_states(a, b)
    path = tmp_path / "cmp.json"
    write_json(path, rep.to_dict(), indent=1)
    payload = json.loads(path.read_text())
    assert abs(payload["hs_distance"] - rep.hs_distance) < 1e-15
