import numpy as np
import pytest

import oracles
from oracles import pack_index, random_mpo
from mpotomo.operators import (DenseOperator, MatrixProductOperator,
                               _transfer, load_operator,
                               mpo_from_coeffs, mpo_from_dense, mpo_overlap,
                               save_operator, window_coeffs)
from mpotomo.pauli import coeffs_from_dense


def test_dense_operator_validates_hermiticity():
    with pytest.raises(ValueError):
        DenseOperator(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_dense_operator_rejects_non_finite_entries(value):
    with pytest.raises(ValueError, match="operator entries must be finite"):
        DenseOperator(np.full((2, 2), value, dtype=complex))


def test_dense_operator_shape_checks():
    with pytest.raises(ValueError):
        DenseOperator(np.eye(3, dtype=complex))


def test_mpo_coefficient_matches_dense(rng):
    mpo = random_mpo(4, bond=3, seed=5)
    dense = mpo.to_dense().matrix
    for _ in range(30):
        alphas = rng.integers(0, 4, size=4)
        got = mpo.coefficient(alphas)
        ref = oracles.coeff_by_trace(dense, alphas)
        assert abs(ref.imag) < 1e-12
        assert abs(got - ref.real) < 1e-12


def test_mpo_trace_matches_dense():
    mpo = random_mpo(5, bond=2, seed=1)
    assert abs(mpo.trace - np.trace(mpo.to_dense().matrix).real) < 1e-12


def test_mpo_from_dense_roundtrip(herm16):
    op = DenseOperator(herm16)
    mpo = mpo_from_dense(op)
    back = mpo.to_dense().matrix
    assert np.max(np.abs(back - herm16)) < 1e-12
    assert all(t.dtype == np.float64 for t in mpo.tensors)


def test_mpo_from_coeffs_roundtrip(herm16):
    c = coeffs_from_dense(herm16)
    mpo = mpo_from_coeffs(c)
    assert np.allclose(mpo.coeffs(), c, atol=1e-12)


def test_split_ranks_are_minimal():
    # a product of single-site operators has bond dimension one
    rho = oracles.string_dense([0, 3, 1, 0])
    mpo = mpo_from_dense(DenseOperator(rho))
    assert mpo.bond_dims == [1, 1, 1, 1, 1]


def test_mpo_overlap_matches_dense_trace():
    a = random_mpo(4, bond=2, seed=2)
    b = random_mpo(4, bond=3, seed=3)
    ref = np.trace(a.to_dense().matrix @ b.to_dense().matrix).real
    assert abs(mpo_overlap(a, b) - ref) < 1e-12 * abs(ref)
    self_ref = np.sum(a.to_dense().coeffs() ** 2)
    assert abs(mpo_overlap(a, a) - self_ref) < 1e-12 * self_ref


def _mixed_bond_mpo(bonds, seed):
    rng = np.random.default_rng(seed)
    return MatrixProductOperator([rng.normal(size=(4, dl, dr))
                                  for dl, dr in zip(bonds, bonds[1:])])


def test_mpo_overlap_matches_dense_trace_with_mixed_bonds():
    a = _mixed_bond_mpo([1, 3, 1, 5, 2, 1], seed=6)
    b = _mixed_bond_mpo([1, 4, 7, 2, 3, 1], seed=7)
    ref = np.trace(a.to_dense().matrix @ b.to_dense().matrix).real
    assert abs(mpo_overlap(a, b) - ref) < 1e-12 * abs(ref)
    assert abs(mpo_overlap(b, a) - ref) < 1e-12 * abs(ref)


@pytest.mark.parametrize("dtype", [float, complex])
def test_transfer_is_bitwise_the_tensordot_contraction(rng, dtype):
    def draw(*shape):
        t = rng.normal(size=shape)
        return t + 1j * rng.normal(size=shape) if dtype is complex else t
    for dl_a, dl_b, dr_a, dr_b in [(1, 1, 3, 5), (3, 5, 2, 4), (4, 2, 1, 1)]:
        env = draw(dl_a, dl_b)
        ta, tb = draw(4, dl_a, dr_a), draw(4, dl_b, dr_b)
        T = _transfer(env, ta, tb)
        ref = oracles.transfer_tensordot(env, ta, tb)
        assert T.shape == ref.shape == (dr_a, dr_b)
        assert T.dtype == ref.dtype and np.array_equal(T, ref)


def test_window_coeffs_matches_partial_trace():
    mpo = random_mpo(5, bond=3, seed=4)
    dense = mpo.to_dense()
    for k, width in ((1, 2), (2, 3), (4, 2), (3, 3)):
        got = window_coeffs(mpo, k, width)
        red = oracles.partial_trace_loops(dense.matrix,
                                          range(k, k + width), 5)
        ref = coeffs_from_dense(red)
        assert np.max(np.abs(got - ref)) < 1e-12
    for width in range(1, 6):
        for k in range(1, 7 - width):
            assert np.max(np.abs(window_coeffs(dense, k, width)
                                 - window_coeffs(mpo, k, width))) < 1e-12
    for state in (mpo, dense):
        for k, width in ((0, 2), (5, 2), (1, 6)):
            with pytest.raises(ValueError, match="window out of range"):
                window_coeffs(state, k, width)


def test_window_coeffs_full_chain_is_full_vector():
    mpo = random_mpo(3, bond=2, seed=6)
    assert np.allclose(window_coeffs(mpo, 1, 3), mpo.coeffs())


def test_bond_dimension_validation():
    good = [np.zeros((4, 1, 2)), np.zeros((4, 2, 1))]
    MatrixProductOperator(good)
    bad = [np.zeros((4, 1, 2)), np.zeros((4, 3, 1))]
    with pytest.raises(ValueError):
        MatrixProductOperator(bad)
    with pytest.raises(ValueError):
        MatrixProductOperator([np.zeros((4, 2, 2))])


def test_rescaled_trace():
    mpo = random_mpo(4, bond=2, seed=8)
    one = mpo.rescaled_trace(1.0)
    assert abs(one.trace - 1.0) < 1e-12
    assert np.max(np.abs(one.to_dense().matrix * mpo.trace
                         - mpo.to_dense().matrix)) < 1e-12


def test_serialization_roundtrip_mpo(tmp_path):
    mpo = random_mpo(4, bond=3, seed=11)
    path = tmp_path / "op.json"
    save_operator(mpo, path)
    back = load_operator(path)
    assert isinstance(back, MatrixProductOperator)
    assert back.bond_dims == mpo.bond_dims
    for t1, t2 in zip(back.tensors, mpo.tensors):
        assert np.array_equal(t1, t2)


def test_serialization_roundtrip_dense(tmp_path, herm16):
    op = DenseOperator(herm16)
    path = tmp_path / "d.json"
    save_operator(op, path)
    back = load_operator(path)
    assert isinstance(back, DenseOperator)
    assert np.array_equal(back.matrix, herm16)


def test_load_rejects_unknown_payload(tmp_path):
    path = tmp_path / "x.json"
    path.write_text('{"version": 1, "kind": "what"}')
    with pytest.raises(ValueError):
        load_operator(path)


def test_random_mpo_has_nonzero_trace_and_real_tensors():
    mpo = random_mpo(6, bond=2, seed=0)
    assert abs(mpo.trace) > 1e-6
    assert all(np.isrealobj(t) for t in mpo.tensors)


def test_identity_string_gives_rescaled_trace():
    mpo = random_mpo(4, bond=2, seed=13)
    c0 = mpo.coefficient([0, 0, 0, 0])
    assert abs(mpo.trace - 2.0 ** (4 / 2.0) * c0) < 1e-12
