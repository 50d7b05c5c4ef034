import re
import tracemalloc

import numpy as np
import pytest

import oracles
from oracles import pack_index, random_mpo
from mpotomo.measurement import add_gaussian_noise, exact_block_data
from mpotomo.operators import (_BLOCK_ENTRIES, DenseOperator,
                               MatrixProductOperator, _rescale_trace,
                               _transfer, identity_environments,
                               load_operator, mpo_from_coeffs, mpo_from_dense,
                               mpo_overlap, save_operator, window_coeffs)
from mpotomo.pauli import coeffs_from_dense, dense_from_coeffs
from mpotomo.reconstruction import reconstruct_mpo
from mpotomo.states import random_mpo_via_ancilla, w_state


def test_dense_operator_validates_hermiticity():
    with pytest.raises(ValueError):
        DenseOperator(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_dense_operator_rejects_non_finite_entries(value):
    with pytest.raises(ValueError, match="operator entries must be finite"):
        DenseOperator(np.full((2, 2), value, dtype=complex))


def _hermitian_rows(n_sites):
    """A Hermitian 2^n_sites-square matrix and the rows of one block of
    DenseOperator's checks, which must split it into several blocks."""
    rng = np.random.default_rng(n_sites)
    dim = 2**n_sites
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rows = _BLOCK_ENTRIES // dim
    assert 1 <= rows < dim // 2
    return m + m.conj().T, rows


@pytest.mark.parametrize("where", ["last_block", "across_boundary"])
def test_dense_operator_checks_every_row_block(where):
    # the checks run over row blocks; an asymmetry that one block alone
    # holds, or whose two entries lie in neighbouring blocks, is named
    # with the deviation over the whole matrix
    m, rows = _hermitian_rows(9)
    i, j = {"last_block": (len(m) - 1, len(m) - rows),
            "across_boundary": (rows - 1, rows)}[where]
    m[i, j] += 0.25
    dev = np.max(np.abs(m - m.conj().T))
    with pytest.raises(ValueError, match=re.escape(
            f"matrix is not Hermitian (deviation {dev:.2e})")):
        DenseOperator(m)
    m[j, i] += 0.25  # Hermitian again
    DenseOperator(m)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_dense_operator_finds_a_non_finite_entry_in_the_last_block(value):
    m, _ = _hermitian_rows(9)
    m[-1, 3] = value
    m[0, 1] += 1.0  # an asymmetry too: the finiteness check comes first
    with pytest.raises(ValueError, match="operator entries must be finite"):
        DenseOperator(m)


def test_dense_operator_shape_checks():
    with pytest.raises(ValueError):
        DenseOperator(np.eye(3, dtype=complex))


@pytest.mark.parametrize("matrix", [np.ones(4), np.ones((2, 2, 2)),
                                    np.ones((2, 4))],
                         ids=["one_axis", "three_axes", "not_square"])
def test_dense_operator_names_a_matrix_that_is_not_square_and_2d(matrix):
    with pytest.raises(ValueError, match="matrix must be square and 2-D, "
                       "not shape " + re.escape(str(matrix.shape))):
        DenseOperator(matrix)


def test_constructors_reject_operators_without_sites():
    with pytest.raises(ValueError, match="an MPO needs at least one tensor"):
        MatrixProductOperator([])
    with pytest.raises(TypeError):
        MatrixProductOperator()
    with pytest.raises(ValueError,
                       match="a dense operator needs at least one site"):
        DenseOperator(np.ones((1, 1)))


def _traceless_mpo():
    tensors = [np.zeros((4, 1, 2)), np.zeros((4, 2, 1))]
    tensors[0][1, 0, 0] = tensors[1][1, 0, 0] = 1.0
    return MatrixProductOperator(tensors)


@pytest.mark.parametrize("call, error, match", [
    # a broadcast view of one zero allocates nothing
    (lambda p: DenseOperator(np.broadcast_to(np.complex128(0),
                                             (8192, 8192))),
     ValueError, "dense operators capped at 12 sites"),
    (lambda p: MatrixProductOperator([np.zeros((3, 1, 1))]),
     ValueError, r"tensor 0 must have shape \(4, Dl, Dr\)"),
    (lambda p: random_mpo(3, bond=2, seed=0).coefficient([0, 0]),
     ValueError, "one basis index per site required"),
    (lambda p: _rescale_trace(_traceless_mpo().tensors, 1.0),
     ValueError, "cannot rescale an operator with zero trace"),
    (lambda p: mpo_overlap(random_mpo(3, bond=2, seed=0),
                           random_mpo(4, bond=2, seed=0)),
     ValueError, "operands must share site count"),
    (lambda p: save_operator(np.eye(2), p / "op.json"),
     TypeError, "cannot serialize ndarray"),
    # numpy would wrap -1 to the z index and raise a bare IndexError at 4
    (lambda p: w_state(4)[1].coefficient([-1, 0, 0, 0]),
     ValueError, r"site 1: alpha = -1 out of range 0\.\.3"),
    (lambda p: w_state(4)[1].coefficient([0, 0, 4, 0]),
     ValueError, r"site 3: alpha = 4 out of range 0\.\.3"),
    # numpy raises a bare IndexError on floats and takes True as x
    (lambda p: w_state(4)[1].coefficient([1.5, 0, 0, 0]),
     ValueError, "site 1: alpha must be an integer, not float"),
    (lambda p: w_state(4)[1].coefficient([2.0, 0, 0, 0]),
     ValueError, "site 1: alpha must be an integer, not float"),
    (lambda p: w_state(4)[1].coefficient([True, 0, 0, 0]),
     ValueError, "site 1: alpha must be an integer, not bool"),
    # range checks alone would take True as 1
    (lambda p: window_coeffs(w_state(4)[1], True, 2),
     ValueError, "window start k must be an integer, not bool"),
    (lambda p: window_coeffs(w_state(4)[1], 1.0, 2),
     ValueError, "window start k must be an integer, not float"),
    (lambda p: window_coeffs(w_state(4)[1], 1, True),
     ValueError, "width must be an integer, not bool"),
    (lambda p: window_coeffs(w_state(4)[1], 1, 2.0),
     ValueError, "width must be an integer, not float"),
], ids=["dense_cap", "tensor_shape", "coefficient_length", "zero_trace",
        "overlap_sites", "save_type", "coefficient_negative_index",
        "coefficient_index_past_z", "coefficient_fractional_index",
        "coefficient_float_index", "coefficient_bool_index",
        "window_bool_start", "window_float_start", "window_bool_width",
        "window_float_width"])
def test_operators_name_bad_input(tmp_path, call, error, match):
    with pytest.raises(error, match=match):
        call(tmp_path)
    assert not (tmp_path / "op.json").exists()


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


@pytest.mark.parametrize("n_sites", range(1, 10))
def test_to_dense_matches_the_coefficient_transform(n_sites):
    # to_dense contracts the chain in two halves; dense_from_coeffs goes
    # through the 4^N coefficient vector. Odd and even N, bonds 1 to 16
    mpos = [random_mpo(n_sites, bond=b, seed=10 * n_sites + b)
            for b in (1, 2, 5, 16)]
    if n_sites == 7:  # and a reconstructed estimate
        ref = random_mpo_via_ancilla(7, seed=4, t_hnorm=0.1)
        mpos.append(reconstruct_mpo(add_gaussian_noise(
            exact_block_data(ref, 3), 1e-3, seed=1)))
    for mpo in mpos:
        got = mpo.to_dense().matrix
        want = dense_from_coeffs(mpo.coeffs())
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_to_dense_names_the_dense_cap():
    mpo = MatrixProductOperator([np.ones((4, 1, 1))] * 13)
    with pytest.raises(ValueError, match="dense operators capped at 12 "
                       "sites"):
        mpo.to_dense()


def test_to_dense_peak_memory_is_near_its_result():
    # no full-size temporary: L, R and the checks' row blocks are small
    # beside the 16 MiB matrix of 10 sites
    mpo = w_state(10)[1]
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        start = tracemalloc.get_traced_memory()[0]
        dense = mpo.to_dense()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 1.3 * dense.matrix.nbytes, peak / dense.matrix.nbytes


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


def test_window_coeffs_takes_numpy_integers():
    mpo = w_state(4)[1]
    assert np.array_equal(window_coeffs(mpo, np.int64(2), np.int32(2)),
                          window_coeffs(mpo, 2, 2))


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
        for k, width in ((0, 2), (5, 2)):
            with pytest.raises(ValueError, match="window out of range"):
                window_coeffs(state, k, width)


@pytest.mark.parametrize("width", [0, -1, 5])
def test_window_coeffs_names_a_width_outside_the_chain(width):
    # below one or past the 4 sites: refused by name on both forms, before
    # any window is formed
    mpo = random_mpo(4, bond=2, seed=5)
    for state in (mpo, mpo.to_dense()):
        with pytest.raises(ValueError,
                           match="^need 1 <= width <= n_sites$"):
            window_coeffs(state, 1, width)


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


def test_rescale_trace():
    mpo = random_mpo(4, bond=2, seed=8)
    one = MatrixProductOperator([t.copy() for t in mpo.tensors])
    _rescale_trace(one.tensors, 1.0)
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


def test_save_refuses_non_finite_entries(tmp_path):
    mpo = random_mpo(4, bond=3, seed=11)
    mpo.tensors[2][1, 0, 0] = np.nan
    dense = DenseOperator(np.eye(4) / 4.0)
    dense.matrix[1, 1] = np.nan
    for op, where in ((mpo, "tensors\\[2\\]"), (dense, "matrix")):
        path = tmp_path / "op.json"
        with pytest.raises(ValueError,
                           match=f"op.json: {where}: entries must be finite"):
            save_operator(op, path)
        assert not list(tmp_path.iterdir())


def test_load_rejects_unknown_payload(tmp_path):
    path = tmp_path / "x.json"
    path.write_text('{"version": 1, "kind": "what"}')
    with pytest.raises(ValueError):
        load_operator(path)


def test_random_mpo_has_nonzero_trace_and_real_tensors():
    mpo = random_mpo(6, bond=2, seed=0)
    assert abs(mpo.trace) > 1e-6
    assert all(np.isrealobj(t) for t in mpo.tensors)


def test_identity_string_gives_the_scaled_trace():
    mpo = random_mpo(4, bond=2, seed=13)
    c0 = mpo.coefficient([0, 0, 0, 0])
    assert abs(mpo.trace - 2.0 ** (4 / 2.0) * c0) < 1e-12


def test_chain_sweeps_are_bitwise_the_unscaled_loops():
    # no partial product of these 64-site chains leaves the sweeps' band, so
    # the scaled environments, overlaps and trace keep every bit of the plain
    # loops; this is what keeps the benchmark's distances unchanged. The
    # windows of exact_block_data are held to the same loops through
    # window_coeffs_tensordot in test_measurement
    mpo = random_mpo_via_ancilla(64, seed=13)
    est = reconstruct_mpo(add_gaussian_noise(exact_block_data(mpo, 5), 1e-3,
                                             seed=1))
    got = identity_environments(mpo, 65, 0)
    want = oracles.identity_environments_unscaled(mpo, 65, 0)
    for side, ref in zip(got, want):
        assert len(side) == len(ref) == 66
        for pair, w in zip(side, ref):
            assert pair is w is None or (
                pair[1] == 0 and np.array_equal(pair[0], w))
    for a, b in ((mpo, mpo), (mpo, est), (est, est)):
        assert mpo_overlap(a, b) == oracles.mpo_overlap_unscaled(a, b)
    assert mpo.trace == want[0][65][0]


def test_chain_contractions_beyond_the_float_range():
    # 1000 sites of 4 (I + 0.6 Z) / 2 have trace 2^2000 and an identity
    # coefficient of 2^1500; 4096 sites of (I + 0.6 Z) / 2 have an identity
    # coefficient of 2^-2048 and purity 0.68^4096. Each reads inf or 0.0,
    # with no warning, and the traces that are in range come out right
    big = oracles.mixed_product_chain(1000, scale=4.0)
    assert big.trace == np.inf and big.coefficient([0] * 1000) == np.inf
    long = oracles.mixed_product_chain(4096)
    assert long.coefficient([0] * 4096) == 0.0
    assert mpo_overlap(long, long) == 0.0
    assert abs(long.trace - 1.0) <= 1e-12
    # rescaling divides 2^2000 out as powers of two spread over the sites
    one = MatrixProductOperator([t.copy() for t in big.tensors])
    _rescale_trace(one.tensors, 1.0)
    assert abs(one.trace - 1.0) <= 1e-12
    assert all(np.isfinite(t).all() for t in one.tensors)
    unit = oracles.mixed_product_chain(1000)
    for k in (1, 500, 998):
        assert np.allclose(window_coeffs(one, k, 3), window_coeffs(unit, k, 3),
                           rtol=1e-12, atol=0.0)
