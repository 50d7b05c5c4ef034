import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from mpotomo import states
from mpotomo.pauli import coeffs_from_dense
from mpotomo.operators import DenseOperator, MatrixProductOperator
from mpotomo.states import (FAMILIES, ancilla_channel, ghz_state,
                            hamiltonian_dense, make_state, mps_to_mpo,
                            product_state, random_mps,
                            random_mpo_via_ancilla, thermal_dense, w_state)


def test_hamiltonian_validation():
    for family in ("nope", "w"):
        with pytest.raises(ValueError, match=f"unknown family '{family}'"):
            hamiltonian_dense(family, 4)
    with pytest.raises(ValueError, match="need at least two sites"):
        hamiltonian_dense("critical_ising", 1)
    with pytest.raises(ValueError, match="exact diagonalization capped at "
                                         "12 sites"):
        hamiltonian_dense("critical_ising", 13)
    with pytest.raises(ValueError, match="exact diagonalization capped at "
                                         "12 sites"):
        thermal_dense("random_next_neighbour", 13, 1.0, seed=0)


def test_ising_two_site_ground_energy():
    # H = -XX - Z1 - 1Z has extremal eigenvalues -sqrt(5), +sqrt(5):
    # squaring on the invariant 2x2 block gives E^2 = 5
    H = hamiltonian_dense("critical_ising", 2)
    X, Z, I = oracles.SX, oracles.SZ, oracles.I2
    ref = -np.kron(X, X) - np.kron(Z, I) - np.kron(I, Z)
    assert np.allclose(H, ref)
    assert abs(np.linalg.eigvalsh(H)[0] + np.sqrt(5)) < 1e-12


def test_random_hamiltonian_is_hermitian_and_seeded():
    H1 = hamiltonian_dense("random_next_neighbour", 4, seed=3)
    H2 = hamiltonian_dense("random_next_neighbour", 4, seed=3)
    assert np.allclose(H1, H1.conj().T)
    assert np.array_equal(H1, H2)
    H3 = hamiltonian_dense("random_next_neighbour", 4, seed=4)
    assert not np.allclose(H1, H3)


def test_thermal_state_limits():
    rho0 = thermal_dense("critical_ising", 3, 0.0)
    assert np.allclose(rho0.matrix, np.eye(8) / 8, atol=1e-14)
    # large beta concentrates on the ground space
    rho = thermal_dense("critical_ising", 3, 50.0)
    H = hamiltonian_dense("critical_ising", 3)
    e0 = np.linalg.eigvalsh(H)[0]
    energy = np.trace(rho.matrix @ H).real
    assert abs(energy - e0) < 1e-6
    assert abs(np.trace(rho.matrix) - 1.0) < 1e-12
    assert np.linalg.eigvalsh(rho.matrix)[0] > -1e-14


@pytest.mark.parametrize("beta", [float("nan"), float("inf"), -1.0])
def test_thermal_state_rejects_a_bad_beta(beta):
    with pytest.raises(ValueError, match="beta must be finite and "
                                         "nonnegative"):
        thermal_dense("critical_ising", 3, beta)


@pytest.mark.parametrize("t_hnorm", [float("nan"), float("inf"),
                                     float("-inf")])
def test_ancilla_mpo_rejects_a_non_finite_coupling(t_hnorm):
    with pytest.raises(ValueError, match="t_hnorm must be finite"):
        random_mpo_via_ancilla(4, seed=2, t_hnorm=t_hnorm)


def test_random_mps_is_normalized_and_seeded():
    rng = np.random.default_rng(5)
    mps = random_mps(5, 2, rng)
    vec = mps[0]
    for A in mps[1:]:
        vec = np.einsum("xab,sbc->xsac", vec, A).reshape(
            -1, vec.shape[1], A.shape[2])
    norm = np.linalg.norm(vec.ravel())
    assert abs(norm - 1.0) < 1e-12
    mps2 = random_mps(5, 2, np.random.default_rng(5))
    assert all(np.array_equal(a, b) for a, b in zip(mps, mps2))


def test_random_mps_is_bitwise_the_tensordot_normalization():
    # the same draws, taken one tensor at a time and normalized by a
    # tensordot sweep of the norm
    for n_sites, bond in [(1, 2), (2, 2), (3, 2), (6, 3), (64, 2)]:
        mps = random_mps(n_sites, bond, np.random.default_rng(8))
        ref = oracles.random_mps_per_site(n_sites, bond,
                                          np.random.default_rng(8))
        assert [a.shape for a in mps] == [A.shape for A in ref]
        assert all(np.array_equal(a, A) for a, A in zip(mps, ref))


def test_mps_to_mpo_matches_projector(rng):
    mps = random_mps(3, 2, rng)
    mpo = mps_to_mpo(mps)
    vec = mps[0]
    for A in mps[1:]:
        vec = np.einsum("xab,sbc->xsac", vec, A).reshape(
            -1, vec.shape[1], A.shape[2])
    psi = vec[:, 0, 0]
    ref = np.outer(psi, psi.conj())
    assert np.max(np.abs(mpo.to_dense().matrix - ref)) < 1e-12


def test_ancilla_channel_is_trace_preserving(rng):
    S = ancilla_channel(rng, 8, t_hnorm=0.05)
    assert S.shape == (8, 4, 4)
    # rows of the superoperator acting on vec(rho): trace preservation
    # means sum_a S[(a,a), (s,t)] = delta_{s,t}, at every site
    S4 = S.reshape(8, 2, 2, 2, 2)
    tr_out = S4[:, 0, 0] + S4[:, 1, 1]
    assert np.allclose(tr_out, np.eye(2), atol=1e-12)


class _ZeroRng:
    def standard_normal(self, size):
        return np.zeros(size)


def test_ancilla_channel_of_a_zero_generator_is_the_identity():
    # H = 0 has operator norm 0: t is 0, not t_hnorm / 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        S = ancilla_channel(_ZeroRng(), 5, t_hnorm=0.1)
    assert np.array_equal(S, np.broadcast_to(np.eye(4), (5, 4, 4)))
    assert all(np.array_equal(S[i], oracles.ancilla_channel_per_site(
        _ZeroRng(), 0.1)) for i in range(5))


@pytest.mark.parametrize("n_sites", [1, 2, 3, 4, 8, 64, 256])
@pytest.mark.parametrize("t_hnorm", [0.0, 0.01, 0.1])
def test_ancilla_mpo_is_bitwise_the_per_site_construction(n_sites, t_hnorm):
    for seed in (0, 7, (3, 0, 1)):
        got = random_mpo_via_ancilla(n_sites, seed=seed, t_hnorm=t_hnorm)
        ref = oracles.random_mpo_per_site(n_sites, seed=seed,
                                          t_hnorm=t_hnorm)
        assert [t.shape for t in got.tensors] == [t.shape for t in ref]
        assert all(map(np.array_equal, got.tensors, ref)), seed


def test_named_states_are_bitwise_the_per_site_assembly(monkeypatch):
    seen = []
    stacked = states.mps_to_mpo

    def spy(mps, channels=None):
        seen.append(mps)
        return stacked(mps, channels)

    monkeypatch.setattr(states, "mps_to_mpo", spy)
    for n in (2, 3, 4, 9, 40):
        for _, mpo in (w_state(n), w_state(n, np.linspace(0.3, 2.9, n - 1)),
                       ghz_state(n)):
            ref = oracles.mps_to_mpo_per_site(seen.pop(0))
            assert [t.shape for t in mpo.tensors] == [t.shape for t in ref]
            assert all(map(np.array_equal, mpo.tensors, ref)), n


@pytest.mark.parametrize("per_chunk", [1, 3, 1000])
def test_mps_to_mpo_is_bitwise_over_any_chunk_size(monkeypatch, per_chunk):
    # stacks of sites of one shape, of any size, give the same tensors
    def build():
        return [w_state(11)[1], ghz_state(9)[1],
                random_mpo_via_ancilla(10, seed=5, t_hnorm=0.1)]

    want = build()
    # per_chunk sites of bond 2 (1 KiB of pair products each)
    monkeypatch.setattr(states, "_CHUNK_BYTES", per_chunk * 1024)
    for a, b in zip(build(), want):
        assert all(map(np.array_equal, a.tensors, b.tensors))


def test_w_state_peak_memory_is_near_its_tensors():
    # mps_to_mpo contracts bounded stacks of sites, so a long chain's
    # transients stay small beside its tensors
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        start = tracemalloc.get_traced_memory()[0]
        _, mpo = w_state(4096)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()
    tensors = sum(t.nbytes for t in mpo.tensors)
    assert peak <= 3 * tensors, peak / tensors


@pytest.mark.parametrize("bad_sites, named", [
    ((2, 4), 3), ((5, 3), 4), ((0, 5), 1), ((5,), 6),
])
def test_mps_to_mpo_names_the_first_complex_site(rng, bad_sites, named):
    # i rho is not Hermitian, so a site with the channel rho -> i rho gets a
    # complex tensor in the Hermitian bond basis
    mps = random_mps(6, 2, rng)
    channels = np.tile(np.eye(4, dtype=complex), (6, 1, 1))
    channels[list(bad_sites)] *= 1.0j
    with pytest.raises(ValueError, match=f"^bond gauge failed to produce "
                       f"real tensors: site {named} of 6 is complex$"):
        mps_to_mpo(mps, channels)


def test_ancilla_mpo_is_a_state():
    mpo = random_mpo_via_ancilla(5, seed=7)
    assert mpo.bond_dims == [1, 4, 4, 4, 4, 1]
    assert all(np.isrealobj(t) for t in mpo.tensors)
    assert abs(mpo.trace - 1.0) < 1e-10
    dm = mpo.to_dense().matrix
    ev = np.linalg.eigvalsh(dm)
    assert ev[0] > -1e-10
    assert abs(np.trace(dm).real - 1.0) < 1e-10


def test_ancilla_mpo_zero_coupling_is_pure():
    mpo = random_mpo_via_ancilla(4, seed=2, t_hnorm=0.0)
    dm = mpo.to_dense().matrix
    purity = np.trace(dm @ dm).real
    assert abs(purity - 1.0) < 1e-10


def test_ancilla_mpo_coupling_mixes():
    mpo = random_mpo_via_ancilla(4, seed=2, t_hnorm=0.1)
    dm = mpo.to_dense().matrix
    assert np.trace(dm @ dm).real < 1.0 - 1e-6


def test_w_state_dense_and_mpo_agree():
    phases = [0.3, -0.2, 0.9]
    dense, mpo = w_state(4, phases=phases)
    assert np.max(np.abs(mpo.to_dense().matrix - dense.matrix)) < 1e-12
    assert mpo.bond_dims == [1, 4, 4, 4, 1]


def test_w_state_single_site_reduction():
    dense, _ = w_state(4)
    red = oracles.partial_trace_loops(dense.matrix, [1], 4)
    assert np.allclose(np.diag(red).real, [0.75, 0.25], atol=1e-14)
    assert abs(coeffs_from_dense(red)[3] - 1.0 / (2.0 * np.sqrt(2.0))) < 1e-14


def test_w_state_phases_live_on_branches():
    d0, _ = w_state(3)
    d1, _ = w_state(3, phases=[0.7, 0.7])
    # equal phases on every branch differ from the flat state only by
    # coherences involving the reference branch
    assert abs(d0.matrix[1, 1] - d1.matrix[1, 1]) < 1e-14
    assert abs(d0.matrix[2, 4] - d1.matrix[2, 4]) < 1e-14
    assert abs(d0.matrix[1, 2]) > 1e-3
    assert abs(d0.matrix[1, 2] - d1.matrix[1, 2]) > 1e-3


def test_ghz_state_dense_and_mpo_agree():
    dense, mpo = ghz_state(4)
    vec = np.zeros(16)
    vec[0] = vec[15] = 2.0 ** -0.5
    assert np.max(np.abs(dense.matrix - np.outer(vec, vec))) < 1e-14
    assert np.max(np.abs(mpo.to_dense().matrix - dense.matrix)) < 1e-12


def test_ghz_single_site_is_the_plus_state():
    plus = np.full(2, 2.0 ** -0.5, dtype=complex)
    dense, mpo = ghz_state(1)
    assert np.array_equal(dense.matrix, np.outer(plus, plus))
    for op in (mpo, make_state("ghz", 1)):
        assert op.bond_dims == [1, 1]
        assert np.max(np.abs(op.to_dense().matrix - dense.matrix)) < 1e-15


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_named_dense_forms_are_the_hand_built_vectors(rng, n):
    def pure(vec):
        return np.outer(vec, vec.conj())

    phases = rng.uniform(0.0, 2.0 * np.pi, n - 1)
    # amp[i] multiplies the branch with the excitation at site i + 1
    amp = np.exp(1.0j * np.concatenate(([0.0], phases))[::-1]) / np.sqrt(n)
    w = np.zeros(2**n, dtype=complex)
    for i in range(n):
        w[1 << (n - 1 - i)] = amp[i]
    ghz = np.zeros(2**n, dtype=complex)
    ghz[0] = ghz[-1] = 2.0 ** -0.5
    kets = list(rng.normal(size=(n, 2)) + 1.0j * rng.normal(size=(n, 2)))
    prod = np.ones(1, dtype=complex)
    for v in kets:
        prod = np.kron(prod, v / np.linalg.norm(v))
    assert np.array_equal(w_state(n, phases)[0].matrix, pure(w))
    assert np.array_equal(ghz_state(n)[0].matrix, pure(ghz))
    assert np.array_equal(product_state(n, kets)[0].matrix, pure(prod))


def test_ghz_single_z_coefficient_vanishes():
    _, mpo = ghz_state(6)
    assert abs(mpo.coefficient([3, 0, 0, 0, 0, 0])) < 1e-14
    # while the two-point ZZ coefficient does not
    assert abs(mpo.coefficient([3, 3, 0, 0, 0, 0])) > 0.1


def test_product_state_expectations():
    dense, mpo = product_state(3)
    vec = np.zeros(8)
    vec[0] = 1.0
    assert np.allclose(dense.matrix, np.outer(vec, vec))
    assert mpo.bond_dims == [1, 1, 1, 1]
    # <Z> = 1 on every site: coefficient 2^{-3/2} * 1 on a single-Z string
    assert abs(mpo.coefficient([3, 0, 0]) - 2.0 ** -1.5) < 1e-14


def test_named_state_dispatch():
    mpo = make_state("ghz", 3)
    assert isinstance(mpo, MatrixProductOperator) and mpo.n_sites == 3
    with pytest.raises(ValueError):
        make_state("unknown", 3)


def _same_operator(a, b):
    if type(a) is not type(b):
        return False
    if isinstance(a, DenseOperator):
        return np.array_equal(a.matrix, b.matrix)
    return (len(a.tensors) == len(b.tensors)
            and all(map(np.array_equal, a.tensors, b.tensors)))


@pytest.mark.parametrize("n_sites", [0, -1])
@pytest.mark.parametrize("family", FAMILIES)
def test_make_state_rejects_a_chain_without_sites(family, n_sites):
    with pytest.raises(ValueError, match=f"need at least one site, not "
                       f"n_sites = {n_sites}"):
        make_state(family, n_sites, seed=1)


@pytest.mark.parametrize("n_sites", [0, -1])
@pytest.mark.parametrize("build", [
    lambda n: random_mps(n, 2, np.random.default_rng(0)),
    lambda n: random_mpo_via_ancilla(n, seed=1),
    w_state, ghz_state, product_state,
], ids=["random_mps", "random_mpo_via_ancilla", "w_state", "ghz_state",
        "product_state"])
def test_constructors_reject_a_chain_without_sites(build, n_sites):
    with pytest.raises(ValueError, match=f"need at least one site, not "
                       f"n_sites = {n_sites}"):
        build(n_sites)


@pytest.mark.parametrize("n_sites, kind", [(True, "bool"), (4.0, "float")])
@pytest.mark.parametrize("build", [
    lambda n: random_mps(n, 2, np.random.default_rng(0)),
    lambda n: random_mpo_via_ancilla(n, seed=1),
    w_state, ghz_state, product_state,
    lambda n: make_state("ghz", n),
], ids=["random_mps", "random_mpo_via_ancilla", "w_state", "ghz_state",
        "product_state", "make_state"])
def test_constructors_refuse_a_site_count_that_is_not_an_integer(
        build, n_sites, kind):
    with pytest.raises(ValueError, match=f"^n_sites must be an integer, "
                                         f"not {kind}$"):
        build(n_sites)
    assert build(np.int64(2)) is not None


@pytest.mark.parametrize("ket", [np.zeros(2), [np.nan, 1.0], [np.inf, 0.0]],
                         ids=["zero", "nan", "inf"])
def test_product_state_names_a_ket_it_cannot_normalize(ket):
    with pytest.raises(ValueError, match="ket 2: norm .* is zero or not "
                       "finite"):
        product_state(2, [[1.0, 0.0], ket])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_w_state_refuses_non_finite_phases(bad):
    # a NaN phase once gave an MPO with a NaN tensor and a NaN trace
    phases = [bad, 0.0, 0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for build in (lambda: make_state("w", 4, phases=phases),
                      lambda: w_state(4, phases)):
            with pytest.raises(ValueError, match=r"phases must be finite, "
                               rf"not \[{bad!r}, 0.0, 0.0\]"):
                build()


def test_named_states_name_a_wrong_count_of_site_inputs():
    with pytest.raises(ValueError, match="need n_sites - 1 phases"):
        w_state(3, phases=[0.1])
    with pytest.raises(ValueError, match="need one ket per site"):
        product_state(2, [[1.0, 0.0]])


def test_make_state_matches_family_constructors():
    phases = [0.3, 1.1, 2.0]
    want = {
        "critical_ising": thermal_dense("critical_ising", 4, 2.0),
        "random_next_neighbour": thermal_dense("random_next_neighbour", 4,
                                               2.0, seed=5),
        "random_mpo": random_mpo_via_ancilla(4, seed=5, t_hnorm=0.1),
        # the named families' MPO, without the dense form
        "w": w_state(4, phases)[1],
        "ghz": ghz_state(4)[1],
        "product": product_state(4)[1],
    }
    assert set(want) == set(FAMILIES)
    for family, state in want.items():
        got = make_state(family, 4, seed=5, beta=2.0, t_hnorm=0.1,
                         phases=phases)
        assert _same_operator(got, state), family


def test_make_state_builds_no_dense_form_of_a_named_state():
    # W(12)'s dense form alone is 256 MiB; its MPO is about 6 KiB
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        start = tracemalloc.get_traced_memory()[0]
        mpo = make_state("w", 12)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()
    assert isinstance(mpo, MatrixProductOperator) and mpo.n_sites == 12
    assert peak < 2**20, peak
