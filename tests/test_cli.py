import json

import numpy as np
import pytest

from mpotomo.cli import _FAMILY_ALIASES, main
from mpotomo.measurement import (add_gaussian_noise, all_settings,
                                 exact_block_data, load_block_data,
                                 load_counts, save_block_data, save_counts,
                                 simulate_counts)
from mpotomo.operators import load_operator
from mpotomo.metrics import hs_distance
from mpotomo.reconstruction import (NOISE_MODES, ReconstructionConfig,
                                    RegularizerSpec, noise_tikhonov_sigma2,
                                    reconstruct_mpo)
from mpotomo.states import FAMILIES, w_state


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_state_writes_both_forms(tmp_path, capsys):
    out = tmp_path / "anc"
    code, stdout, _ = _run(capsys, "gen-state", "--family", "random-mpo",
                           "--n", "5", "--seed", "3", "--out", str(out))
    assert code == 0
    payload = json.loads(stdout)
    assert payload["written"] == [f"{out}.mpo.json", f"{out}.dense.json"]
    mpo = load_operator(f"{out}.mpo.json")
    dense = load_operator(f"{out}.dense.json")
    assert hs_distance(dense, mpo) < 1e-12


def test_gen_state_skips_dense_beyond_cap(tmp_path, capsys):
    out = tmp_path / "big"
    code, stdout, _ = _run(capsys, "gen-state", "--family", "ghz", "--n",
                           "10", "--out", str(out))
    assert code == 0
    assert json.loads(stdout)["written"] == [f"{out}.mpo.json"]


def test_family_names_are_the_library_families():
    assert set(_FAMILY_ALIASES.values()) == set(FAMILIES)


@pytest.mark.parametrize("family, seed", [
    ("ghz", ()),
    ("random-mpo", ("--seed", "1")),
], ids=["ghz", "random-mpo"])
def test_gen_state_fails_when_dense_is_asked_beyond_the_cap(tmp_path, capsys,
                                                             family, seed):
    code, stdout, stderr = _run(capsys, "gen-state", "--family", family,
                                "--n", "13", *seed,
                                "--dense-max-sites", "14",
                                "--out", str(tmp_path / "big"))
    assert code == 1 and stdout == ""
    assert json.loads(stderr)["error"] == "ValueError"


@pytest.mark.parametrize("family, option", [
    ("ghz", ("--phases", "1,2")),
    ("ghz", ("--beta", "-3")),
    ("w", ("--beta", "3")),
    ("random-mpo", ("--phases", "1,2,3")),
    ("w", ("--t-hnorm", "0.1")),
    ("critical-ising", ("--t-hnorm", "0.1")),
    ("ghz", ("--seed", "1")),
    ("critical-ising", ("--seed", "1")),
], ids=lambda x: x if isinstance(x, str) else x[0])
def test_gen_state_rejects_options_the_family_does_not_read(tmp_path, capsys,
                                                            family, option):
    out = tmp_path / "s"
    code, stdout, stderr = _run(capsys, "gen-state", "--family", family,
                                "--n", "4", *option, "--out", str(out))
    assert code == 1 and stdout == ""
    record = json.loads(stderr)
    assert record["error"] == "ValueError"
    assert option[0] in record["message"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("n", ["0", "-1"])
@pytest.mark.parametrize("family", ["random-mpo", "w", "ghz", "product"])
def test_gen_state_rejects_a_chain_without_sites(tmp_path, capsys, family, n):
    code, stdout, stderr = _run(capsys, "gen-state", "--family", family,
                                "--n", n, "--out", str(tmp_path / "s"))
    assert code == 1 and stdout == ""
    assert json.loads(stderr) == {
        "error": "ValueError",
        "message": f"need at least one site, not n_sites = {n}"}
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("family", ["w", "ghz", "product"])
def test_gen_state_writes_a_single_site_named_state(tmp_path, capsys, family):
    out = tmp_path / "s"
    code, stdout, _ = _run(capsys, "gen-state", "--family", family, "--n",
                           "1", "--out", str(out))
    assert code == 0
    assert json.loads(stdout)["written"] == [f"{out}.mpo.json",
                                             f"{out}.dense.json"]
    assert load_operator(f"{out}.mpo.json").n_sites == 1


@pytest.mark.parametrize("argv", [
    ("measure", "--shots", "0"),
    ("measure", "--sigma", "-0.01"),
    ("measure", "--sigma", "nan"),
], ids="_".join)
def test_bad_numeric_arguments_fail(tmp_path, capsys, argv):
    out = tmp_path / "s"
    _run(capsys, "gen-state", "--family", "random-mpo", "--n", "5",
         "--seed", "2", "--out", str(out))
    bad = tmp_path / "bad.json"
    code, stdout, stderr = _run(capsys, "measure", "--state",
                                f"{out}.mpo.json", "--r", "3", *argv[1:],
                                "--out", str(bad))
    assert code == 1 and stdout == ""
    assert json.loads(stderr)["error"] == "ValueError"
    assert not bad.exists()


def test_measure_and_reconstruct_roundtrip(tmp_path, capsys):
    out = tmp_path / "s"
    _run(capsys, "gen-state", "--family", "random-mpo", "--n", "6",
         "--seed", "4", "--out", str(out))
    data = tmp_path / "data.json"
    code, stdout, _ = _run(capsys, "measure", "--state", f"{out}.mpo.json",
                           "--r", "5", "--sigma", "0.01", "--seed", "5",
                           "--out", str(data))
    assert code == 0
    assert json.loads(stdout)["kind"] == "block_data"
    est = tmp_path / "est.json"
    rep = tmp_path / "rep.json"
    code, stdout, _ = _run(capsys, "reconstruct", "--data", str(data),
                           "--out", str(est), "--report", str(rep))
    assert code == 0
    payload = json.loads(stdout)
    # scalar noise metadata selects the matched tikhonov parameter
    assert payload["solver_mode"] == "tikhonov"
    ref = load_operator(f"{out}.mpo.json")
    assert hs_distance(ref, load_operator(est)) < 0.05
    assert json.loads(rep.read_text())["width"] == 5


def test_matched_sigma2_follows_the_requested_split(tmp_path, capsys):
    # --l 3 alone on width-5 data resolves to (l, r) = (3, 1); the matched
    # Tikhonov parameter must be that split's, not the default (2, 2)'s
    out = tmp_path / "s"
    _run(capsys, "gen-state", "--family", "random-mpo", "--n", "6",
         "--seed", "12", "--out", str(out))
    data = tmp_path / "data.json"
    _run(capsys, "measure", "--state", f"{out}.mpo.json", "--r", "5",
         "--sigma", "0.01", "--seed", "13", "--out", str(data))
    est = tmp_path / "est.json"
    code, _, _ = _run(capsys, "reconstruct", "--data", str(data), "--l", "3",
                      "--out", str(est))
    assert code == 0
    reg = RegularizerSpec("tikhonov", sigma2=noise_tikhonov_sigma2(0.01, 3, 1))
    ref = reconstruct_mpo(load_block_data(data),
                          ReconstructionConfig(l=3, r=1, regularizer=reg))
    got = load_operator(est)
    for a, b in zip(got.tensors, ref.tensors):
        assert np.allclose(a, b, rtol=0.0, atol=1e-12)


def test_exact_measure_uses_plain_solver(tmp_path, capsys):
    out = tmp_path / "s"
    _run(capsys, "gen-state", "--family", "random-mpo", "--n", "5",
         "--seed", "6", "--out", str(out))
    data = tmp_path / "d.json"
    _run(capsys, "measure", "--state", f"{out}.mpo.json", "--r", "3",
         "--out", str(data))
    est = tmp_path / "e.json"
    code, stdout, _ = _run(capsys, "reconstruct", "--data", str(data),
                           "--out", str(est))
    assert code == 0
    assert json.loads(stdout)["solver_mode"] == "truncated_pinv"
    ref = load_operator(f"{out}.mpo.json")
    assert hs_distance(ref, load_operator(est)) < 1e-10


def test_counts_pipeline(tmp_path, capsys):
    out = tmp_path / "w"
    _run(capsys, "gen-state", "--family", "w", "--n", "4", "--phases",
         "0.2,0.4,0.6", "--out", str(out))
    counts = tmp_path / "counts.json"
    code, stdout, _ = _run(capsys, "measure", "--state", f"{out}.mpo.json",
                           "--r", "3", "--shots", "400", "--seed", "7",
                           "--out", str(counts))
    assert code == 0
    assert json.loads(stdout)["kind"] == "counts"
    data = tmp_path / "data.json"
    code, _, _ = _run(capsys, "ingest-counts", "--counts", str(counts),
                      "--out", str(data))
    assert code == 0
    assert load_block_data(data).noise.kind == "fisher"
    est = tmp_path / "est.json"
    code, stdout, _ = _run(capsys, "reconstruct", "--data", str(data),
                           "--out", str(est))
    assert code == 0
    assert json.loads(stdout)["solver_mode"] == "fisher"


def test_measure_reads_the_dense_and_the_mpo_file_alike(tmp_path, capsys):
    out = tmp_path / "s"
    _run(capsys, "gen-state", "--family", "random-mpo", "--n", "5",
         "--seed", "8", "--out", str(out))
    windows = {}
    for form in ("dense", "mpo"):
        data = tmp_path / f"{form}.windows.json"
        code, _, _ = _run(capsys, "measure", "--state", f"{out}.{form}.json",
                          "--r", "3", "--out", str(data))
        assert code == 0
        windows[form] = load_block_data(data).blocks
    assert np.max(np.abs(windows["dense"] - windows["mpo"])) < 1e-12
    counts, fitted = tmp_path / "counts.json", tmp_path / "fitted.json"
    code, _, _ = _run(capsys, "measure", "--state", f"{out}.dense.json",
                      "--r", "3", "--shots", "200", "--seed", "9",
                      "--out", str(counts))
    assert code == 0
    code, _, _ = _run(capsys, "ingest-counts", "--counts", str(counts),
                      "--out", str(fitted))
    assert code == 0
    data = load_block_data(fitted)
    assert data.noise.kind == "fisher" and data.n_blocks == 3


@pytest.mark.parametrize("kind, measure", [
    (None, ()),
    ("scalar", ("--sigma", "0.01", "--seed", "2")),
    ("fisher", ("--shots", "400", "--seed", "7")),
], ids=["exact", "scalar", "fisher"])
def test_reconstruct_picks_the_solver_from_the_noise_kind(tmp_path, capsys,
                                                          kind, measure):
    out = tmp_path / "w"
    _run(capsys, "gen-state", "--family", "w", "--n", "4", "--phases",
         "0.2,0.4,0.6", "--out", str(out))
    data = tmp_path / "data.json"
    _run(capsys, "measure", "--state", f"{out}.mpo.json", "--r", "3",
         *measure, "--out", str(data))
    if kind == "fisher":
        counts = tmp_path / "counts.json"
        data.rename(counts)
        _run(capsys, "ingest-counts", "--counts", str(counts), "--out",
             str(data))
    noise = load_block_data(data).noise
    assert (noise.kind if noise else None) == kind
    code, stdout, _ = _run(capsys, "reconstruct", "--data", str(data),
                           "--out", str(tmp_path / "est.json"))
    assert code == 0
    assert json.loads(stdout)["solver_mode"] == NOISE_MODES[kind]


def test_reconstruct_has_no_tau_option(tmp_path, capsys):
    # the truncation threshold is the constant PINV_RTOL
    with pytest.raises(SystemExit) as exc:
        main(["reconstruct", "--data", str(tmp_path / "d.json"), "--tau",
              "1e-10", "--out", str(tmp_path / "e.json")])
    assert exc.value.code != 0
    assert "--tau" in capsys.readouterr().err


@pytest.mark.parametrize("option", [("--solver", "tikhonov"),
                                    ("--sigma2", "0.5")], ids=lambda o: o[0])
def test_reconstruct_has_no_solver_overrides(tmp_path, capsys, option):
    # the data's noise kind picks the solver (NOISE_MODES) and its sigma
    # the Tikhonov parameter
    with pytest.raises(SystemExit) as exc:
        main(["reconstruct", "--data", str(tmp_path / "d.json"), *option,
              "--out", str(tmp_path / "e.json")])
    assert exc.value.code == 2
    assert option[0] in capsys.readouterr().err


def test_zero_sigma_windows_reconstruct_exactly(tmp_path, capsys):
    # scalar noise of sigma 0 selects tikhonov with sigma2 = 0, which the
    # PINV_RTOL cut turns into the truncated solve, not 1 / 1e-17
    out = tmp_path / "s"
    _run(capsys, "gen-state", "--family", "w", "--n", "8", "--out", str(out))
    ref = load_operator(f"{out}.mpo.json")
    data = tmp_path / "d.json"
    save_block_data(add_gaussian_noise(exact_block_data(ref, 5), 0.0), data)
    est = tmp_path / "e.json"
    code, stdout, _ = _run(capsys, "reconstruct", "--data", str(data),
                           "--out", str(est))
    assert code == 0
    assert json.loads(stdout)["solver_mode"] == "tikhonov"
    assert abs(hs_distance(ref, load_operator(est))) <= 1e-12


@pytest.mark.parametrize("family, flag, value, name", [
    ("random-mpo", "--t-hnorm", "nan", "t_hnorm"),
    ("random-mpo", "--t-hnorm", "inf", "t_hnorm"),
    ("critical-ising", "--beta", "nan", "beta"),
    ("critical-ising", "--beta", "inf", "beta"),
])
def test_gen_state_rejects_non_finite_parameters(tmp_path, capsys, family,
                                                 flag, value, name):
    seed = ("--seed", "1") if family == "random-mpo" else ()
    code, stdout, stderr = _run(capsys, "gen-state", "--family", family,
                                "--n", "4", *seed, flag, value, "--out",
                                str(tmp_path / "s"))
    assert code == 1 and stdout == ""
    record = json.loads(stderr)
    assert record["error"] == "ValueError"
    assert record["message"].startswith(f"{name} must be finite")
    assert not list(tmp_path.iterdir())


def test_counts_without_some_settings_use_the_scalar_fallback(tmp_path,
                                                              capsys):
    # no window measures x on its first site: those settings count as not
    # measured, the Fisher information is singular, and every site gets
    # the scalar penalty
    out = tmp_path / "w"
    _run(capsys, "gen-state", "--family", "w", "--n", "5", "--out", str(out))
    counts = tmp_path / "counts.json"
    _run(capsys, "measure", "--state", f"{out}.mpo.json", "--r", "3",
         "--shots", "200", "--seed", "3", "--out", str(counts))
    payload = json.loads(counts.read_text())
    for block in payload["blocks"]:
        block["settings"] = [e for e in block["settings"] if e["s"][0] != "x"]
        assert len(block["settings"]) == 18
    counts.write_text(json.dumps(payload))
    data, est, report = (tmp_path / name for name in
                         ("data.json", "est.json", "report.json"))
    code, _, _ = _run(capsys, "ingest-counts", "--counts", str(counts),
                      "--out", str(data))
    assert code == 0
    measured = [200 * (s[0] != "x") for s in all_settings(3)]
    assert json.loads(data.read_text())["noise"]["shots"] == [measured] * 3
    # a setting listed with no shots loads as the same zero row, and
    # save_counts leaves it out again
    blocks, _ = load_counts(counts)
    for block in payload["blocks"]:
        block["settings"].insert(0, {"s": "xxx", "shots": 0, "counts": {}})
    zero_listed = tmp_path / "zero_listed.json"
    zero_listed.write_text(json.dumps(payload))
    again, _ = load_counts(zero_listed)
    for x, y in zip(again, blocks):
        assert np.array_equal(x.counts, y.counts)
    resaved = tmp_path / "resaved.json"
    save_counts(again, 5, resaved)
    assert resaved.read_text() == json.dumps(
        json.loads(counts.read_text())) + "\n"
    code, _, _ = _run(capsys, "reconstruct", "--data", str(data), "--out",
                      str(est), "--report", str(report))
    assert code == 0
    sites = json.loads(report.read_text())["sites"]
    assert [site["k"] for site in sites] == [2, 3, 4]
    assert all("fisher_singular_scalar" in site["flags"] for site in sites)
    assert all(np.all(np.isfinite(t)) for t in load_operator(est).tensors)


@pytest.mark.parametrize("option", [("--max-iter", "0"), ("--tol", "nan")],
                         ids=lambda o: o[0])
def test_ingest_counts_rejects_bad_iteration_settings(tmp_path, capsys,
                                                      option):
    out = tmp_path / "w"
    _run(capsys, "gen-state", "--family", "w", "--n", "4", "--out", str(out))
    counts = tmp_path / "counts.json"
    _run(capsys, "measure", "--state", f"{out}.mpo.json", "--r", "3",
         "--shots", "50", "--seed", "1", "--out", str(counts))
    data = tmp_path / "data.json"
    code, stdout, stderr = _run(capsys, "ingest-counts", "--counts",
                                str(counts), *option, "--out", str(data))
    assert code == 1 and stdout == ""
    assert json.loads(stderr)["error"] == "ValueError"
    assert not data.exists()


def test_reconstruct_prints_the_mode_it_used(tmp_path, capsys):
    # one window (N = R) is its own factorization: no regularized solve
    out = tmp_path / "w"
    _run(capsys, "gen-state", "--family", "w", "--n", "4", "--out", str(out))
    data = tmp_path / "data.json"
    _run(capsys, "measure", "--state", f"{out}.mpo.json", "--r", "4",
         "--sigma", "0.01", "--seed", "2", "--out", str(data))
    rep = tmp_path / "rep.json"
    code, stdout, _ = _run(capsys, "reconstruct", "--data", str(data),
                           "--out", str(tmp_path / "est.json"),
                           "--report", str(rep))
    assert code == 0
    assert json.loads(stdout)["solver_mode"] == "direct"
    assert json.loads(rep.read_text())["mode"] == "direct"


def test_reconstruct_rejects_windows_of_another_local_dimension(tmp_path,
                                                                capsys):
    # shaped as d = 3 windows would be (9^3 coefficients), so that only the
    # header check can reject the file
    blocks = np.random.default_rng(0).normal(size=(3, 9**3))
    blocks[:, 0] = 1.0
    data = tmp_path / "d3.json"
    data.write_text(json.dumps({"version": 1, "N": 5, "R": 3, "d": 3,
                                "blocks": blocks.tolist(), "noise": None}))
    est = tmp_path / "est.json"
    code, stdout, stderr = _run(capsys, "reconstruct", "--data", str(data),
                                "--out", str(est))
    assert code == 1 and stdout == ""
    record = json.loads(stderr)
    assert record["error"] == "ValueError"
    assert "local dimension d = 3" in record["message"]
    assert not est.exists()


def test_compare_command(tmp_path, capsys):
    out = tmp_path / "w"
    _run(capsys, "gen-state", "--family", "w", "--n", "4", "--out", str(out))
    report = tmp_path / "cmp.json"
    code, stdout, _ = _run(capsys, "compare", "--ref", f"{out}.dense.json",
                           "--est", f"{out}.mpo.json", "--w-fidelity",
                           "--out", str(report))
    assert code == 0
    payload = json.loads(stdout)
    assert payload["hs_distance"] < 1e-10
    assert abs(payload["w_fidelity"] - 1.0) < 1e-8
    assert json.loads(report.read_text()) == payload


def test_check_invertibility_dense_and_spans(tmp_path, capsys):
    out = tmp_path / "g"
    _run(capsys, "gen-state", "--family", "ghz", "--n", "6", "--out",
         str(out))
    code, stdout, _ = _run(capsys, "check-invertibility", "--state",
                           f"{out}.dense.json", "--l", "1", "--r", "1")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["check"] == "dense_ranks"
    assert payload["is_invertible"] is False
    anc = tmp_path / "a"
    _run(capsys, "gen-state", "--family", "random-mpo", "--n", "6",
         "--seed", "8", "--out", str(anc))
    code, stdout, _ = _run(capsys, "check-invertibility", "--state",
                           f"{anc}.mpo.json", "--l", "2", "--r", "2")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["check"] == "tensor_spans"
    assert payload["sufficient"] is True


def test_sweep_command(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "family": "random_mpo", "n_list": [5], "width_list": [3],
        "sigma_list": [0.01], "trials": 2, "master_seed": 9,
    }))
    out, summary = tmp_path / "t.csv", tmp_path / "s.csv"
    code, stdout, _ = _run(capsys, "sweep", "--config", str(cfg), "--out",
                           str(out), "--summary", str(summary))
    assert code == 0
    assert json.loads(stdout)["n_ok"] == 2
    assert out.read_text().count("\n") == 3  # header + 2 trials
    assert summary.read_text().splitlines()[0].startswith("family,N,R")


def test_errors_are_json_records(tmp_path, capsys):
    code, stdout, stderr = _run(capsys, "reconstruct", "--data",
                                str(tmp_path / "missing.json"), "--out",
                                str(tmp_path / "x.json"))
    assert code == 1
    assert stdout == ""
    record = json.loads(stderr)
    assert record["error"] == "FileNotFoundError"


@pytest.mark.parametrize("width", ["0", "5"])
def test_measure_counts_rejects_widths_outside_the_chain(tmp_path, capsys,
                                                         width):
    out = tmp_path / "w"
    _run(capsys, "gen-state", "--family", "w", "--n", "4", "--out", str(out))
    counts = tmp_path / "counts.json"
    code, stdout, stderr = _run(capsys, "measure", "--state",
                                f"{out}.mpo.json", "--r", width, "--shots",
                                "10", "--out", str(counts))
    assert code == 1 and stdout == ""
    record = json.loads(stderr)
    assert record["error"] == "ValueError"
    assert record["message"] == "need 1 <= width <= n_sites"
    assert not counts.exists()


@pytest.mark.parametrize("option", [
    ("--sigma", "0.1"),
    ("--keep-identity-exact",),
], ids=lambda x: x[0])
def test_measure_counts_rejects_gaussian_noise_options(tmp_path, capsys,
                                                       option):
    out = tmp_path / "w"
    _run(capsys, "gen-state", "--family", "w", "--n", "4", "--out", str(out))
    counts = tmp_path / "counts.json"
    code, stdout, stderr = _run(capsys, "measure", "--state",
                                f"{out}.mpo.json", "--r", "3", "--shots",
                                "50", *option, "--out", str(counts))
    assert code == 1 and stdout == ""
    assert json.loads(stderr) == {
        "error": "ValueError",
        "message": f"{option[0]} does not apply with --shots"}
    assert not counts.exists()


@pytest.mark.parametrize("option", [
    ("--seed", "5"),
    ("--keep-identity-exact",),
], ids=lambda x: x[0])
def test_measure_exact_rejects_noise_options(tmp_path, capsys, option):
    # no --sigma and no --shots: exact window data, which draw nothing
    out = tmp_path / "w"
    _run(capsys, "gen-state", "--family", "w", "--n", "4", "--out", str(out))
    data = tmp_path / "data.json"
    code, stdout, stderr = _run(capsys, "measure", "--state",
                                f"{out}.mpo.json", "--r", "3", *option,
                                "--out", str(data))
    assert code == 1 and stdout == ""
    assert json.loads(stderr) == {
        "error": "ValueError",
        "message": f"{option[0]} does not apply to exact window data "
                   "(no --sigma or --shots)"}
    assert not data.exists()


def test_ingest_counts_rejects_a_huge_chain_by_name(tmp_path, capsys):
    # one window of a chain of 2^62 sites: a named error, not MemoryError
    path = tmp_path / "counts.json"
    save_counts(simulate_counts(w_state(4)[1], 3, 10, seed=1)[:1], 2**62,
                path)
    out = tmp_path / "data.json"
    code, stdout, stderr = _run(capsys, "ingest-counts", "--counts",
                                str(path), "--out", str(out))
    assert code == 1 and stdout == ""
    assert json.loads(stderr) == {
        "error": "ValueError",
        "message": "blocks must cover every window exactly once"}
    assert not out.exists()


def _artifacts(tmp_path, capsys):
    """An MPO file, a window data file and a counts file, as the CLI
    writes them."""
    out = tmp_path / "w"
    _run(capsys, "gen-state", "--family", "w", "--n", "4", "--out", str(out))
    paths = {"operator": tmp_path / "w.mpo.json",
             "block_data": tmp_path / "data.json",
             "counts": tmp_path / "counts.json"}
    _run(capsys, "measure", "--state", str(paths["operator"]), "--r", "3",
         "--out", str(paths["block_data"]))
    _run(capsys, "measure", "--state", str(paths["operator"]), "--r", "3",
         "--shots", "10", "--seed", "1", "--out", str(paths["counts"]))
    return paths


# one command per artifact reader; it reads the file named first
_READERS = {
    "operator": lambda p, o: ("compare", "--ref", p, "--est", p, "--out", o),
    "block_data": lambda p, o: ("reconstruct", "--data", p, "--out", o),
    "counts": lambda p, o: ("ingest-counts", "--counts", p, "--out", o),
}


def _expect_value_error(tmp_path, capsys, reader, path, message):
    out = tmp_path / "out.json"
    code, stdout, stderr = _run(capsys, *_READERS[reader](str(path),
                                                          str(out)))
    assert code == 1 and stdout == ""
    record = json.loads(stderr)
    assert record["error"] == "ValueError"
    assert record["message"] == f"{path}: {message}"
    assert not out.exists()


@pytest.mark.parametrize("reader, key", [
    ("operator", "kind"), ("operator", "n_sites"), ("operator", "bond_dims"),
    ("operator", "tensors"), ("block_data", "N"), ("block_data", "R"),
    ("block_data", "blocks"), ("counts", "N"), ("counts", "R"),
    ("counts", "blocks"),
])
def test_a_file_missing_a_field_is_a_named_error(tmp_path, capsys, reader,
                                                 key):
    path = _artifacts(tmp_path, capsys)[reader]
    payload = json.loads(path.read_text())
    del payload[key]
    path.write_text(json.dumps(payload))
    _expect_value_error(tmp_path, capsys, reader, path,
                        f"missing field {key!r}")


@pytest.mark.parametrize("reader", sorted(_READERS))
def test_a_file_that_is_not_an_object_is_a_named_error(tmp_path, capsys,
                                                       reader):
    path = _artifacts(tmp_path, capsys)[reader]
    path.write_text(json.dumps([json.loads(path.read_text())]))
    _expect_value_error(tmp_path, capsys, reader, path,
                        "top level must be a JSON object, not list")


@pytest.mark.parametrize("key, value, message", [
    ("n_list", 4, "n_list must be a list, not int"),
    ("trials", "2", "trials must be an integer, not str"),
])
def test_sweep_names_a_wrongly_typed_field(tmp_path, capsys, key, value,
                                           message):
    raw = {"family": "random_mpo", "n_list": [5], "width_list": [3],
           "sigma_list": [0.01], "trials": 2}
    raw[key] = value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "t.csv"
    code, stdout, stderr = _run(capsys, "sweep", "--config", str(cfg),
                                "--out", str(out))
    assert code == 1 and stdout == ""
    record = json.loads(stderr)
    assert record == {"error": "ValueError", "message": message}
    assert not out.exists()


def test_ingest_counts_names_blocks_that_are_not_objects(tmp_path, capsys):
    path = _artifacts(tmp_path, capsys)["counts"]
    payload = json.loads(path.read_text())
    payload["blocks"] = [1, 2]
    path.write_text(json.dumps(payload))
    _expect_value_error(tmp_path, capsys, "counts", path,
                        "blocks[0] must be a JSON object, not int")
