import csv
import json

import numpy as np
import pytest

from mpotomo.reconstruction import NOISE_MODES
from mpotomo.sweep import (SweepConfig, run_sweep, run_trial,
                           sweep_config_from_json)


def _cfg(**kw):
    base = dict(family="random_mpo", n_list=[5], width_list=[3],
                sigma_list=[0.0], trials=2, master_seed=1)
    base.update(kw)
    return SweepConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        _cfg(family="bogus")
    with pytest.raises(ValueError):
        _cfg(trials=0)
    for sigma in (-1e-3, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="sigma_list"):
            _cfg(sigma_list=[0.0, sigma])


@pytest.mark.parametrize("key, value, match", [
    ("n_list", 4, "n_list must be a list, not int"),
    ("width_list", "3", "width_list must be a list, not str"),
    ("sigma_list", 0.0, "sigma_list must be a list, not float"),
    ("n_list", ["5"], "n_list entries must be an integer, not str"),
    ("width_list", [3.0], "width_list entries must be an integer, not float"),
    ("sigma_list", ["0.01"],
     "sigma_list entries must be a real number, not str"),
    ("trials", "2", "trials must be an integer, not str"),
    ("trials", 2.0, "trials must be an integer, not float"),
    ("trials", True, "trials must be an integer, not bool"),
    ("beta", "5", "beta must be a real number, not str"),
    ("beta", True, "beta must be a real number, not bool"),
    ("beta", float("nan"), "beta must be finite and nonnegative, not nan"),
    ("beta", -1.0, "beta must be finite and nonnegative, not -1.0"),
    ("t_hnorm", "0.1", "t_hnorm must be a real number, not str"),
    ("t_hnorm", float("inf"), "t_hnorm must be finite, not inf"),
    ("master_seed", 1.5, "master_seed must be an integer, not float"),
    ("master_seed", True, "master_seed must be an integer, not bool"),
    ("master_seed", -1, "master_seed must be nonnegative, not -1"),
    ("family", ["w"], r"unknown family \['w'\]"),
    ("n_list", [5, True], "n_list entries must be an integer, not bool"),
    ("sigma_list", [False],
     "sigma_list entries must be a real number, not bool"),
])
def test_config_rejects_wrongly_typed_fields(key, value, match):
    with pytest.raises(ValueError, match=match):
        _cfg(**{key: value})


def test_config_from_json_with_width_alias(tmp_path):
    # width_list is the only name for the window widths: r_list is rejected
    raw = {"family": "ghz", "n_list": [4], "width_list": [3],
           "sigma_list": [0.0], "trials": 1}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    cfg = sweep_config_from_json(path)
    assert cfg.width_list == [3]
    assert cfg.family == "ghz"
    raw["r_list"] = raw.pop("width_list")
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match="unknown field 'r_list'"):
        sweep_config_from_json(path)


@pytest.mark.parametrize("key, value", [("solver", "tikhonov"),
                                        ("tau", 1e-10)])
def test_config_from_json_rejects_solver_settings(tmp_path, key, value):
    # the solver follows the data's noise (NOISE_MODES), not the config
    raw = {"family": "ghz", "n_list": [4], "width_list": [3],
           "sigma_list": [0.0], key: value}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match=f"unknown field '{key}'"):
        sweep_config_from_json(path)


@pytest.mark.parametrize("key", ["family", "n_list", "width_list",
                                 "sigma_list"])
def test_config_from_json_names_a_missing_key(tmp_path, key):
    raw = {"family": "ghz", "n_list": [4], "width_list": [3],
           "sigma_list": [0.0]}
    del raw[key]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match=f"cfg.json: missing field '{key}'"):
        sweep_config_from_json(path)


def test_config_from_json_rejects_a_list(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps([{"family": "ghz"}]))
    with pytest.raises(ValueError, match="top level must be a JSON object"):
        sweep_config_from_json(path)


def test_rerun_is_byte_identical(tmp_path):
    cfg = _cfg(sigma_list=[0.0, 1e-2])
    a, asum = tmp_path / "a.csv", tmp_path / "as.csv"
    b, bsum = tmp_path / "b.csv", tmp_path / "bs.csv"
    run_sweep(cfg, out_csv=a, summary_csv=asum)
    run_sweep(cfg, out_csv=b, summary_csv=bsum)
    assert a.read_bytes() == b.read_bytes()
    assert asum.read_bytes() == bsum.read_bytes()


def test_master_seed_changes_random_trials(tmp_path):
    r1, _ = run_sweep(_cfg(master_seed=1))
    r2, _ = run_sweep(_cfg(master_seed=2))
    assert r1[0]["D"] != r2[0]["D"]


def test_zero_sigma_uses_plain_solver(tmp_path):
    out = tmp_path / "t.csv"
    rows, _ = run_sweep(_cfg(sigma_list=[0.0, 1e-2], trials=1), out_csv=out)
    by_sigma = {row["sigma"]: row for row in rows}
    assert by_sigma[0.0]["solver_mode"] == "truncated_pinv"
    assert by_sigma[1e-2]["solver_mode"] == "tikhonov"
    assert by_sigma[0.0]["D"] < 1e-10
    # the solver_mode column is the data's noise kind looked up in the
    # table reconstruct_mpo applies
    with open(out, newline="") as fh:
        modes = [row["solver_mode"] for row in csv.DictReader(fh)]
    assert modes == [NOISE_MODES[None], NOISE_MODES["scalar"]]


def test_single_window_cells_report_direct():
    # N = width: the estimate is the window's own factorization, no solve
    rows, _ = run_sweep(_cfg(width_list=[5], sigma_list=[0.0, 1e-2],
                             trials=1))
    assert [row["solver_mode"] for row in rows] == ["direct", "direct"]
    assert [row["status"] for row in rows] == ["ok", "ok"]


def test_failed_cells_are_recorded_not_raised(tmp_path):
    # width exceeding the chain cannot produce data; the row records the
    # error and the summary counts zero successes
    rows, summaries = run_sweep(_cfg(width_list=[7], trials=1))
    assert len(rows) == 1
    assert rows[0]["status"] != "ok"
    assert np.isnan(rows[0]["D"])
    assert summaries[0]["n_ok"] == 0
    assert np.isnan(summaries[0]["mean_D"])


def test_summary_statistics():
    rows, summaries = run_sweep(_cfg(sigma_list=[1e-2], trials=3))
    s = summaries[0]
    ds = [row["D"] for row in rows]
    assert s["n_trials"] == 3 and s["n_ok"] == 3
    assert s["mean_D"] == pytest.approx(np.mean(ds))
    assert s["std_D"] == pytest.approx(np.std(ds, ddof=1))


def test_deterministic_family_repeats_reference():
    rows, _ = run_sweep(_cfg(family="ghz", n_list=[4], sigma_list=[1e-3],
                             trials=2))
    # same underlying state, different noise draws
    assert rows[0]["purity_ref"] == rows[1]["purity_ref"]
    assert rows[0]["D"] != rows[1]["D"]


def test_timing_sidecar_separated_from_results(tmp_path):
    cfg = _cfg(trials=1)
    out, timing = tmp_path / "t.csv", tmp_path / "wall.csv"
    run_sweep(cfg, out_csv=out, timing_csv=timing)
    head = out.read_text().splitlines()[0]
    assert "wall" not in head
    thead = timing.read_text().splitlines()[0]
    assert "wall_ms" in thead


def test_single_trial_interface():
    cfg = _cfg()
    ss = np.random.SeedSequence([1, 0, 0])
    row = run_trial(cfg, 5, 3, 0.0, ss)
    assert row["status"] == "ok"
    assert row["D"] < 1e-10
    again = run_trial(cfg, 5, 3, 0.0, np.random.SeedSequence([1, 0, 0]))
    assert row["D"] == again["D"]
