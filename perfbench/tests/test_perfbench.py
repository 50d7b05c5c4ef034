"""Checks on the benchmark itself.

Run from the repository root:

    python3 -m pytest perfbench/tests

The repeatability tests run every workload's traced run twice, about six
minutes in all.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from mpotomo.measurement import (add_gaussian_noise,  # noqa: E402
                                 exact_block_data, simulate_counts)
from mpotomo.metrics import compare_states  # noqa: E402
from mpotomo.reconstruction import reconstruct_mpo  # noqa: E402
from mpotomo.states import random_mpo_via_ancilla, w_state  # noqa: E402
from tracing import library  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Figures that must repeat exactly for a seed: from the report line, and
# from the per-layer metrics of the traced run.
REPEATED = ("hs_distance.p50", "w_fidelity.p50", "artifact_mb")
REPEATED_LAYER = ("measurement.local_mle.iters",
                  "reconstruction.flagged_sites")


def _run(cwd, workload, seed, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_same_seed_repeats_exactly(workload):
    figures = []
    for _ in range(2):
        proc = _run(ROOT, workload, 7, 1)
        assert proc.returncode == 0, proc.stderr
        report, result = map(json.loads, proc.stdout.splitlines()[-2:])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"]
                                          for m in SPEC["per_layer"]}
        assert set(report["end_to_end"]) >= {m["name"]
                                             for m in SPEC["end_to_end"]}
        figures.append(
            [report["end_to_end"][k] for k in REPEATED]
            + [result["metrics"][k]["value"] for k in REPEATED_LAYER])
    assert figures[0] == figures[1]


def test_seed_changes_counts_inputs():
    _, state = w_state(workloads.COUNTS_N, phases=workloads.w_phases())
    a, b = (simulate_counts(state, workloads.COUNTS_R, workloads.COUNTS_SHOTS,
                            seed=workloads.count_seed(seed, 0))
            for seed in (0, 1))
    assert any(not np.array_equal(a[0].counts[s], b[0].counts[s])
               for s in a[0].counts)


@pytest.mark.xfail(strict=True, reason=(
    "random_mps contracts the norm without rescaling, so from about "
    "N = 400 the windows of random_mpo_via_ancilla are non-finite and the "
    "solve's SVD fails; chain-gaussian stays at N = 256 until that is fixed"))
def test_chain_round_trip_at_512_sites():
    ref = random_mpo_via_ancilla(512, seed=(0, 0, 0))
    exact = exact_block_data(ref, workloads.CHAIN_R)
    assert np.isfinite(exact.blocks).all()
    noisy = add_gaussian_noise(exact, workloads.CHAIN_SIGMA, seed=0)
    l, r = workloads.CHAIN_SPLIT
    cfg = workloads._tikhonov(library(), workloads.CHAIN_SIGMA, l, r)
    assert np.isfinite(compare_states(ref, reconstruct_mpo(noisy, cfg))
                       .hs_distance)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__",
                                                  "tests"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 0, 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
