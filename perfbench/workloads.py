"""The three benchmark workloads.

Each workload is a closed loop with a single caller: set-up, then jobs back
to back, the next starting when the previous one returns. A job is the full
round trip state -> windows or counts -> window fit -> recursion -> MPO ->
score. Inputs derive only from the benchmark seed.

A workload supplies four functions, all taking the library namespace built
by tracing.library:

  setup(lib, seed, workdir) -> ctx       reference states, warm-up, gates
  job(lib, ctx, j) -> JobResult          the timed round trip
  check(plain, ctx, res)                 raises CheckFailed; never traced
  probe(lib, plain, tracer, ctx, results) -> {metric: value}
                                         traced run only, outside job spans

`ctx["gates"]` lists one-off correctness checks made during set-up as
(name, value, ok); each counts as one attempted operation.
"""

from __future__ import annotations

import io
import json
import math
import os
import statistics
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


class CheckFailed(Exception):
    """A job's output failed its correctness check."""


@dataclass
class JobResult:
    sites: int
    hs_distance: float
    w_fidelity: float | None = None
    artifact_bytes: int = 0
    report: dict | None = None
    inputs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    setup: Callable
    job: Callable
    check: Callable
    probe: Callable
    # Jobs per round; a run ends only on a round boundary.
    round_jobs: int
    # Quality and count metrics come from jobs 0 .. quality_jobs - 1, which
    # every run completes, so that they repeat exactly for a seed.
    quality_jobs: int


PROBE_REPEATS = 5


def _finite(*values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


def _check_distance(d, ceiling) -> None:
    if not _finite(d) or d > ceiling:
        raise CheckFailed(f"hs_distance {d!r} is not finite and <= {ceiling}")


def _check_w_score(d, f) -> None:
    _check_distance(d, COUNTS_D_MAX)
    if not _finite(f) or not COUNTS_F_MIN <= f <= 1.0 + 1e-9:
        raise CheckFailed(f"w_fidelity {f!r} is not in [{COUNTS_F_MIN}, 1]")


def _report_counts(results) -> dict:
    sites = [s for r in results for s in r.report["sites"]]
    return {"reconstruction.sites": len(sites),
            "reconstruction.flagged_sites": sum(1 for s in sites
                                                if s["flags"])}


# ---- chain-gaussian: a long chain, Gaussian noise, no counts or files ----

CHAIN_N, CHAIN_R, CHAIN_SPLIT = 256, 5, (2, 2)
CHAIN_SIGMA = 1e-3
# Noise-free D varies from state to state; the first jobs cover the pool
# twice, so that hs_distance.p50 varies little between seeds.
CHAIN_POOL = 8
# Acceptance criterion 1: exact windows give the state back.
EXACT_GATE = 1e-8
# Sanity ceiling on a noisy job's D; the measured median is about 1.6e-3.
CHAIN_D_MAX = 1e-2
# ROADMAP item 1's scaling grid.
GRID_N, GRID_R, GRID_REPEATS = (64, 256), (3, 5, 7), 3


def _tikhonov(lib, sigma, l, r):
    rec = lib.reconstruction
    sigma2 = rec.noise_tikhonov_sigma2(sigma, l, r)
    return rec.ReconstructionConfig(l=l, r=r, regularizer=rec.RegularizerSpec(
        "tikhonov", sigma2=sigma2))


def chain_setup(lib, seed, workdir):
    rec = lib.reconstruction
    pool = [lib.states.random_mpo_via_ancilla(CHAIN_N, seed=(seed, 0, i))
            for i in range(CHAIN_POOL)]
    l, r = CHAIN_SPLIT
    # The sigma = 0 gate doubles as the warm-up.
    exact = lib.measurement.exact_block_data(pool[0], CHAIN_R)
    est = rec.reconstruct_mpo(exact, rec.ReconstructionConfig(
        l=l, r=r, regularizer=rec.RegularizerSpec("truncated_pinv")))
    gate = lib.metrics.compare_states(pool[0], est).hs_distance
    return {"seed": seed, "pool": pool,
            "cfg": _tikhonov(lib, CHAIN_SIGMA, l, r),
            "gates": [("exact_sigma0_hs_distance", gate,
                       abs(gate) <= EXACT_GATE)]}


def chain_job(lib, ctx, j):
    ref = ctx["pool"][j % CHAIN_POOL]
    exact = lib.measurement.exact_block_data(ref, CHAIN_R)
    noisy = lib.measurement.add_gaussian_noise(exact, CHAIN_SIGMA,
                                               seed=(ctx["seed"], 1, j))
    est, report = lib.reconstruction.reconstruct_mpo(noisy, ctx["cfg"],
                                                     with_report=True)
    score = lib.metrics.compare_states(ref, est)
    return JobResult(CHAIN_N, score.hs_distance, report=report.to_dict(),
                     inputs={"ref": ref, "est": est})


def chain_check(plain, ctx, res):
    _check_distance(res.hs_distance, CHAIN_D_MAX)


def chain_probe(lib, plain, tracer, ctx, results):
    ref, est = results[0].inputs["ref"], results[0].inputs["est"]
    for _ in range(PROBE_REPEATS):
        lib.operators.window_coeffs(ref, CHAIN_N // 2 - CHAIN_R // 2, CHAIN_R)
        lib.operators.mpo_overlap(ref, est)
    for n in GRID_N:
        if n == CHAIN_N:
            state = ref
        else:
            with tracer.span("probe.inputs"):
                state = plain.states.random_mpo_via_ancilla(
                    n, seed=(ctx["seed"], 2, n))
        for width in GRID_R:
            l, r = plain.reconstruction.default_split(width)
            cfg = _tikhonov(plain, CHAIN_SIGMA, l, r)
            tag = f"N{n}-R{width}"
            for _ in range(GRID_REPEATS):
                with tracer.span(f"measurement.exact_block_data.{tag}"):
                    exact = plain.measurement.exact_block_data(state, width)
                with tracer.span("probe.inputs"):
                    noisy = plain.measurement.add_gaussian_noise(
                        exact, CHAIN_SIGMA, seed=(ctx["seed"], 3, n, width))
                with tracer.span(f"reconstruction.reconstruct_mpo.{tag}"):
                    plain.reconstruction.reconstruct_mpo(noisy, cfg)
    small, big = (statistics.median(tracer.durations(
        f"measurement.exact_block_data.N{n}-R{CHAIN_R}")) for n in GRID_N)
    slope = math.log(big / small) / math.log(GRID_N[1] / GRID_N[0])
    return {"measurement.exact_block_data.n_exponent": slope,
            **_report_counts(results)}


# ---- counts-fisher: counts, local likelihood fits, Fisher penalties ----

COUNTS_N, COUNTS_R, COUNTS_SHOTS = 8, 5, 100
# Branch phases of acceptance criterion 7's first trial.
W_PHASES_SEED = (20260822, 0)
# Per-job cost varies about threefold with the counts, through the number
# of likelihood-ascent iterations. A run covers this whole list once per
# round, so job times compare across seeds; the seed sets where in the
# list each run starts.
COUNT_SEEDS = (0, 1, 2, 3)
COUNTS_D_MAX, COUNTS_F_MIN = 0.2, 0.5
PAULI_REPEATS = 200


def w_phases() -> list[float]:
    rng = np.random.default_rng(W_PHASES_SEED)
    return rng.uniform(0.0, 2.0 * np.pi, COUNTS_N - 1).tolist()


def count_seed(seed: int, j: int) -> int:
    return COUNT_SEEDS[(seed + j) % len(COUNT_SEEDS)]


def _fisher(lib):
    rec = lib.reconstruction
    return rec.ReconstructionConfig(regularizer=rec.RegularizerSpec("fisher"))


def _counts_round_trip(lib, state, width, cseed):
    blocks = lib.measurement.simulate_counts(state, width, COUNTS_SHOTS,
                                             seed=cseed)
    data = lib.measurement.block_data_from_counts(blocks, COUNTS_N)
    est, report = lib.reconstruction.reconstruct_mpo(data, _fisher(lib),
                                                     with_report=True)
    score = lib.metrics.compare_states(state, est, w_fidelity=True)
    return JobResult(COUNTS_N, score.hs_distance, score.w_fidelity,
                     report=report.to_dict(),
                     inputs={"blocks": blocks, "est": est})


def counts_setup(lib, seed, workdir):
    _, state = lib.states.w_state(COUNTS_N, phases=w_phases())
    # Warm-up: the same round trip at width 3, about a second.
    _counts_round_trip(lib, state, 3, COUNT_SEEDS[0])
    return {"seed": seed, "state": state, "gates": []}


def counts_job(lib, ctx, j):
    return _counts_round_trip(lib, ctx["state"], COUNTS_R,
                              count_seed(ctx["seed"], j))


def counts_check(plain, ctx, res):
    _check_w_score(res.hs_distance, res.w_fidelity)


def counts_probe(lib, plain, tracer, ctx, results):
    fits = [(block, lib.measurement.local_mle(block))
            for block in results[0].inputs["blocks"]]
    iters = sum(fit.n_iter for _, fit in fits)
    for block, fit in fits:
        lib.measurement.fisher_information(block, fit.rho)
    rho = fits[0][1].rho
    theta = plain.pauli.coeffs_from_dense(rho)
    for _ in range(PAULI_REPEATS):
        lib.pauli.coeffs_from_dense(rho)
        lib.pauli.dense_from_coeffs(theta)
    est = results[0].inputs["est"]
    for _ in range(PROBE_REPEATS):
        lib.metrics.fidelity_w_optimized(est)
        lib.operators.mpo_overlap(ctx["state"], est)
    mle_s = sum(tracer.durations("measurement.local_mle"))
    return {"measurement.local_mle.iters": iters,
            "measurement.local_mle.windows": len(fits),
            "measurement.local_mle.ms_per_iter": 1e3 * mle_s / iters,
            "measurement.local_mle.unconverged_ratio":
                sum(not fit.converged for _, fit in fits) / len(fits),
            **_report_counts(results)}


# ---- cli-roundtrip: the same pipelines through mpotomo.cli.main ----

CLI_N, CLI_R, CLI_SIGMA = 64, 5, 1e-3
CLI_COUNT_SEED = COUNT_SEEDS[1]
SWEEP = {"family": "random_mpo", "n_list": [8, 16], "width_list": [3, 5],
         "sigma_list": [CLI_SIGMA], "trials": 2}
SWEEP_SITES = (sum(SWEEP["n_list"]) * len(SWEEP["width_list"])
               * len(SWEEP["sigma_list"]) * SWEEP["trials"])
# CLI and library results must agree to this absolute tolerance.
CLI_MATCH = 1e-12
FILES = {"ref": "ref", "w": "w", "counts": "counts.json", "fit": "fit.json",
         "data": "data.json", "est": "est.json", "report": "report.json",
         "fit_est": "fit_est.json", "sweep_cfg": "sweep.json",
         "sweep_csv": "sweep.csv", "sweep_summary": "sweep_summary.csv",
         "probe_fit": "probe_fit.json", "probe_est": "probe_est.json"}


def run_cli(lib, *argv) -> dict:
    """One in-process `mpotomo` command; returns its JSON stdout record."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = lib.cli.main(list(argv))
    if code != 0:
        raise CheckFailed(f"mpotomo {argv[0]} exited {code}: "
                          f"{err.getvalue().strip()}")
    return json.loads(out.getvalue())


def noise_seed(seed: int, j: int) -> int:
    return int(np.random.SeedSequence([seed, 3, j]).generate_state(1)[0])


def cli_setup(lib, seed, workdir):
    d = tempfile.mkdtemp(prefix="cli-", dir=workdir)
    p = {k: os.path.join(d, v) for k, v in FILES.items()}
    run_cli(lib, "gen-state", "--family", "random-mpo", "--n", str(CLI_N),
            "--seed", str(seed), "--out", p["ref"])
    phases = w_phases()
    run_cli(lib, "gen-state", "--family", "w", "--n", str(COUNTS_N),
            "--phases", ",".join(map(repr, phases)), "--out", p["w"])
    p["ref"] += ".mpo.json"
    p["w"] += ".mpo.json"
    # Fixed counts, so that set-up cost does not vary with the seed: the
    # list's quickest to fit, since every run sets up three times.
    run_cli(lib, "measure", "--state", p["w"], "--r", str(COUNTS_R),
            "--shots", str(COUNTS_SHOTS), "--seed", str(CLI_COUNT_SEED),
            "--out", p["counts"])
    run_cli(lib, "ingest-counts", "--counts", p["counts"], "--out", p["fit"])
    l, r = lib.reconstruction.default_split(CLI_R)
    return {"seed": seed, "paths": p, "gates": [],
            "ref": lib.states.random_mpo_via_ancilla(CLI_N, seed=seed),
            "w": lib.states.w_state(COUNTS_N, phases=phases)[1],
            "cfg": _tikhonov(lib, CLI_SIGMA, l, r)}


def cli_job(lib, ctx, j):
    p = ctx["paths"]
    nseed = noise_seed(ctx["seed"], j)
    written = run_cli(lib, "measure", "--state", p["ref"], "--r", str(CLI_R),
                      "--sigma", repr(CLI_SIGMA), "--seed", str(nseed),
                      "--out", p["data"])["written"]
    written += run_cli(lib, "reconstruct", "--data", p["data"],
                       "--out", p["est"], "--report", p["report"])["written"]
    gauss = run_cli(lib, "compare", "--ref", p["ref"], "--est", p["est"])
    written += run_cli(lib, "reconstruct", "--data", p["fit"],
                       "--out", p["fit_est"])["written"]
    wfid = run_cli(lib, "compare", "--ref", p["w"], "--est", p["fit_est"],
                   "--w-fidelity")
    with open(p["sweep_cfg"], "w") as fh:
        json.dump({**SWEEP, "master_seed": nseed}, fh)
    written.append(p["sweep_cfg"])
    sweep = run_cli(lib, "sweep", "--config", p["sweep_cfg"],
                    "--out", p["sweep_csv"], "--summary", p["sweep_summary"])
    written += sweep["written"]
    with open(p["report"]) as fh:
        report = json.load(fh)
    # The score is the fitted file's, which the fixed counts make the same
    # for every seed; the N = 64 state's D varies by 20 % between seeds.
    return JobResult(CLI_N + COUNTS_N + SWEEP_SITES, wfid["hs_distance"],
                     wfid["w_fidelity"],
                     sum(os.path.getsize(f) for f in written), report,
                     {"gauss": gauss, "wfid": wfid, "sweep": sweep,
                      "nseed": nseed})


def _assert_same(label: str, cli: dict, lib: dict) -> None:
    for key, want in lib.items():
        got = cli[key]
        if want is None or got is None:
            same = want is None and got is None
        else:
            diff = np.abs(np.subtract(got, want, dtype=float))
            same = bool(np.all(diff <= CLI_MATCH))
        if not same:
            raise CheckFailed(f"{label}: CLI {key}={got!r}, library {want!r}")


def cli_check(plain, ctx, res):
    m = plain.measurement
    noisy = m.add_gaussian_noise(m.exact_block_data(ctx["ref"], CLI_R),
                                 CLI_SIGMA, seed=res.inputs["nseed"])
    est = plain.reconstruction.reconstruct_mpo(noisy, ctx["cfg"])
    _assert_same("compare", res.inputs["gauss"],
                 plain.metrics.compare_states(ctx["ref"], est).to_dict())
    fit_est = plain.operators.load_operator(ctx["paths"]["fit_est"])
    _assert_same("compare --w-fidelity", res.inputs["wfid"],
                 plain.metrics.compare_states(ctx["w"], fit_est,
                                              w_fidelity=True).to_dict())
    sweep = res.inputs["sweep"]
    if sweep["n_ok"] != sweep["n_trials"]:
        raise CheckFailed(f"sweep: {sweep['n_ok']} of {sweep['n_trials']} "
                          "trials ok")
    _check_distance(res.inputs["gauss"]["hs_distance"], CHAIN_D_MAX)
    _check_w_score(res.hs_distance, res.w_fidelity)


def cli_probe(lib, plain, tracer, ctx, results):
    p = ctx["paths"]
    data = lib.measurement.load_block_data(p["fit"])
    lib.measurement.save_block_data(data, p["probe_fit"])
    est = lib.operators.load_operator(p["est"])
    lib.operators.save_operator(est, p["probe_est"])
    lib.reconstruction.reconstruct_mpo(data, _fisher(plain))
    rows, _ = lib.sweep.run_sweep(lib.sweep.sweep_config_from_json(
        p["sweep_cfg"]))
    sweep_s = tracer.durations("sweep.run_sweep")[-1]
    return {"measurement.block_file.mb": os.path.getsize(p["fit"]) / 1e6,
            "sweep.trials_per_s": len(rows) / sweep_s,
            **_report_counts(results)}


WORKLOADS = {
    "chain-gaussian": Workload(chain_setup, chain_job, chain_check,
                               chain_probe, round_jobs=1, quality_jobs=16),
    "counts-fisher": Workload(counts_setup, counts_job, counts_check,
                              counts_probe, round_jobs=len(COUNT_SEEDS),
                              quality_jobs=len(COUNT_SEEDS)),
    "cli-roundtrip": Workload(cli_setup, cli_job, cli_check, cli_probe,
                              round_jobs=1, quality_jobs=4),
}
