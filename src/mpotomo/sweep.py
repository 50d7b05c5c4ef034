"""Grid sweeps over families, sizes, window widths, and noise levels.

Every (N, width, sigma) cell runs a fixed number of trials. The per-trial
generator seed is SeedSequence([master_seed, cell_index, trial_index]) with
cells enumerated in grid order, so a rerun with the same configuration
reproduces the output files byte for byte. Wall-clock timings are kept out
of the reproducible CSVs; request a separate timing file if needed.
"""

from __future__ import annotations

import csv
import time
from dataclasses import MISSING, dataclass, fields
from itertools import product

import numpy as np

from .files import read_json, require_integer, require_real
from .measurement import add_gaussian_noise, exact_block_data
from .metrics import compare_states
from .reconstruction import default_split, reconstruct_mpo
from .states import FAMILIES, make_state

TRIAL_COLUMNS = ("family", "N", "R", "l", "r", "sigma", "trial", "seed",
                 "D", "purity_ref", "solver_mode", "status")
SUMMARY_COLUMNS = ("family", "N", "R", "l", "r", "sigma", "n_trials",
                   "n_ok", "mean_D", "std_D")


@dataclass
class SweepConfig:
    family: str
    n_list: list[int]
    width_list: list[int]
    sigma_list: list[float]
    trials: int = 1
    beta: float = 5.0
    t_hnorm: float = 0.01
    master_seed: int = 0

    def __post_init__(self):
        # a config's family may be any JSON value, and a list is unhashable
        if not isinstance(self.family, str) or self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        for name in ("n_list", "width_list", "sigma_list"):
            value = getattr(self, name)
            if not isinstance(value, list):
                raise ValueError(f"{name} must be a list, not "
                                 f"{type(value).__name__}")
        for name in ("n_list", "width_list"):
            for entry in getattr(self, name):
                require_integer(entry, f"{name} entries")
        for sigma in self.sigma_list:
            require_real(sigma, "sigma_list entries", nonnegative=True)
        for name in ("trials", "master_seed"):
            require_integer(getattr(self, name), name)
        require_real(self.beta, "beta", nonnegative=True)
        require_real(self.t_hnorm, "t_hnorm")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be nonnegative, not "
                             f"{self.master_seed}")


def sweep_config_from_json(path: str) -> SweepConfig:
    """Rejects a missing or unknown key by name; then as SweepConfig."""
    keys = {f.name: f.default is MISSING for f in fields(SweepConfig)}
    return SweepConfig(**read_json(
        path, [k for k, needed in keys.items() if needed], header=False,
        allowed=[k for k, needed in keys.items() if not needed]))


def run_trial(cfg: SweepConfig, n: int, width: int, sigma: float,
              seed_seq: np.random.SeedSequence) -> dict:
    state_seed, noise_seed = seed_seq.spawn(2)
    t0 = time.perf_counter()
    # Deterministic families ignore the seed; random families redraw the
    # state every trial from it.
    ref = make_state(cfg.family, n, seed=state_seed, beta=cfg.beta,
                     t_hnorm=cfg.t_hnorm)
    data = exact_block_data(ref, width)
    if sigma > 0.0:
        data = add_gaussian_noise(data, sigma, seed=noise_seed)
    est, report = reconstruct_mpo(data, with_report=True)
    scores = compare_states(ref, est)
    row = {
        "D": scores.hs_distance,
        "purity_ref": scores.purity_ref,
        "solver_mode": report.mode,
        "status": "ok",
        "wall_ms": (time.perf_counter() - t0) * 1e3,
    }
    return row


def run_sweep(cfg: SweepConfig, out_csv: str | None = None,
              summary_csv: str | None = None,
              timing_csv: str | None = None):
    """Run the grid; returns (trial_rows, summary_rows) and writes CSVs.

    Trial and summary files are byte-identical across reruns with the same
    configuration; failures are recorded per row and do not stop the grid.
    """
    rows = []
    summaries = []
    cells = list(product(cfg.n_list, cfg.width_list, cfg.sigma_list))
    for cell_index, (n, width, sigma) in enumerate(cells):
        l, r = default_split(width)
        cell_d = []
        for trial in range(cfg.trials):
            ss = np.random.SeedSequence([cfg.master_seed, cell_index, trial])
            seed_repr = int(ss.generate_state(1, np.uint64)[0])
            base = {
                "family": cfg.family, "N": n, "R": width, "l": l, "r": r,
                "sigma": sigma, "trial": trial, "seed": seed_repr,
            }
            try:
                base.update(run_trial(cfg, n, width, sigma, ss))
            except Exception as exc:  # recorded, sweep continues
                base.update({
                    "D": float("nan"), "purity_ref": float("nan"),
                    "solver_mode": "", "wall_ms": float("nan"),
                    "status": f"{type(exc).__name__}: {exc}",
                })
            rows.append(base)
            if base["status"] == "ok":
                cell_d.append(base["D"])
        ok = np.asarray(cell_d, dtype=float)
        summaries.append({
            "family": cfg.family, "N": n, "R": width, "l": l, "r": r,
            "sigma": sigma, "n_trials": cfg.trials, "n_ok": ok.size,
            "mean_D": float(ok.mean()) if ok.size else float("nan"),
            "std_D": float(ok.std(ddof=1)) if ok.size > 1 else 0.0,
        })
    if out_csv:
        _write_csv(out_csv, TRIAL_COLUMNS, rows)
    if summary_csv:
        _write_csv(summary_csv, SUMMARY_COLUMNS, summaries)
    if timing_csv:
        cols = ("family", "N", "R", "sigma", "trial", "wall_ms")
        _write_csv(timing_csv, cols, rows)
    return rows, summaries


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: str, columns, records) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for rec in records:
            writer.writerow([_fmt(rec[c]) for c in columns])
