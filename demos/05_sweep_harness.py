"""Reproducible parameter sweep over chain length, window width, noise.

The sweep harness drives the whole pipeline (state generation, window
extraction, noise injection, reconstruction, scoring) over a grid and
writes three CSV files:

  * trials:  one row per (cell, trial) with the distance and seed,
  * summary: per-cell trial and success counts and the mean and std
             of the distance over trials,
  * timing:  wall-clock per trial, kept separate so the two result
             files are byte-identical when the sweep is rerun.

Every trial derives its generator from (master_seed, cell, trial), so
single rows can be reproduced in isolation; this demo reruns the grid
and checks the hashes to prove it.

Run:  python3 demos/05_sweep_harness.py
"""

import csv
import hashlib
from pathlib import Path

from mpotomo import SweepConfig, run_sweep

OUT = Path(__file__).resolve().parent / "out"


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()[:12]


def main():
    OUT.mkdir(exist_ok=True)
    cfg = SweepConfig(
        family="random_mpo",
        n_list=[6],
        width_list=[3, 5],
        sigma_list=[0.0, 1e-2],
        trials=3,
        master_seed=42,
    )
    print("grid: N=6, width in {3, 5}, sigma in {0, 1e-2}, 3 trials/cell")

    paths = {name: OUT / f"sweep_{name}.csv"
             for name in ("trials", "summary", "timing")}
    run_sweep(cfg, out_csv=str(paths["trials"]),
              summary_csv=str(paths["summary"]),
              timing_csv=str(paths["timing"]))

    with open(paths["summary"], newline="") as fh:
        rows = list(csv.DictReader(fh))
    print(f"\n{'R':>3} {'sigma':>8} {'mean D':>12} {'std D':>12} {'n_ok':>5}")
    for row in rows:
        print(f"{row['R']:>3} {float(row['sigma']):>8.0e}"
              f" {float(row['mean_D']):>12.4e}"
              f" {float(row['std_D']):>12.4e} {row['n_ok']:>5}")

    first = {k: sha(p) for k, p in paths.items() if k != "timing"}
    run_sweep(cfg, out_csv=str(paths["trials"]),
              summary_csv=str(paths["summary"]),
              timing_csv=str(paths["timing"]))
    second = {k: sha(p) for k, p in paths.items() if k != "timing"}

    print("\nrerun hash check (timing file excluded on purpose):")
    for k in first:
        mark = "identical" if first[k] == second[k] else "DIFFERS"
        print(f"  {k:>8}: {first[k]} vs {second[k]}  {mark}")

    print("\nread a single cell back without the harness with run_trial and")
    print("SeedSequence([master_seed, cell_index, trial]) to debug one row.")


if __name__ == "__main__":
    main()
