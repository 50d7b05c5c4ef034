"""Full pipeline from simulated measurement counts to a global state.

The target is an 8-site W-like superposition with random branch
phases.  We never hand the reconstruction the exact coefficients:

  1. sample projective outcomes in all 3^R local Pauli bases for every
     window (finite shot budget),
  2. run a local maximum-likelihood fit per window to get physical
     window estimates, kept with the shots of every setting,
  3. feed the fitted coefficients into the recursion; fitted data carry
     the shots of every setting, so reconstruct_mpo picks the fisher
     solver, which weights each coefficient by its inverse covariance
     from the Fisher information of each window's first R - 1 sites at
     the window's estimate,
  4. compare against the known target: global distance, W-overlap
     fidelity, and recovery of the branch phases.

Wider windows see more of the correlation structure and win at a
fixed per-setting shot count.

Run:  python3 demos/04_counts_to_state.py    (under a second on a
      2-core x86-64 machine)
"""

import time

import numpy as np

from mpotomo import (
    block_data_from_counts,
    compare_states,
    fidelity_w_optimized,
    reconstruct_mpo,
    simulate_counts,
    w_state,
)

N = 8
SHOTS = 100           # per measurement setting, per window
SEED = 20260822


def run(width, rho, phases):
    t0 = time.time()
    counts = simulate_counts(rho, width, shots=SHOTS, seed=(SEED, width))
    fitted = block_data_from_counts(counts, N)
    est = reconstruct_mpo(fitted)  # fisher mode, from the fitted shots
    cmp = compare_states(rho, est)
    fid, est_phases = fidelity_w_optimized(est)
    dt = time.time() - t0

    # a window's measured settings are the nonzero rows of its counts
    n_settings = sum(np.count_nonzero(b.counts.any(axis=1)) for b in counts)
    print(f"\nwindow width {width}: {len(counts)} windows,"
          f" {n_settings} settings, {n_settings * SHOTS} total shots")
    print(f"  distance D      = {cmp.hs_distance:.4f}")
    print(f"  W fidelity      = {fid:.4f}")
    err = np.abs(np.angle(np.exp(1j * (est_phases - phases))))
    print(f"  phase error     = {err.max():.3f} rad (worst branch)")
    print(f"  wall time       = {dt:.1f} s")
    return cmp.hs_distance, fid


def main():
    rng = np.random.default_rng(SEED)
    phases = rng.uniform(0.0, 2 * np.pi, size=N - 1)
    _, rho = w_state(N, phases=phases)
    print(f"target: {N}-site W superposition, random branch phases,"
          f" {SHOTS} shots per setting")

    d3, f3 = run(3, rho, phases)
    d5, f5 = run(5, rho, phases)

    print(f"\nwidth 5 vs width 3:  D {d5:.3f} vs {d3:.3f},"
          f"  fidelity {f5:.3f} vs {f3:.3f}")
    print("at this shot budget the wider window is clearly better; it pays")
    print("3^5 settings per window but each solve is conditioned on far")
    print("more of the actual correlation structure.  without the inverse")
    print("covariance weights the same data can diverge: the plain pinv")
    print("treats every fitted coefficient as equally trustworthy.")


if __name__ == "__main__":
    main()
