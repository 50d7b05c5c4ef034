"""Walkthrough: rebuild a random mixed state from exact local windows.

A random 6-site density operator is generated by tracing an ancilla
register out of a pure matrix product state, so it is guaranteed PSD
with unit trace and modest bond dimension.  We then pretend we only
know its 5-site reduced windows (as normalized Pauli coefficients),
run the recursive reconstruction, and check the result against the
state we started from.

With exact window data the reconstruction is limited only by floating
point, so the squared distance should land near 1e-16.

Run:  python3 demos/01_exact_reconstruction.py
"""

import numpy as np

from mpotomo import (
    compare_states,
    exact_block_data,
    random_mpo_via_ancilla,
    reconstruct_mpo,
)


def main():
    n, width, seed = 6, 5, 7
    print(f"state: ancilla-traced random MPO, N={n}, seed={seed}")
    rho = random_mpo_via_ancilla(n, seed=seed)
    print(f"  bond dimensions: {rho.bond_dims}")
    print(f"  trace = {rho.trace:.12f}")

    # Window data: every contiguous block of `width` sites, expressed as
    # coefficients in the normalized Pauli basis.
    data = exact_block_data(rho, width)
    print(f"\nmeasured {len(data.blocks)} windows of width {width}")
    print(f"  coefficients per window: {data.blocks[0].size}")

    est, report = reconstruct_mpo(data, with_report=True)
    print(f"\nreconstructed MPO bond dimensions: {est.bond_dims}")
    print(f"  solver mode: {report.mode}")
    print(f"  trace = {est.trace:.12f}")

    cmp = compare_states(rho, est)
    print(f"\nsquared renormalized distance D = {cmp.hs_distance:.3e}")

    # Spot-check a few random Pauli expectation values directly.
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(20):
        alphas = tuple(rng.integers(0, 4, size=n))
        a = rho.coefficient(alphas)
        b = est.coefficient(alphas)
        worst = max(worst, abs(a - b))
    print(f"worst of 20 random Pauli expectations: |ref - est| = {worst:.3e}")

    # And the dense matrices themselves, since N is small enough.
    full_ref = rho.to_dense().matrix
    full_est = est.to_dense().matrix
    print(f"dense max entry deviation: {np.abs(full_ref - full_est).max():.3e}")

    ok = cmp.hs_distance < 1e-12
    print(f"\n{'OK' if ok else 'UNEXPECTED'}: exact data reproduces the state"
          f" to numerical precision")


if __name__ == "__main__":
    main()
