"""Reconstruct W(N) from its exact windows and check accuracy and memory.

Usage: python3 .github/chain_round_trip.py N LIMIT_MB

Builds the exact width-5 windows of the N-site W state, runs
reconstruct_mpo (the default truncated solve) and compare_states against
the state in this one process, and fails if |D| is above 1e-7 or the
process's peak resident set size is above LIMIT_MB.
"""

import resource
import sys

from mpotomo import compare_states, exact_block_data, reconstruct_mpo
from mpotomo.states import w_state


def round_trip(n_sites: int, limit_mb: float) -> bool:
    _, state = w_state(n_sites)
    est = reconstruct_mpo(exact_block_data(state, 5))
    d = compare_states(state, est).hs_distance
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"D = {d:.3g}; peak RSS {peak:.0f} MB (limit {limit_mb:g} MB)")
    return abs(d) <= 1e-7 and peak <= limit_mb


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__.split("\n\n")[1])
    sys.exit(not round_trip(int(sys.argv[1]), float(sys.argv[2])))
