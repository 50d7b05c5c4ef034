"""Build the dense form of W(N) two ways and check agreement and memory.

Usage: python3 .github/dense_round_trip.py N LIMIT_MB

Builds w_state(N), which contracts the dense form from the pure state's
vector, and the dense form of its MPO with to_dense(), in this one
process. Fails unless the two agree to within 1e-12 in every entry
(compared in row blocks, so the check adds no full-size array) and the
process's peak resident set size is at most LIMIT_MB.
"""

import resource
import sys
import time

import numpy as np

from mpotomo.states import w_state

ROWS = 64


def round_trip(n_sites: int, limit_mb: float) -> bool:
    start = time.perf_counter()
    dense, mpo = w_state(n_sites)
    built = time.perf_counter()
    back = mpo.to_dense()
    contracted = time.perf_counter()
    a, b = dense.matrix, back.matrix
    dev = max(np.max(np.abs(a[i:i + ROWS] - b[i:i + ROWS]))
              for i in range(0, len(a), ROWS))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{a.nbytes / 2**20:.0f} MiB dense form; w_state "
          f"{built - start:.2f} s, to_dense {contracted - built:.2f} s; "
          f"max deviation {dev:.1e}; peak RSS {peak:.0f} MB "
          f"(limit {limit_mb:g} MB)")
    return dev <= 1e-12 and peak <= limit_mb


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__.split("\n\n")[1])
    sys.exit(not round_trip(int(sys.argv[1]), float(sys.argv[2])))
