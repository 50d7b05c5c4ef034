"""Run a W(8) counts round trip at width R and check its peak memory.

Usage: python3 .github/counts_round_trip.py R LIMIT_MB

Runs gen-state, measure --shots 100 --seed 0, ingest-counts and
reconstruct through mpotomo.cli.main in this one process, in the current
directory, and fails if a command fails or the process's peak resident
set size is above LIMIT_MB. Prints the wall time of ingest-counts (the
likelihood fits) and the peak resident set size. Run it with
-W error::UserWarning to fail on a fit that stops unconverged as well.
"""

import resource
import sys
import time

from mpotomo.cli import main


def round_trip(width: str, limit_mb: float) -> bool:
    for argv in (["gen-state", "--family", "w", "--n", "8", "--out", "w"],
                 ["measure", "--state", "w.mpo.json", "--r", width,
                  "--shots", "100", "--seed", "0", "--out", "counts.json"],
                 ["ingest-counts", "--counts", "counts.json", "--out",
                  "fitted.json"],
                 ["reconstruct", "--data", "fitted.json", "--out",
                  "est.mpo.json"]):
        start = time.perf_counter()
        if main(argv):
            return False
        if argv[0] == "ingest-counts":
            ingest_s = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"ingest-counts {ingest_s:.2f} s, "
          f"peak RSS {peak:.0f} MB (limit {limit_mb:g} MB)")
    return peak <= limit_mb


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__.split("\n\n")[1])
    sys.exit(not round_trip(sys.argv[1], float(sys.argv[2])))
