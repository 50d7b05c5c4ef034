"""Run an 8-site counts round trip at width R and check its peak memory.

Usage: python3 .github/counts_round_trip.py R LIMIT_MB [FAMILY [SEED ...]]

Runs gen-state --family FAMILY --n 8 (default w; the random families are
drawn with --seed 0), then, for each count seed SEED (default 0),
measure --shots 100 --seed SEED, ingest-counts and reconstruct, through
mpotomo.cli.main in this one process, in the current directory. Fails if a
command fails or the process's peak resident set size is above LIMIT_MB.
Prints the wall time of each ingest-counts (the likelihood fits) and the
peak resident set size. Run it with -W error::UserWarning to fail on a fit
that stops unconverged as well.
"""

import resource
import sys
import time

from mpotomo.cli import main


def round_trip(width: str, limit_mb: float, family: str,
               seeds: list[str]) -> bool:
    state = ["gen-state", "--family", family, "--n", "8", "--out", "state"]
    if family.startswith("random"):
        state += ["--seed", "0"]
    if main(state):
        return False
    for seed in seeds:
        for argv in (["measure", "--state", "state.mpo.json", "--r", width,
                      "--shots", "100", "--seed", seed, "--out",
                      "counts.json"],
                     ["ingest-counts", "--counts", "counts.json", "--out",
                      "fitted.json"],
                     ["reconstruct", "--data", "fitted.json", "--out",
                      "est.mpo.json"]):
            start = time.perf_counter()
            if main(argv):
                return False
            if argv[0] == "ingest-counts":
                print(f"count seed {seed}: ingest-counts "
                      f"{time.perf_counter() - start:.2f} s")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS {peak:.0f} MB (limit {limit_mb:g} MB)")
    return peak <= limit_mb


if __name__ == "__main__":
    if len(sys.argv) < 3:
        sys.exit(__doc__.split("\n\n")[1])
    family = sys.argv[3] if len(sys.argv) > 3 else "w"
    sys.exit(not round_trip(sys.argv[1], float(sys.argv[2]), family,
                            sys.argv[4:] or ["0"]))
