"""Save the exact windows of W(N), load them back, and check bits and memory.

Usage: python3 .github/file_round_trip.py N LIMIT_MB

Builds the exact width-5 windows of the N-site W state, writes them with
save_block_data into a temporary directory and reads them back with
load_block_data, in this one process. Fails unless the loaded blocks equal
the saved ones bit for bit and the process's peak resident set size is at
most LIMIT_MB.
"""

import os
import resource
import sys
import tempfile
import time

import numpy as np

from mpotomo import exact_block_data, load_block_data, save_block_data
from mpotomo.states import w_state


def round_trip(n_sites: int, limit_mb: float) -> bool:
    data = exact_block_data(w_state(n_sites)[1], 5)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "windows.json")
        start = time.perf_counter()
        save_block_data(data, path)
        saved = time.perf_counter()
        back = load_block_data(path)
        loaded = time.perf_counter()
        size = sum(os.path.getsize(os.path.join(tmp, f))
                   for f in os.listdir(tmp))
    same = (back.blocks.shape == data.blocks.shape
            and np.array_equal(back.blocks.view(np.uint64),
                               data.blocks.view(np.uint64)))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{data.blocks.nbytes / 2**20:.0f} MiB of blocks in "
          f"{size / 1e6:.0f} MB of files; save {saved - start:.2f} s, "
          f"load {loaded - saved:.2f} s; bitwise equal: {same}; peak RSS "
          f"{peak:.0f} MB (limit {limit_mb:g} MB)")
    return same and peak <= limit_mb


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__.split("\n\n")[1])
    sys.exit(not round_trip(int(sys.argv[1]), float(sys.argv[2])))
