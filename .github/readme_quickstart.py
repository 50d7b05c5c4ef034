"""Run the CLI quick start of README.md in a directory of its own.

Usage: python3 .github/readme_quickstart.py OUTDIR

Writes the README's sweep.json example and every sh block that calls
mpotomo, with /tmp/ paths made relative, into OUTDIR as quickstart.sh,
runs that script there with `sh -ex` and saves its stdout as stdout.txt.
A UserWarning (a likelihood fit that did not converge), a RuntimeWarning
(a numerical overflow, division by zero or invalid value), a
DeprecationWarning or a PendingDeprecationWarning is an error, as in
pyproject.toml's warning policy, and the first nonzero exit fails this
script.

The package comes from PYTHONPATH, so running this script twice, under
two checkouts' src/ and into two directories, and comparing the files
with cmp shows whether the two checkouts write the same bytes.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def main(outdir: str) -> None:
    text = README.read_text()
    blocks = [b for b in re.findall(r"```sh\n(.*?)```", text, re.S)
              if b.startswith("mpotomo ")]
    sweep, = re.findall(r"```json\n(.*?)```", text, re.S)
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "sweep.json").write_text(sweep)
    (out / "quickstart.sh").write_text(
        'mpotomo() { python3 -m mpotomo.cli "$@"; }\n'
        + "".join(blocks).replace("/tmp/", ""))
    env = dict(os.environ, PYTHONWARNINGS=(
        "error::UserWarning,error::RuntimeWarning,"
        "error::DeprecationWarning,error::PendingDeprecationWarning"))
    with open(out / "stdout.txt", "w") as stdout:
        subprocess.run(["sh", "-ex", "quickstart.sh"], cwd=out, env=env,
                       stdout=stdout, check=True)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    main(sys.argv[1])
