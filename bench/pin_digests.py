"""Record the sha256 of every workload's artifacts for every pool seed.

    python3 bench/pin_digests.py

Run it on the commit whose outputs are the reference; it rewrites
digests.json next to this file.  An operation that exits non-zero or
leaves a diverged comparison cell is refused rather than pinned.
"""

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

from core import DIGESTS_PATH, POOL_SEEDS, WORKLOADS, has_diverged_cell, op_argv, sha256_file

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"


def main() -> int:
    sys.path.insert(0, str(SRC))
    import ncsim.cli

    pinned = {}
    out = BENCH_DIR / "_work" / "pin"
    out.mkdir(parents=True, exist_ok=True)
    try:
        for workload in WORKLOADS.values():
            pinned[workload.name] = {}
            for seed in POOL_SEEDS:
                shutil.rmtree(out)
                out.mkdir()
                with contextlib.redirect_stdout(io.StringIO()):
                    code = ncsim.cli.main(op_argv(workload, seed, out))
                if code != 0:
                    print(f"{workload.name} seed {seed}: exit {code}", file=sys.stderr)
                    return 1
                if "comparison.csv" in workload.artifacts and has_diverged_cell(
                    out / "comparison.csv"
                ):
                    print(f"{workload.name} seed {seed}: diverged cell", file=sys.stderr)
                    return 1
                pinned[workload.name][str(seed)] = {
                    name: sha256_file(out / name) for name in workload.artifacts
                }
            print(f"{workload.name}: pinned {len(POOL_SEEDS)} seeds")
    finally:
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.suppress(OSError):  # a benchmark run may be using it
            out.parent.rmdir()
    DIGESTS_PATH.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
