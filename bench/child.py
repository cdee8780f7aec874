"""One ncsim command in a fresh interpreter, for the benchmark.

    python child.py setup -- NCSIM_ARGS...
    python child.py trace FILE [--counting] -- NCSIM_ARGS...

``setup`` imports ``ncsim.cli`` and lets the CLI resolve the scenario and
build the dynamics and the loss model.  It stops when the runtime asks
for the first reception bit, prints ``ready {"import_s": ...}`` and exits.

``trace`` runs the command to completion with the tracer installed (with
its call counters too under ``--counting``) and writes the tracer's
snapshot and the exit code to FILE.
"""

import json
import sys
from time import perf_counter


class FirstInterval(Exception):
    """Raised by the stand-in for the first reception-bit query."""


def main(argv) -> int:
    mode = argv[0]
    command = argv[argv.index("--") + 1:]
    start = perf_counter()
    import ncsim.cli
    import_s = perf_counter() - start

    if mode == "setup":
        from ncsim.losses import LossModel

        def first_interval(model, k):
            raise FirstInterval

        LossModel.sample_reception = first_interval
        try:
            code = ncsim.cli.main(command)
        except FirstInterval:
            print("ready " + json.dumps({"import_s": import_s}), flush=True)
            return 0
        print(f"ncsim exited with {code} before the first interval", file=sys.stderr)
        return 1

    from tracer import Tracer

    tracer = Tracer()
    tracer.install(counting="--counting" in argv[:argv.index("--")])
    code = tracer.span("op", ncsim.cli.main, command)
    snapshot = tracer.snapshot()
    snapshot.update(code=code, absent=tracer.absent)
    with open(argv[1], "w") as handle:
        json.dump(snapshot, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
