"""Time one user set-up in a fresh interpreter and print it as JSON.

Run by ``run.py`` several times per run: importing parlmc (numpy with it),
building the potential, and tuning plus the initial state.  The inputs
are the ones ``run.py`` generated, so their generation is not timed.
"""

from __future__ import annotations

import argparse
import json
from time import perf_counter

import bootstrap


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True, help=".npz written by run.py")
    args = parser.parse_args()
    bootstrap.configure()
    start = perf_counter()
    import parlmc

    import_s = perf_counter() - start
    bootstrap.require_checkout_build(parlmc)
    import numpy as np

    import workloads

    with np.load(args.inputs) as data:
        inputs = {key: data[key] for key in data.files}
    inputs = {k: (str(v) if v.dtype.kind == "U" else v) for k, v in inputs.items()}
    _, stages = workloads.setup(workloads.WORKLOADS[args.workload], inputs)
    print(json.dumps({"import_s": import_s, **stages}))


if __name__ == "__main__":
    main()
