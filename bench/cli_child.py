"""Run one homscat CLI command with the benchmark tracer installed.

    python -X importtime bench/cli_child.py SPANS_FILE <homscat arguments...>

Behaves like `python -m homscat <arguments...>` and also writes the spans,
counts and scattering results of the run, with the monotonic clock readings
at interpreter start-up and at the return of `cli.main`, to SPANS_FILE as
JSON.
"""

import time

BOOT = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402

from tracer import Tracer  # noqa: E402

import homscat.cli  # noqa: E402


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    code = homscat.cli.main(argv)
    end = time.monotonic()
    record = {
        "boot": BOOT,
        "main_end": end,
        "spans": [span[:4] for span in tracer.spans],
        "counts": tracer.counts,
        "scatter": [[T, sigma.tolist()] for T, sigma in tracer.scatter_results],
        "missing": sorted(tracer.missing),
    }
    with open(spans_file, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
