"""Run mpisentinel's command line with span tracing installed.

    python3 perfbench/traced_cli.py --spans SPANS.json -- <mpisentinel args>

mpisentinel must be importable (``PYTHONPATH=src``).  The exit code is the
CLI's.  SPANS.json gets ``{"started": t, "spans": [...]}``, where
``started`` is the clock reading when this script began, on the clock the
spans use, so the first span's start minus ``started`` is the import time.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from tracer import Tracer, install  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        sys.stderr.write(__doc__)
        return 2
    spans_path, cli_argv = argv[1], argv[3:]
    tracer = Tracer()
    install(tracer)
    from mpisentinel import cli
    try:
        return cli.main(cli_argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"started": STARTED, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
