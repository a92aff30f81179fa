"""Run the ``repro serve`` command line in this process, timing the
calibration slice (``common.calibrate``) before the server starts and after
it has drained.

    python3 perfbench/serve_host.py serve --port 0 --workers 2 --store DIR

The arguments go to ``repro.cli.main`` unchanged, as ``python -m repro``
would pass them.  Before the server's banner and after its last line it
prints ``# calibration <median seconds> <seconds spent>``, so serve-mixed
can scale the server's own timings to the reference speed.
"""

from __future__ import annotations

import sys
import time

from common import calibrate, median


def report_calibration() -> None:
    start = time.perf_counter()
    slices = [calibrate() for _ in range(3)]
    print(f"# calibration {median(slices)!r} {time.perf_counter() - start!r}",
          flush=True)


def main(argv) -> int:
    report_calibration()
    from repro.cli import main as repro_main

    code = repro_main(argv)
    report_calibration()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
