"""Run one benchmark function in this fresh interpreter (see
``common.run_isolated``).

Reads a pickled ``(module, function, args)`` from standard input, calls
``module.function(*args)`` and writes the pickled result to standard
output.  Anything the function prints goes to standard error, so it cannot
mix with the result.  Exits non-zero, with a traceback, if the call raises.
"""

from __future__ import annotations

import importlib
import os
import pickle
import sys


def main() -> int:
    module, function, args = pickle.load(sys.stdin.buffer)
    result_out = os.fdopen(os.dup(sys.stdout.fileno()), "wb")
    sys.stdout.flush()
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())
    result = getattr(importlib.import_module(module), function)(*args)
    with result_out:
        pickle.dump(result, result_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
