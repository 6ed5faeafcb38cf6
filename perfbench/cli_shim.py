"""Traced stand-in for ``python -m dblab.cli``.

Usage: ``python cli_shim.py SPANS.npz <dblab arguments...>``

Times ``import dblab``, wraps dblab's public functions, runs
``dblab.cli.main`` on the remaining arguments as one op and writes the
spans, counters and import time to SPANS.npz.  Exits with main's code.
"""

import sys
import time

_t0 = time.perf_counter()
import dblab.cli  # noqa: E402
IMPORT_S = time.perf_counter() - _t0

import tracing  # noqa: E402


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    span = tracer.begin_op(0)
    try:
        code = dblab.cli.main(argv)
    finally:
        tracer.end_op(span)
        tracer.dump(path, import_s=IMPORT_S)
    return code


if __name__ == "__main__":
    sys.exit(main())
