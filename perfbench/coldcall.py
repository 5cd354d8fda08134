"""One CLI call in a fresh interpreter, with its import and text-I/O times.

Usage: python3 perfbench/coldcall.py <gleason solve arguments...>

Runs ``gleason.cli.main`` once on the given arguments, exactly as the
command line would, and then prints one line ``PERFBENCH {json}`` to
stderr with the import time of ``gleason.cli``, the time spent in the text
parser, the polynomial formatter and the report writer, the solve itself,
and the rest of ``main``.  The solver package must be importable (for
example ``PYTHONPATH=src``).
"""

import json
import sys
from time import perf_counter

_T0 = perf_counter()
import gleason.cli as cli  # noqa: E402

_IMPORT_S = perf_counter() - _T0

_SPANS = {
    "parse_poly": "exprio.parse",
    "parse_scalar": "exprio.parse",
    "format_poly": "exprio.format",
    "emit_report": "exprio.report",
    "solve": "solve",
}


def _timed(name, fn, totals):
    def wrapper(*args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            totals[name] = totals.get(name, 0.0) + perf_counter() - t0

    return wrapper


def main(argv) -> int:
    totals: dict = {}
    for attr, name in _SPANS.items():
        setattr(cli, attr, _timed(name, getattr(cli, attr), totals))
    t0 = perf_counter()
    code = cli.main(argv)
    main_s = perf_counter() - t0
    sys.stdout.flush()
    parts = {name: 1e3 * totals.get(name, 0.0) for name in set(_SPANS.values())}
    timings = {
        "cli.import_ms": 1e3 * _IMPORT_S,
        "exprio.parse_ms": parts["exprio.parse"],
        "exprio.format_ms": parts["exprio.format"],
        "exprio.report_ms": parts["exprio.report"],
        "cli.solve_ms": parts["solve"],
        "cli.main_self_ms": 1e3 * main_s - sum(parts.values()),
    }
    print("PERFBENCH " + json.dumps(timings), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
