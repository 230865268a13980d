"""Traced stand-in for ``python -m ctagsched.cli``.

Usage: python cli_runner.py TRACE_OUT <ctagsched arguments...>

Records the process start, times the import of ctagsched.cli, rebinds the
traced names, calls ``ctagsched.cli.main(argv)``, writes the spans to
TRACE_OUT as JSON and exits with main's return code.  Times are from the
system-wide monotonic clock, so the parent can subtract its spawn stamp.
"""
import sys
import time

T_START = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import Tracer  # noqa: E402


def run(out_path: str, argv: list[str]) -> int:
    t0 = time.monotonic()
    import ctagsched.cli

    t_imported = time.monotonic()
    tracer = Tracer()
    tracer.install_cli()
    try:
        rc = ctagsched.cli.main(argv)
    finally:
        tracer.uninstall()
    with open(out_path, "w") as fh:
        # the tracing module's own load is not part of the package import
        json.dump({
            "t_start": T_START,
            "t_imported": T_START + (t_imported - t0),
            "spans": tracer.spans,
        }, fh)
    return rc


if __name__ == "__main__":
    raise SystemExit(run(sys.argv[1], sys.argv[2:]))
