"""Run one qsdr CLI invocation in a fresh interpreter and report its timings.

Usage::

    PYTHONPATH=src python3 perfbench/child.py RESULT.json SPANS.npz|- ID -- ARGV...

Times ``import qsdr.cli`` and ``qsdr.cli.main(ARGV)`` separately and writes
them, with the exit code, to RESULT.json.  With a SPANS path the public
qsdr functions are traced after the import and the spans are written there
when ``main`` returns.
"""

import json
import sys
import time


def main() -> int:
    result_path, spans_path, invocation, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py RESULT.json SPANS.npz|- ID -- ARGV...")
    t0 = time.perf_counter()
    import qsdr.cli

    t1 = time.perf_counter()
    tracer = None
    if spans_path != "-":
        from spans import Tracer

        tracer = Tracer(int(invocation))
        tracer.install()
    t2 = time.perf_counter()
    try:
        code = qsdr.cli.main(argv)
    finally:
        t3 = time.perf_counter()
        if tracer is not None:
            tracer.dump(spans_path)
    with open(result_path, "w") as fh:
        json.dump({"import_s": t1 - t0, "main_s": t3 - t2, "exit_code": code}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
