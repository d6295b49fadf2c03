"""Traced ``skewlin`` CLI invocation, one per cli-mixed operation.

    python3 perfbench/cli_child.py --summary FILE --spans FILE -- VERB [ARGS...]

Times ``import skewlin.cli``, installs the tracer's wrappers, calls
``skewlin.cli.main(argv)`` and exits with its status.  The CLI's own
stdout and stderr are untouched; the per-layer aggregate goes to the
summary file and the spans to the spans file.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--summary", required=True)
    ap.add_argument("--spans", required=True)
    ap.add_argument("argv", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    t0 = time.perf_counter()
    import skewlin.cli

    t1 = time.perf_counter()
    import skewlin.skew as skew
    import tracer as tracing

    tracer = tracing.Tracer()
    tracer.install()
    checks_before = skew.DIVISION_CHECKS
    t2 = time.perf_counter()
    try:
        code = skewlin.cli.main(argv)
    finally:
        t3 = time.perf_counter()
        tracer.uninstall()
    sys.stdout.flush()
    agg = tracer.aggregate()
    tracer.write(args.spans)
    agg.update(
        cli_import_s=t1 - t0,
        cli_main_s=t3 - t2,
        # tracer set-up and write-out, left out of cli.spawn_s
        trace_s=(t2 - t1) + (time.perf_counter() - t3),
        division_checks=skew.DIVISION_CHECKS - checks_before,
    )
    with open(args.summary, "w", encoding="utf-8") as fh:
        json.dump(agg, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
