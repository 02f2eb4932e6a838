"""Run one wallcurve CLI command in a fresh interpreter and record its timings.

Usage: python3 benchmarks/child.py RESULT_JSON TRACE(0|1) -- WALLCURVE ARGS...

``perf_counter`` reads the system-wide monotonic clock, so the parent
subtracts its own spawn time from ``setup_end`` to get the set-up time.
The exit code is the command's.
"""

import json
import sys
import time

import wallcurve.cli

setup_end = time.perf_counter()


def main() -> int:
    result_path, trace, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit(f"usage: {sys.argv[0]} RESULT_JSON TRACE -- ARGS...")
    recorder = None
    if trace == "1":
        import spans

        recorder = spans.install()
    start = time.perf_counter()
    try:
        rc = wallcurve.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    record = {
        "setup_end": setup_end,
        "main_s": time.perf_counter() - start,
        "rc": rc,
        "version": wallcurve.__version__,
    }
    if recorder is not None:
        record.update(spans=recorder.spans, counts=recorder.counts)
    with open(result_path, "w") as f:
        json.dump(record, f)
    return rc


if __name__ == "__main__":
    sys.exit(main())
