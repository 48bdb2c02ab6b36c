"""One cold repetition of a workload, run in a fresh interpreter by run.py.

    python3 perfbench/child.py WORKLOAD SEED OUTDIR TRACE SMOKE

Imports the library, builds the workload's inputs (``ready``), certifies and
gates them (``done``), then writes ``result.json`` into OUTDIR, and with
TRACE=1 also ``spans.json``.  Wall times are ``time.perf_counter()``
readings, which on Linux share CLOCK_MONOTONIC with the parent process; CPU
times are ``time.process_time()`` readings of this process, counted from its
start.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback


def csv_digest(outdir):
    """sha256 over every CSV body below outdir (the library's determinism contract)."""
    from gibbschain.csvio import csv_body_bytes

    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(outdir)):
        dirnames.sort()
        for name in sorted(f for f in filenames if f.endswith(".csv")):
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, outdir).encode()
            h.update(rel + b"\0" + csv_body_bytes(path) + b"\0")
    return h.hexdigest()


def versions():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
    }


def main(argv):
    name, seed, outdir = argv[0], int(argv[1]), argv[2]
    trace, smoke = argv[3] == "1", argv[4] == "1"
    import workloads

    recorder = None
    if trace:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
    make_inputs, certify, gate = workloads.WORKLOADS[name]
    inputs = make_inputs(seed, smoke)
    ready, ready_cpu = time.perf_counter(), time.process_time()
    error = None
    try:
        certify(inputs, outdir)
        items = [(str(label), bool(ok), str(detail)) for label, ok, detail in gate(outdir)]
    except Exception:  # a raising certification is a counted failure, not a crash
        items = []
        error = traceback.format_exc()
    done, done_cpu = time.perf_counter(), time.process_time()

    if recorder is not None:
        with open(os.path.join(outdir, "spans.json"), "w") as fh:
            json.dump(recorder.spans, fh)
    result = {
        "ready": ready,
        "done": done,
        "ready_cpu": ready_cpu,
        "done_cpu": done_cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "items": items,
        "error": error,
        "digest": csv_digest(outdir),
        "seed_changes_inputs": name in workloads.SEEDED,
        "versions": versions(),
    }
    with open(os.path.join(outdir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
