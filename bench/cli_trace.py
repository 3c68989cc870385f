"""Traced CLI child: ``python3 bench/cli_trace.py SNAPSHOT ARGV...``.

Runs ``cyclohouse.cli.main(ARGV)`` exactly as ``python -m cyclohouse.cli``
would, with the benchmark's tracer installed, and writes the tracer's
aggregate plus the import time to SNAPSHOT.  Standard output is the
CLI's own.
"""

import json
import sys
import time

from tracer import Tracer

start = time.perf_counter()
import cyclohouse.cli  # noqa: E402

import_s = time.perf_counter() - start
tracer = Tracer()
tracer.install()
try:
    code = cyclohouse.cli.main(sys.argv[2:])
finally:
    snap = tracer.snapshot()
    snap["import_s"] = import_s
    snap["wall_s"] = time.perf_counter() - start - import_s
    with open(sys.argv[1], "w") as fh:
        json.dump(snap, fh)
sys.exit(code)
