"""Set-up time of one workload, measured in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <workload> <seed>, with the
repository's ``src`` on PYTHONPATH.  Times ``import aracodes.cli`` and
then the building of the workload's pairs and instances, and prints one
JSON line: {"import_s": ..., "build_s": ..., "setup_s": ...}.
"""

import time

t0 = time.perf_counter()
import aracodes.cli  # noqa: E402  (the import is what is being timed)

t1 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402

workloads.build_inputs(workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2]))
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1, "setup_s": t2 - t0, "module": aracodes.__file__}))
