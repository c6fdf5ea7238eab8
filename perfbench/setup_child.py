"""One set-up measurement in a fresh interpreter (run with PYTHONPATH=src).

Prints the time of `import nonion` plus the cached state the workloads
use (both bases and the determinant polynomial), and the import time of
the CLI (the package plus `nonion.report` and `nonion.cli`).  Interpreter
start-up stays outside both, and nothing else is imported before the
clock starts.
"""

import time

t0 = time.perf_counter()
import nonion  # noqa: E402
t1 = time.perf_counter()
nonion.nonion_basis()
nonion.tu3_basis()
nonion.det_poly()
t2 = time.perf_counter()
import nonion.cli  # noqa: E402,F401
t3 = time.perf_counter()

import json  # noqa: E402

print(json.dumps({"setup_s": t2 - t0, "cli_import_s": (t1 - t0) + (t3 - t2)}))
