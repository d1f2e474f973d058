"""One measured CLI call in a fresh interpreter.

Usage: python3 perfbench/child.py RESULT_JSON SPAWN_TIME TRACE -- CLI_ARGS...

SPAWN_TIME is the parent's `time.time()` just before it started this
process, so `setup_s` covers interpreter start plus the import of
hypspectra with numpy and scipy.  With TRACE = 1 the package's layers
are wrapped before `main` runs and the spans go into the result file.
"""

import json
import os
import resource
import sys
import time


def main() -> int:
    result_path, spawn, trace = sys.argv[1], float(sys.argv[2]), sys.argv[3] == "1"
    cli_args = sys.argv[sys.argv.index("--") + 1:]
    import hypspectra.cli
    ready = time.time()
    tracer = None
    if trace:
        from layertrace import Tracer, install
        tracer = Tracer()
        install(tracer)
    start = time.perf_counter()
    rc = hypspectra.cli.main(cli_args)
    wall = time.perf_counter() - start
    import numpy
    import scipy
    doc = {
        "rc": rc,
        "setup_s": ready - spawn,
        "wall_s": wall,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    if tracer is not None:
        doc["spans"] = tracer.spans
        doc["results"] = tracer.results
    with open(result_path, "w") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
