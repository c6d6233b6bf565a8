"""One `pipeline.run` in a fresh interpreter, started by run.py.

Usage: python3 child.py CONFIG RESULT_JSON MODE

MODE is `run` (untraced), `trace` (spans installed first) or `probe`
(stop at the entry to run(), to sample set-up time).  The child writes
RESULT_JSON with its CLOCK_MONOTONIC time at the entry to run(), the
run's wall time and CPU time, its own peak RSS and the environment it ran
in.
"""

import json
import os
import resource
import sys
import time


def main(argv) -> int:
    config_path, result_path, mode = argv[1:4]
    import numpy

    import fuzzterm
    from fuzzterm import kernels, pipeline

    config = pipeline.load_config(config_path)
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    out = {
        "entered": time.monotonic(),
        "fuzzterm": fuzzterm.__file__,
        "env": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "numba_enabled": kernels.NUMBA_ENABLED,
        },
    }
    if mode != "probe":
        start, cpu_start = time.perf_counter(), time.process_time()
        pipeline.run(config)
        out["run_s"] = time.perf_counter() - start
        out["run_cpu_s"] = time.process_time() - cpu_start
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            out["layers"] = tracer.metrics(out["run_s"])
            out["absent"] = tracer.absent
            out["broken_counters"] = sorted(tracer.broken_counters)
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(out, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
