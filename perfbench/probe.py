"""Fresh-interpreter set-up probe: time ``import causalq.cli``, then describe
the environment.  Prints one JSON object.  Nothing is imported before the
timed import, so the figure is what a cold ``causalq`` process pays.
"""
import sys
import time

_t0 = time.perf_counter()
import causalq.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0


def environment() -> dict:
    import importlib.metadata as md
    import os

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = causalq.cli._parser().parse_args(["run", "-"]).threads
    return {
        "python": sys.version.split()[0],
        "numpy": md.version("numpy"),
        "scipy": md.version("scipy"),
        "jsonschema": md.version("jsonschema"),
        "nproc": os.cpu_count(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "thread_env": {k: v for k, v in os.environ.items()
                       if k.endswith(("_NUM_THREADS", "_MAX_THREADS"))
                       or k == "VECLIB_MAXIMUM_THREADS"},
        "cli_threads_default": threads,
    }


if __name__ == "__main__":
    import json

    print(json.dumps({"import_s": IMPORT_S, "module": causalq.cli.__file__,
                      "env": environment()}))
