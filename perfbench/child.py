"""One benchmark operation: a single ``latspec.cli.main`` call in this
fresh interpreter, timed from outside the library.

    python3 perfbench/child.py RESULT.json [--trace SPANS.json] -- CLI ARGS...
    python3 perfbench/child.py RESULT.json --setup-only

The result file gets the monotonic time at which ``import latspec.cli``
returned (the parent subtracts its spawn time to get setup_s), the wall and
CPU time of the call, the exit code or the exception, peak RSS and the
run context.  With --trace the call runs under `tracing.Tracer`, whose
spans go to SPANS.json and whose per-module summary goes into the result.
"""

import sys
import time

import latspec.cli  # setup_s ends when this import returns

T_READY = time.clock_gettime(time.CLOCK_MONOTONIC)

# the benchmark's own imports come after the clock reading
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402


def blas_info() -> dict:
    """Thread count and build string of the OpenBLAS numpy loaded, if any."""
    import numpy

    libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            get_threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                return {"threads": get_threads(), "config": get_config().decode()}
    return {"threads": None, "config": None}


def context() -> dict:
    import numpy
    import scipy

    blas = blas_info()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas["config"],
        "blas_threads": blas["threads"],
    }


def main(argv) -> None:
    result_path = argv[0]
    out = {"t_ready": T_READY}
    if argv[1:] == ["--setup-only"]:
        with open(result_path, "w") as fh:
            json.dump(out, fh)
        return
    spans_path = argv[2] if argv[1] == "--trace" else None
    cli_args = argv[argv.index("--") + 1:]
    tracer = None
    call = latspec.cli.main
    if spans_path:
        from tracing import Tracer

        tracer = Tracer(os.path.basename(spans_path))
        tracer.install()
        call = lambda a: tracer.run(latspec.cli.main, a)  # noqa: E731

    rc, error = None, None
    c0 = time.process_time()
    w0 = time.perf_counter()
    try:
        rc = call(cli_args)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # an exception escaping main is a failed op
        error = f"{type(exc).__name__}: {exc}"
    w1 = time.perf_counter()
    c1 = time.process_time()

    out.update(
        rc=rc,
        error=error,
        solve_s=w1 - w0,
        cpu_s=c1 - c0,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        context=context(),
    )
    if tracer is not None:
        tracer.dump(spans_path)
        out["layers"] = tracer.summarize()
    with open(result_path, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
