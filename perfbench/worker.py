"""One fresh process running a command list through `multicyclic.cli.main`.

Usage: worker.py SPEC_JSON, where the spec holds "commands" (a list of
argv lists), "trace" (bool) and "spans" (a path for the traced run's
spans, or null).  The worker imports the package, notes on the
system-wide monotonic clock when it is ready, runs the commands with
their standard output captured, and prints one JSON object: the ready
time, per-command exit code, output and time, the command list's wall
and CPU time, the peak RSS, and for a traced run the per-layer metrics.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def _cpu_s():
    use = resource.getrusage(resource.RUSAGE_SELF)
    return use.ru_utime + use.ru_stime


def main():
    spec = json.loads(sys.argv[1])
    from multicyclic.cli import main as cli_main
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    import numpy

    tracer = None
    if spec["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    results = []
    cpu0, t0 = _cpu_s(), time.perf_counter()
    for i, argv in enumerate(spec["commands"]):
        if tracer is not None:
            tracer.command = i
        out, err = io.StringIO(), io.StringIO()
        c0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli_main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:
                traceback.print_exc()
                rc = None
        results.append({"rc": rc, "s": time.perf_counter() - c0,
                         "stdout": out.getvalue(), "stderr": err.getvalue()})
    wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
    report = {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": numpy.__version__,
        "commands": results,
    }
    if tracer is not None:
        tracer.uninstall()
        report["layers"] = tracer.metrics(wall)
        if spec.get("spans"):
            tracer.dump(spec["spans"])
    print(json.dumps(report))


if __name__ == "__main__":
    main()
