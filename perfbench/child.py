"""One benchmark repetition, run in a fresh Python process.

Imports `gpid.cli` first (the end of that import is the set-up time
mark), then reads a job from stdin: `{"calls": [[instance id, argv],
...], "trace": bool}`.  Each argv goes to one in-process
`gpid.cli.main(argv)` call with stdout and stderr captured.  The last
line written to the real stdout is one JSON object with the captured
outputs, the wall and CPU time of each call, the speed probes taken
before the first call and after every call and, when tracing, the
recorded spans.

With `--setup-only` the process exits right after the import and
reports only the set-up mark.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gpid.cli  # noqa: E402  (import cost is part of the measured set-up)

READY_AT = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

PROBE_RUNS, PROBE_STEPS = 3, 2000


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def speed_probe() -> float:
    """Seconds taken by a fixed loop of the dict and tuple work that
    dominates gpid's pure-Python layers: the fastest of a few runs, so the
    cache misses left behind by the previous call do not count.  It
    tracks how fast the host runs the interpreter at the moment."""
    best = float("inf")
    for _ in range(PROBE_RUNS):
        start = time.perf_counter()
        table: dict = {}
        for i in range(PROBE_STEPS):
            key = (i % 97, i % 13)
            table[key] = table.get(key, 0) + i
        best = min(best, time.perf_counter() - start)
    return best


def _call(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    exc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = gpid.cli.main(argv)
        except SystemExit as stop:
            rc = stop.code if isinstance(stop.code, int) else int(stop.code is not None)
        except Exception as error:  # any crash is a measured failure
            rc, exc = None, f"{type(error).__name__}: {error}"
    return {"rc": rc, "exc": exc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main() -> int:
    if "--setup-only" in sys.argv[1:]:
        print(json.dumps({"ready_at": READY_AT}))
        return 0
    job = json.load(sys.stdin)
    tracer = None
    if job["trace"]:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    results = []
    probes = [speed_probe()]
    for ident, argv in job["calls"]:
        if tracer is not None:
            tracer.instance = ident
        cpu0, wall0 = _cpu_s(), time.perf_counter()
        result = _call(argv)
        result["wall_s"] = time.perf_counter() - wall0
        result["cpu_s"] = _cpu_s() - cpu0
        results.append(result)
        probes.append(speed_probe())
    report = {
        "ready_at": READY_AT,
        "peak_rss_mb": _peak_rss_mb(),
        "probes": probes,
        "results": results,
    }
    if tracer is not None:
        report["spans"] = tracer.spans
        report["graph_cache"] = tracer.graph_cache_info()
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
