"""One cold pass over a workload's query battery, in a fresh interpreter.

``run.py`` starts this script once per pass:

    python3 labbench/child.py WORKLOAD SEED TRACE SPANS_PATH

It imports ``littlelab`` from the checkout's ``src``, builds the battery from
the seed, prints ``ready``, answers the queries back to back in one thread,
and prints one JSON line with the per-query times, the failed checks, its
peak resident memory and, when TRACE is 1, the per-layer metrics.  Spans of
a traced pass are written to SPANS_PATH.

The speed of a shared host drifts by tens of percent over seconds and
minutes, for CPU time as much as for wall time.  So the pass also times a
fixed reference loop before the import, before ``ready``, and after every
stretch of about ``SEGMENT_S`` of query time.  Each query's time is scaled by
``REFERENCE_S`` over the reference time measured around it: the result is
the time the query takes on a host whose reference loop takes exactly
``REFERENCE_S``.  Set-up time is scaled the same way.  The raw times are
reported too.
"""

from __future__ import annotations

import importlib.util
import json
import os
import platform
import random
import resource
import sys
import time
import traceback

# Time the reference loop takes at the host's usual speed.  A fixed constant:
# changing it rescales every time the benchmark reports.
REFERENCE_S = 1.3e-3
# Query time between two timings of the reference loop.
SEGMENT_S = 0.05


def reference_s() -> float:
    """Time of one fixed loop of small-integer and dict work and one of
    big-integer products, combined as their geometric mean."""
    start = time.perf_counter()
    total, table = 0, {}
    for k in range(6000):
        total += k * k % 7
        table[k & 63] = total
    middle = time.perf_counter()
    big = 3 ** 15000
    for _ in range(3):
        big = (big * big) >> 15000
    end = time.perf_counter()
    return ((middle - start) * (end - middle)) ** 0.5


def settled_reference_s() -> float:
    """Median of three reference timings, for the two taken around set-up,
    where the first run of the loop in a fresh process is slow."""
    return sorted(reference_s() for _ in range(3))[1]


def main(argv: list[str]) -> int:
    calibrating = time.perf_counter()
    first_reference = settled_reference_s()
    calibration_s = time.perf_counter() - calibrating
    workload, seed, trace, spans_path = argv[1], int(argv[2]), argv[3] == "1", argv[4]
    source = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

    import littlelab
    if not os.path.abspath(littlelab.__file__).startswith(source + os.sep):
        print(f"littlelab imported from {littlelab.__file__}, not {source}", file=sys.stderr)
        return 2
    import workloads
    battery = workloads.BUILDERS[workload](random.Random(seed))
    tracer = None
    if trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer, extra_modules=[workloads])
    calibrating = time.perf_counter()
    references = [settled_reference_s()]
    calibration_s += time.perf_counter() - calibrating
    setup_scale = REFERENCE_S / (first_reference * references[0]) ** 0.5
    print("ready", flush=True)

    # segment[i]: index in references of the timing just before query i's stretch.
    query_s, segment, failures = [], [], []
    stretch = pause = 0.0
    wall_start = time.perf_counter()
    for index, (kind, query) in enumerate(battery):
        frame = tracer.begin_query(index, kind != "sampler") if tracer else None
        start = time.perf_counter()
        try:
            query()
        except workloads.CheckFailed as exc:
            failures.append(f"query {index} ({kind}): {exc}")
        except Exception as exc:  # an unexpected error fails the query, not the pass
            traceback.print_exc(file=sys.stderr)
            failures.append(f"query {index} ({kind}): {type(exc).__name__}: {exc}")
        query_s.append(time.perf_counter() - start)
        if tracer:
            tracer.end_query(frame)
        segment.append(len(references) - 1)
        stretch += query_s[-1]
        if stretch >= SEGMENT_S or index == len(battery) - 1:
            paused = time.perf_counter()
            references.append(reference_s())
            pause += time.perf_counter() - paused
            stretch = 0.0
    wall_s = time.perf_counter() - wall_start - pause
    scale = [REFERENCE_S / (references[k] * references[k + 1]) ** 0.5 for k in segment]

    report = {
        "wall_s": sum(t * f for t, f in zip(query_s, scale)),
        "query_s": [t * f for t, f in zip(query_s, scale)],
        "raw_wall_s": wall_s,
        "raw_query_s": query_s,
        "setup_scale": setup_scale,
        "calibration_s": calibration_s,
        "reference_s": references,
        "kinds": [kind for kind, _ in battery],
        "failures": failures,
        "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        # A package without a BACKEND switch has only its Python implementation.
        "env": {"python": platform.python_version(),
                "backend": getattr(littlelab, "BACKEND", "python"),
                "gmpy2": importlib.util.find_spec("gmpy2") is not None},
    }
    if tracer:
        report["layers"] = tracer.layer_metrics(wall_s)
        report["layer_calls"] = dict(tracer.checked_entries)
        with open(spans_path, "w") as handle:
            json.dump(tracer.span_dump(), handle)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
