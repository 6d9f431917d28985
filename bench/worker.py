"""One benchmark process: set up a workload, run timed passes, check results.

Started by run.py, never imported by it, so that each process pays its own
imports (part of set-up) and only a traced process ever sees patched
functions.  Prints one JSON object on its last line of standard output.

    python3 bench/worker.py ROOT WORK WORKLOAD SEED SECONDS MODE

MODE is `setup` (set up and stop), `measure` (untraced passes) or `trace`
(passes with spans around the library's public functions).
"""

import time

START = time.perf_counter()

import dataclasses  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from typing import NamedTuple  # noqa: E402


MIN_PASSES = 3  # a per-call median needs three passes to drop a slow one


class Raised(NamedTuple):
    """The result of a call that raised."""

    trace: str
    error: str


def environment() -> dict:
    """numpy version, BLAS library, and the thread count BLAS reports."""
    import ctypes
    import glob

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        name = "unknown"
    threads = None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"numpy": np.__version__, "blas": name, "blas_threads": threads}


def record(wl, index, result, out_dir):
    """The comparable form of a call's result; an output that cannot be read
    back counts as a call that raised."""
    if isinstance(result, Raised):
        return result
    try:
        return wl.record(index, result, out_dir)
    except Exception as exc:
        return Raised(traceback.format_exc(limit=-3), f"reading the output: {exc!r}")


def verdict(wl, index, rec):
    """Check one call's record; a call that raised, a check that raised and a
    check that found a problem all count as failed and verify no units."""
    from workloads import Checked

    if isinstance(rec, Raised):
        return Checked(0, [f"raised {rec.error}: {rec.trace}"])
    try:
        checked = wl.check(index, rec)
    except Exception as exc:
        return Checked(0, [f"check raised {exc!r}: {traceback.format_exc(limit=-3)}"])
    return dataclasses.replace(checked, units=0) if checked.problems else checked


def run(root, work, workload, seed, seconds, mode, small=False):
    """Set up, then run passes for about `seconds` (at least MIN_PASSES);
    returns the measurements as a plain dict."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import permprod
    import tracer as tr
    import workloads

    if not os.path.abspath(permprod.__file__).startswith(os.path.abspath(src) + os.sep):
        raise RuntimeError(f"permprod imported from {permprod.__file__}, not from {src}")
    wl = workloads.WORKLOADS[workload](seed, root, work, small)
    wl.warm_up()
    out = {"setup_s": time.perf_counter() - START, "sizes": wl.sizes()}
    if mode == "setup":
        return out

    calls = wl.calls()
    tracer = tr.Tracer() if mode == "trace" else None
    restore = tr.install(tracer) if tracer else None
    passes, results, layers = [], [], []
    clock, cpu = time.perf_counter, time.process_time
    began = clock()
    try:
        # at least MIN_PASSES, then another pass only while it ends nearer to
        # `seconds` than stopping does
        while len(passes) < MIN_PASSES or (clock() - began) * (1 + 0.5 / len(passes)) < seconds:
            before = tracer.snapshot() if tracer else None
            p = len(passes)
            lat, lat_cpu, res = [], [], []
            w0 = clock()
            for i, call in enumerate(calls):
                d = os.path.join(work, f"p{p}", f"c{i}")
                t0, c0 = clock(), cpu()
                try:
                    res.append(call.run(d))
                except Exception as exc:  # a failed call, not a failed benchmark
                    res.append(Raised(traceback.format_exc(limit=-3), repr(exc)))
                lat.append(clock() - t0)
                lat_cpu.append(cpu() - c0)
            wall = clock() - w0
            passes.append({"wall_s": wall, "latencies_s": lat, "cpu_s": lat_cpu})
            results.append(res)
            if tracer:
                after = tracer.snapshot()
                delta = {k: v - before.get(k, 0) for k, v in after.items()}
                layers.append(tr.layer_metrics(delta, wall))
    finally:
        if restore:
            restore()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["passes"] = passes

    # checks run after timing, with the originals back in place
    problems, notes, failed = [], [], 0
    units = 0
    first = []

    for p, res in enumerate(results):
        for i, r in enumerate(res):
            rec = record(wl, i, r, os.path.join(work, f"p{p}", f"c{i}"))
            if p == 0:
                checked = verdict(wl, i, rec)
                first.append((rec, checked))
                units += checked.units
                if checked.note:
                    notes.append(checked.note)
            elif rec != first[i][0]:
                checked = verdict(wl, i, rec)
                checked.problems.append(f"pass {p} differs from pass 0")
            else:
                checked = first[i][1]
            if checked.problems:
                failed += 1
                problems.extend(f"pass {p} call {i} ({calls[i].label}): {x}" for x in checked.problems)
    out["env"] = environment()
    out.update(attempted=len(calls) * len(passes), failed=failed, units_per_pass=units,
               problems=problems[:20], notes=sorted(set(notes)),
               calls_per_pass={label: sum(1 for c in calls if c.label == label) for label in
                               dict.fromkeys(c.label for c in calls)})
    if tracer:
        counts = [{k: v for k, v in layer.items() if not k.endswith("_s")} for layer in layers]
        if any(c != counts[0] for c in counts):
            out["problems"].append("per-layer counts differ between passes")
            out["failed"] += 1
        out["layers"] = dict(counts[0])
        out["layers"].update({k: statistics.median(layer[k] for layer in layers)
                              for k in layers[0] if k not in counts[0]})
    return out


def main(argv):
    root, work, workload, seed, seconds, mode = argv
    out = run(root, work, workload, int(seed), float(seconds), mode)
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
