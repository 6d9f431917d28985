"""permprod benchmark: one workload, end-to-end metrics or a per-layer table.

    python3 bench/run.py --workload kernel-moment --seed 1 --seconds 50 --trace 0

Run from anywhere; the package is imported from `src/` next to this
directory, never from an installed copy.  Each measurement runs in a worker
process of its own (bench/worker.py) with BLAS pinned to one thread, and
calls into the library closed-loop: the next call starts when the previous
one returns.

--trace 0 sets the workload up three times (two set-up-only processes and
the measuring one) and reports the end-to-end metrics.  --trace 1 runs an
untraced and then a traced process for half of --seconds each and reports
the per-layer table; only the traced process patches library functions.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Exit code 0 when a result
was printed, 2 on bad arguments or a checkout without the package, 1 when a
worker failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("kernel-moment", "chain-sofic")
# pinned in every worker's environment; recorded with the results
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
DEADLINE_S = 170  # every worker is killed past this point of the run
SETUP_PROBES = 2  # set-up-only processes besides the measuring one

UNITS = {  # end-to-end metric -> unit
    "wall_s": "s",
    "cpu_s": "s",
    "units_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# call latency percentiles are printed, not put in the JSON: only two
# workloads make this many calls, and the percentiles spread too widely on
# a shared machine to hold a bound
PERCENTILE_MIN_CALLS = 100


class WorkerFailed(RuntimeError):
    pass


def percentile(values, q):
    """Linear interpolation between closest ranks, q in [0, 1]."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def git_sha(root: Path):
    """HEAD of a git checkout, read from .git without running git; None
    when the checkout is not a repository."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "permprod").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


class Runner:
    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started = time.monotonic()
        self.work = BENCH / ".work" / f"{workload}-{os.getpid()}"
        self.env = dict(os.environ, **PINNED_ENV)

    def worker(self, mode: str, seconds: float, tag: str) -> dict:
        cmd = [sys.executable, str(BENCH / "worker.py"), str(ROOT), str(self.work / tag),
               self.workload, str(self.seed), str(seconds), mode]
        left = DEADLINE_S - (time.monotonic() - self.started)
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True, timeout=max(left, 1))
        except subprocess.TimeoutExpired as exc:
            raise WorkerFailed(f"{mode} worker passed the {DEADLINE_S} s deadline") from exc
        if proc.returncode != 0:
            raise WorkerFailed(f"{mode} worker exit {proc.returncode}:\n{proc.stderr[-4000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def end_to_end(self):
        setups = [self.worker("setup", 0, f"setup{i}")["setup_s"] for i in range(SETUP_PROBES)]
        m = self.worker("measure", self.seconds, "measure")
        passes = m["passes"]
        # each call at its median over the passes: a shared host can slow a
        # call down by up to 2x in episodes of seconds, and a median of
        # three or more passes leaves such an episode out
        calls = range(len(passes[0]["latencies_s"]))
        lat = [statistics.median(p["latencies_s"][i] for p in passes) for i in calls]
        wall = sum(lat)
        metrics = {
            "wall_s": wall,
            "cpu_s": sum(statistics.median(p["cpu_s"][i] for p in passes) for i in calls),
            "units_per_s": m["units_per_pass"] / wall,
            "setup_s": statistics.median(setups + [m["setup_s"]]),
            "peak_rss_mb": m["peak_rss_mb"],
        }
        lines = [
            f"passes: {len(passes)} (wall {', '.join(format(p['wall_s'], '.3f') for p in passes)} s); "
            f"units per pass: {m['units_per_pass']}; calls per pass: {m['calls_per_pass']}",
            f"set-up: median of {len(setups) + 1} processes; each call at its median of {len(passes)} passes",
            f"failed_frac: {m['failed']}/{m['attempted']} = {m['failed'] / m['attempted']:g}",
        ]
        if len(lat) >= PERCENTILE_MIN_CALLS:
            lines.append(f"call latency over {len(lat)} calls: p50 {1e3 * percentile(lat, 0.5):.3f} ms, "
                         f"p90 {1e3 * percentile(lat, 0.9):.3f} ms")
        for name, value in metrics.items():
            lines.append(f"  {name:<12} {value:>14.6f} {UNITS[name]}")
        return m, {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}, lines, [m]

    def per_layer(self):
        u = self.worker("measure", self.seconds / 2, "measure")
        t = self.worker("trace", self.seconds / 2, "trace")
        if u["units_per_pass"] != t["units_per_pass"]:
            t["problems"].append(
                f"units per pass differ: untraced {u['units_per_pass']}, traced {t['units_per_pass']}")
        layers = dict(t["layers"])
        untraced = statistics.median(p["wall_s"] for p in u["passes"])
        traced = statistics.median(p["wall_s"] for p in t["passes"])
        layers["trace_overhead_s"] = traced - untraced
        lines = [f"untraced pass {untraced:.3f} s, traced pass {traced:.3f} s "
                 f"({len(u['passes'])} and {len(t['passes'])} passes); values are per pass"]
        timed = sorted((k for k in layers if k.endswith(".self_s") and layers[k]), key=lambda k: -layers[k])
        for k in timed:
            name = k[: -len(".self_s")]
            calls = layers.get(f"{name}.calls", "-")
            lines.append(f"  {name:<40} calls {calls:>9}  self {layers[k]:10.4f} s  {100 * layers[k] / traced:5.1f}%")
        for k in sorted(layers):
            if not k.endswith((".self_s", ".calls")):
                lines.append(f"  {k:<40} {layers[k]}")
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
        return t, metrics, lines, [u, t]

    def run(self, trace: bool):
        try:
            main, metrics, lines, workers = self.per_layer() if trace else self.end_to_end()
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
            try:
                (BENCH / ".work").rmdir()
            except OSError:
                pass  # another run is still using it
        problems = [p for w in workers for p in w["problems"]]
        attempted = sum(w["attempted"] for w in workers)
        failed = sum(w["failed"] for w in workers)
        provenance = {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            **main["env"],
            "pinned_env": PINNED_ENV,
            "git_sha": git_sha(ROOT),
            "src_sha256": source_digest(ROOT),
            "seed": self.seed,
            "seconds": self.seconds,
            "inputs": main["sizes"],
        }
        print(f"permprod benchmark: workload {self.workload}, seed {self.seed}, "
              f"{self.seconds:g} s, {'traced' if trace else 'untraced'}")
        print("provenance: " + json.dumps(provenance, sort_keys=True))
        for line in lines:
            print(line)
        for note in main["notes"]:
            print("note: " + note)
        for p in problems:
            print("FAILED: " + p)
        result = {
            "correct": failed == 0 and not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
        print(json.dumps(result))


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return {"calls": "count", "bytes": "bytes", "ops": "ops", "points": "points"}[name.rsplit(".", 1)[1]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in ("src/permprod/__init__.py", "fixtures/appendix_a.json") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {ROOT} is not a permprod checkout (missing {', '.join(missing)})", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("error: --seconds must be positive and --seed non-negative", file=sys.stderr)
        return 2
    try:
        Runner(args.workload, args.seed, args.seconds).run(bool(args.trace))
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
