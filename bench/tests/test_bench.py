"""Tests of the benchmark itself: tiny runs of every workload, the self-time
arithmetic of nested spans, and wrappers that change nothing.

    python3 -m pytest bench/tests -q
"""

import json
import os
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer as tr  # noqa: E402
import worker  # noqa: E402


class FakeClock:
    """Returns the scripted instants in order."""

    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("mode", ["measure", "trace"])
def test_tiny_run_checks_clean(workload, mode, tmp_path):
    out = worker.run(str(ROOT), str(tmp_path), workload, 3, 0, mode, small=True)
    assert out["problems"] == []
    assert out["failed"] == 0
    assert out["attempted"] == sum(out["calls_per_pass"].values()) * len(out["passes"])
    assert out["units_per_pass"] > 0
    if mode == "trace":
        layers = out["layers"]
        assert layers["cli.main.calls"] > 0 or layers["verify.exponent_suite.calls"] > 0
        assert layers["other.self_s"] >= 0


def test_tiny_runs_repeat_exactly(tmp_path):
    a = worker.run(str(ROOT), str(tmp_path / "a"), "kernel-moment", 5, 0, "trace", small=True)
    b = worker.run(str(ROOT), str(tmp_path / "b"), "kernel-moment", 5, 0, "measure", small=True)
    assert a["units_per_pass"] == b["units_per_pass"]
    c = worker.run(str(ROOT), str(tmp_path / "c"), "kernel-moment", 5, 0, "trace", small=True)
    counts = {k: v for k, v in a["layers"].items() if not k.endswith("_s")}
    assert counts == {k: v for k, v in c["layers"].items() if not k.endswith("_s")}


def test_nested_spans_self_time():
    t = tr.Tracer(clock=FakeClock(0.0, 1.0, 4.0, 10.0))
    outer = t.enter()  # 0
    inner = t.enter()  # 1
    t.exit("inner", inner)  # 4: inner took 3
    t.exit("outer", outer)  # 10: outer took 10, 3 of them in inner
    assert t.self_s == {"inner": 3.0, "outer": 7.0}


def test_generator_spans_cover_only_resumptions():
    t = tr.Tracer(clock=FakeClock(0.0, 2.0, 5.0, 6.0, 7.0, 8.0, 9.0, 13.0))

    def gen():
        yield 1
        yield 2

    parent = t.enter()  # 0
    it = t.wrap("gen", gen)()
    assert next(it) == 1  # resumption 2 -> 5
    assert next(it) == 2  # resumption 6 -> 7
    assert list(it) == []  # resumption 8 -> 9
    t.exit("parent", parent)  # 13
    assert t.calls["gen"] == 1
    assert t.self_s["gen"] == 5.0
    assert t.self_s["parent"] == 8.0


def test_wrappers_return_what_the_function_returns():
    t = tr.Tracer()
    sentinel = object()
    assert t.wrap("f", lambda x, y=0: (sentinel, x, y))(1, y=2) == (sentinel, 1, 2)
    assert t.wrap("f", lambda: sentinel)() is sentinel
    assert t.calls["f"] == 2

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        t.wrap("boom", boom)()
    assert t._child_time == []


def test_install_patches_every_name_and_restores():
    from permprod import partitions, traffic, verify
    from permprod.partitions import Partition

    p = Partition.of(4, [(0, 1), (2,), (3,)])
    q = Partition.of(4, [(0,), (1, 2), (3,)])
    before = (partitions.join(p, q), list(partitions.enumerate_partitions(4, p)), Partition.from_labels("abab"))
    originals = (traffic.growth_exponent, verify.growth_exponent, Partition.__dict__["from_labels"])
    assert originals[0] is originals[1]
    t = tr.Tracer()
    restore = tr.install(t)
    try:
        assert verify.growth_exponent is traffic.growth_exponent is not originals[0]
        after = (partitions.join(p, q), list(partitions.enumerate_partitions(4, p)), Partition.from_labels("abab"))
    finally:
        restore()
    assert after == before
    assert t.calls["partitions.join"] == 1
    assert t.calls["partitions.enumerate_partitions"] == 1
    assert t.calls["partitions.Partition.from_labels"] >= 2  # join builds one too
    assert (traffic.growth_exponent, verify.growth_exponent, Partition.__dict__["from_labels"]) == originals


def test_benchmark_json_matches_what_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    layers = tr.layer_metrics({}, 1.0)
    layers["trace_overhead_s"] = 0.0
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: run.layer_unit(k) for k in layers}


def test_runner_refuses_a_checkout_without_the_package(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".work"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "kernel-moment", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not os.path.exists(tmp_path / "bench" / ".work")


def test_a_raising_call_counts_as_failed(tmp_path, monkeypatch):
    import workloads

    def broken(*args, **kwargs):
        raise ValueError("broken")

    monkeypatch.setattr(workloads.chains, "signed_expansion_check", broken)  # not used by the warm-up
    out = worker.run(str(ROOT), str(tmp_path), "kernel-moment", 3, 0, "measure", small=True)
    checks = out["calls_per_pass"]["signed_expansion_check"]
    assert out["failed"] == worker.MIN_PASSES * checks
    assert "ValueError" in out["problems"][0]


def test_unreadable_outputs_and_failed_checks_verify_no_units():
    from workloads import Checked

    class Fake:
        def record(self, index, result, out_dir):
            return result["outputs"]  # a result without outputs raises

        def check(self, index, rec):
            if index == 0:
                return rec["report"]  # a record without a report raises
            return Checked(7, [] if index == 1 else ["wrong"])

    wl = Fake()
    unread = worker.record(wl, 0, {}, "")
    assert isinstance(unread, worker.Raised)
    assert worker.verdict(wl, 0, unread).units == 0
    raised = worker.verdict(wl, 0, {})
    assert raised.units == 0 and "KeyError" in raised.problems[0]
    assert worker.verdict(wl, 1, {}) == Checked(7)
    assert worker.verdict(wl, 2, {}) == Checked(0, ["wrong"])
