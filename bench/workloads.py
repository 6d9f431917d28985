"""The four workloads: inputs from the seed, the entry calls, and the checks.

Each workload builds its inputs once (set-up), then hands the runner a list
of entry calls that make up one pass.  Every pass runs the same calls on the
same inputs, so anything a pass counts repeats exactly.  After the timed
phase the runner turns each result into a record, and `check` verifies a
record against references that do not come from the code under test
(`oracles.py`), returning the verified work units it stands for.

Seeded inputs fill a fixed profile (how many graphs of each kernel-tuple
count, and so on), so two seeds give different graphs with the same amount
of work and the same spread of call sizes.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import oracles
from oracles import THREE_COLOR_MODEL

from permprod import chains, cli, serialize, sofic, verify
from permprod.strings import ColorGraph, StringAssignment, is_g_reduced

COLORS = ("B", "G", "R")
PARTITION_GUARD = 10**7


@dataclass
class Call:
    label: str
    run: Callable[[str], object]  # out_dir -> result; out_dir is unique per pass and call


@dataclass
class Checked:
    units: int
    problems: list[str] = field(default_factory=list)
    note: str | None = None  # shown with the metrics, never counted as a failure


def _draw_graph(rng: random.Random, nv_range, extra_edges, cycle_share: float):
    nv = rng.randint(*nv_range)
    if rng.random() < cycle_share:
        edges = [(i, (i + 1) % nv) for i in range(nv)]
    else:
        ne = rng.randint(max(nv + extra_edges[0], 1), nv + extra_edges[1])
        edges = [(rng.randrange(nv), rng.randrange(nv)) for _ in range(ne)]
    colors = [rng.choice(COLORS) for _ in edges]
    return nv, edges, colors


def _fill_profile(profile: dict, draw, slots, max_draws: int = 200_000):
    """Draw candidates until every slot of `profile` (key -> count) is
    filled; `slots` maps a candidate to the keys it may fill, in order of
    preference."""
    want = dict(profile)
    picked = []
    for _ in range(max_draws):
        cand = draw()
        key = next((k for k in slots(cand) if want.get(k, 0) > 0), None)
        if key is not None:
            want[key] -= 1
            picked.append((key, cand))
            if not any(want.values()):
                return picked
    raise RuntimeError(f"input profile not filled after {max_draws} draws: {want}")


def _fixture(nv, edges, colors, labels="identity", seed=0) -> dict:
    return dict(
        THREE_COLOR_MODEL,
        vertices=nv,
        test_edges=[[u, v, c] for (u, v), c in zip(edges, colors)],
        labels=labels,
        seed=seed,
    )


def _read_outputs(out_dir: str) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = fh.read()
    return out


def _write_json(path: str, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


class Workload:
    name = ""

    def __init__(self, seed: int, root: str, work: str, small: bool = False):
        self.seed = seed
        self.root = root
        self.work = work
        self.small = small
        self.rng = random.Random(seed)
        os.makedirs(work, exist_ok=True)

    def sizes(self) -> dict:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def calls(self) -> list[Call]:
        raise NotImplementedError

    def record(self, index: int, result, out_dir: str):
        """Comparable form of a call's result (outputs read back from disk)."""
        raise NotImplementedError

    def check(self, index: int, record) -> Checked:
        raise NotImplementedError


# ---------------------------------------------------------------------------


class KernelSweep(Workload):
    """Growth-exponent sweep plus the border-merge search: partitions,
    kernel-class analysis and bridge decompositions, no numerics."""

    name = "kernel-sweep"
    # kernel tuples per graph -> number of graphs (79 graphs, 5568 tuples).
    # Criterion 4 sweeps 3037 graphs and 209 737 tuples (counted as
    # prod Bell); by tuple mass, the tuples sit in graphs of <= 10, 11-75,
    # 76-520, 521-1560 and > 1560 tuples in the shares 4.5, 3.4, 15.5, 29.4
    # and 47.2 %.  This profile keeps those shares (4.5, 3.5, 15.4, 28.0 and
    # 48.6 %) within one pass.  One graph of 2704 tuples stands for the
    # band above 1560, whose graphs reach 10 556 tuples: a tuple costs about
    # the same in a graph of any size, and a larger graph would make the
    # pass several times longer.
    PROFILE = {
        1: 15, 2: 23, 4: 15, 5: 6, 8: 1, 10: 9,
        20: 1, 25: 2, 50: 1, 75: 1,
        150: 1, 260: 1, 450: 1,
        1560: 1,
        2704: 1,
    }
    SMALL_PROFILE = {1: 2, 2: 2, 5: 1, 10: 1}

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        profile = self.SMALL_PROFILE if self.small else self.PROFILE

        def slots(cand):
            nv, edges, colors = cand
            if not oracles.two_edge_connected(nv, edges):
                return ()
            return (oracles.admissible_tuples(THREE_COLOR_MODEL, nv, edges, colors),)

        picked = _fill_profile(
            profile, lambda: _draw_graph(self.rng, (3, 6), (0, 2), 0.3), slots
        )
        self.graphs = [
            (tuples, serialize.load_test_graph(_fixture(*cand), 2)) for tuples, cand in picked
        ]
        g, a = serialize.model_from_dict(THREE_COLOR_MODEL)
        self.specs = []
        for k in (1, 2, 3):
            for chi in itertools.product(g.colors, repeat=k):
                if not is_g_reduced(chi, g):
                    continue
                for total in range(k, 4):
                    for ell in _compositions(total, k):
                        self.specs.append(chains.ChainSpec(g, a, chi, ell))
        if self.small:
            self.specs = self.specs[:2]

    def sizes(self):
        return {
            "graphs": len(self.graphs),
            "kernel_tuples": sum(t for t, _ in self.graphs),
            "chain_specs": len(self.specs),
        }

    def warm_up(self):
        verify.exponent_suite(self.graphs[0][1], PARTITION_GUARD)
        chains.inconsistency_search(self.specs[0])

    def calls(self):
        out = []
        for _, t in self.graphs:
            out.append(Call("exponent_suite", lambda d, t=t: verify.exponent_suite(t, PARTITION_GUARD)))
        for spec in self.specs:
            out.append(Call("inconsistency_search", lambda d, s=spec: chains.inconsistency_search(s)))
            out.append(
                Call(
                    "inconsistency_search",
                    lambda d, s=spec: chains.inconsistency_search(s, drop_border_condition=True),
                )
            )
        return out

    def record(self, index, result, out_dir):
        if index < len(self.graphs):
            return tuple(result)
        return tuple(tuple((s, p.blocks) for s, p in pi.items()) for pi in result)

    def check(self, index, record):
        if index < len(self.graphs):
            return _check_exponent_suite(list(record), self.graphs[index][0])
        drop = (index - len(self.graphs)) % 2 == 1
        if not drop:
            return Checked(0, [] if record == () else [f"{len(record)} border-consistent tree tuples"])
        problems = []
        if not record:
            problems.append("no tree tuples without the border condition")
        if len(set(record)) != len(record):
            problems.append("repeated tree tuples")
        return Checked(len(record), problems)


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _count_in(detail: str, what: str = "(?:kernel|admissible) tuples") -> int | None:
    m = re.search(rf"(\d+) {what}", detail)
    return int(m.group(1)) if m else None


def _check_exponent_suite(results, tuples: int) -> Checked:
    """All four exponent laws pass and the sweep saw every admissible tuple."""
    names = [r[0] for r in results]
    problems = [f"{r[0]}: {r[2]}" for r in results if not r[1]]
    if names != ["exponent-nonpositive", "tree-equality", "leaf-count-at-equality", "tree-injectivity"]:
        problems.append(f"unexpected checks {names}")
    else:
        seen = _count_in(results[0][2])
        if seen != tuples:
            problems.append(f"swept {seen} kernel tuples, expected {tuples}")
    return Checked(tuples, problems)


# ---------------------------------------------------------------------------


class MomentCheck(Workload):
    """traffic-check over seeded fixtures and the worked example, plus the
    signed expansion identity: labeling enumeration and graph sums."""

    name = "moment-check"
    DRAWS = 3  # the traffic-check default
    # (side n, two-edge connected, kernel tuples) -> fixtures; 94 fixtures,
    # a quarter of them two-edge connected
    PROFILE = {
        (2, False, 4): 4, (2, False, 5): 4, (2, False, 8): 4, (2, False, 10): 6,
        (2, False, 20): 6, (2, False, 25): 4, (2, False, 30): 4, (2, False, 50): 4,
        (2, False, 75): 2, (2, False, 150): 2,
        (2, True, 2): 2, (2, True, 4): 3, (2, True, 5): 2, (2, True, 10): 3,
        (2, True, 25): 2, (2, True, 75): 1,
        (3, False, 4): 4, (3, False, 5): 4, (3, False, 8): 4, (3, False, 10): 6,
        (3, False, 20): 4, (3, False, 25): 3, (3, False, 30): 2, (3, False, 50): 2,
        (3, True, 2): 2, (3, True, 4): 3, (3, True, 5): 2, (3, True, 10): 3,
        (3, True, 25): 2,
    }
    SMALL_PROFILE = {(2, False, 4): 1, (2, True, 2): 1, (3, False, 5): 1}
    APPENDIX_SIDES = (2, 3)
    SEEDS_PER_SPEC = 3

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        profile = self.SMALL_PROFILE if self.small else self.PROFILE
        order = sorted(profile)

        def slots(cand):
            nv, edges, colors = cand
            if oracles.component_count(nv, edges) != 1:
                return ()
            twoec = oracles.two_edge_connected(nv, edges)
            tuples = oracles.admissible_tuples(THREE_COLOR_MODEL, nv, edges, colors)
            return ((2, twoec, tuples), (3, twoec, tuples))

        picked = _fill_profile(
            profile, lambda: _draw_graph(self.rng, (3, 5), (-1, 2), 0.0), slots
        )
        picked.sort(key=lambda kc: order.index(kc[0]))
        self.fixtures = []  # (path, n, two-edge connected, kernel tuples)
        for i, ((n, twoec, tuples), cand) in enumerate(picked):
            fx = _fixture(*cand, labels="permutation", seed=self.seed * 1000 + i)
            path = _write_json(os.path.join(self.work, f"fixture{i}.json"), fx)
            self.fixtures.append((path, n, twoec, tuples))
        appendix = os.path.join(self.root, "fixtures", "appendix_a.json")
        with open(appendix) as fh:
            data = json.load(fh)
        edges = [tuple(e[:2]) for e in data["test_edges"]]
        colors = [e[2] for e in data["test_edges"]]
        info = (
            oracles.two_edge_connected(data["vertices"], edges),
            oracles.admissible_tuples(data, data["vertices"], edges, colors),
        )
        self.sides = self.APPENDIX_SIDES[:1] if self.small else self.APPENDIX_SIDES
        self.fixtures = [(appendix, n) + info for n in self.sides] + self.fixtures
        g3, a3 = serialize.model_from_dict(THREE_COLOR_MODEL)
        shared = (ColorGraph.of(["a", "b"], []), StringAssignment.of(["s"], [("s", "a"), ("s", "b")]))
        disjoint = (
            ColorGraph.of(["a", "b"], [("a", "b")]),
            StringAssignment.of(["sa", "sb"], [("sa", "a"), ("sb", "b")]),
        )
        specs = [  # the criterion-6 family
            chains.ChainSpec(*shared, ("a",), (2,)),
            chains.ChainSpec(*shared, ("a", "b"), (1, 1)),
            chains.ChainSpec(*shared, ("a", "b"), (2, 1)),
            chains.ChainSpec(*shared, ("a", "b", "a"), (1, 1, 1)),
            chains.ChainSpec(*disjoint, ("a", "b"), (1, 2)),
            chains.ChainSpec(g3, a3, ("B", "G", "B"), (1, 1, 1)),
        ]
        seeds = [self.seed * 1000 + j for j in range(1 if self.small else self.SEEDS_PER_SPEC)]
        self.expansions = [(spec, n, s) for spec in specs[: 2 if self.small else None] for n in (2, 3) for s in seeds]

    def sizes(self):
        fx = self.fixtures[len(self.sides):]
        return {
            "appendix_sides": list(self.sides),
            "fixtures_n2": sum(1 for f in fx if f[1] == 2),
            "fixtures_n3": sum(1 for f in fx if f[1] == 3),
            "fixtures_two_edge_connected": sum(1 for f in fx if f[2]),
            "fixture_kernel_tuples": sum(f[3] for f in fx),
            "expansion_checks": len(self.expansions),
        }

    def warm_up(self):
        cli.main(["traffic-check", self.fixtures[0][0], "--n", "2", "--out", os.path.join(self.work, "warm")])

    def calls(self):
        out = []
        for path, n, _, _ in self.fixtures:
            out.append(Call("traffic-check", lambda d, p=path, n=n: cli.main(
                ["traffic-check", p, "--n", str(n), "--out", d])))
        for spec, n, s in self.expansions:
            out.append(Call("signed_expansion_check", lambda d, a=(spec, n, s): chains.signed_expansion_check(*a)))
        return out

    def record(self, index, result, out_dir):
        if index < len(self.fixtures):
            return result, _read_outputs(out_dir)
        return result.exact, result.match, str(result.lhs), str(result.rhs), len(result.terms)

    def check(self, index, record):
        if index >= len(self.fixtures):
            exact, match, lhs, rhs, terms = record
            spec = self.expansions[index - len(self.fixtures)][0]
            problems = [] if exact and match else [f"expansion exact={exact} match={match}: {lhs} vs {rhs}"]
            if terms != 4**spec.k:
                problems.append(f"{terms} subset quotients, expected {4 ** spec.k}")
            return Checked(terms, problems)
        _, n, twoec, tuples = self.fixtures[index]
        rc, files = record
        if rc != 0 or "report.json" not in files:
            return Checked(0, [f"traffic-check exit {rc}"])
        report = json.loads(files["report.json"])
        checks = {c["name"]: c for c in report["checks"]}
        problems = [f"{c['name']}: {c['detail']}" for c in report["checks"] if not c["passed"]]
        if not report["passed"] or report["n"] != n:
            problems.append("report not passed")
        units = 0
        kd = checks.get("kernel-decomposition")
        if kd is None or _count_in(kd["detail"]) != tuples or _count_in(kd["detail"], "draws") != self.DRAWS:
            problems.append(f"kernel decomposition did not cover {tuples} tuples in {self.DRAWS} draws: {kd}")
        else:
            units += self.DRAWS * tuples
        if twoec:
            got = checks.get("exponent-nonpositive")
            if got is None or _count_in(got["detail"]) != tuples:
                problems.append(f"exponent suite did not sweep {tuples} tuples: {got}")
            else:
                units += tuples
        elif "skipped" not in checks.get("exponent-suite", {}).get("detail", ""):
            problems.append("exponent suite ran on a graph with a bridge")
        return Checked(units, problems)


# ---------------------------------------------------------------------------


class ChainDecay(Workload):
    """converge on the three-string model: dense lift and O(dim^3) products."""

    name = "chain-decay"
    N_GRID = (2, 4, 8)
    # the ROADMAP config draws 20 samples; a call that long (about 10 s)
    # cannot be repeated often enough in a run to take a median
    SAMPLES = 4
    CHI = ("B", "G", "R")
    ELL = (1, 2, 1)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.n_grid = (2, 4) if self.small else self.N_GRID
        self.samples = 3 if self.small else self.SAMPLES
        cfg = dict(THREE_COLOR_MODEL, chi=list(self.CHI), ell=list(self.ELL),
                   n_grid=list(self.n_grid), samples=self.samples, seed=self.seed)
        self.config = _write_json(os.path.join(self.work, "converge.json"), cfg)
        warm = dict(cfg, n_grid=[2, 4], samples=2)
        self.warm_config = _write_json(os.path.join(self.work, "converge_warm.json"), warm)

    def sizes(self):
        return {"n_grid": list(self.n_grid), "samples": self.samples,
                "largest_dim": max(self.n_grid) ** len(THREE_COLOR_MODEL["strings"])}

    def warm_up(self):
        cli.main(["converge", self.warm_config, "--workers", "1", "--out", os.path.join(self.work, "warm")])

    def calls(self):
        return [Call("converge", lambda d: cli.main(["converge", self.config, "--workers", "1", "--out", d]))]

    def record(self, index, result, out_dir):
        return result, _read_outputs(out_dir)

    def check(self, index, record):
        rc, files = record
        if rc not in (0, 1) or "results.csv" not in files or "summary.json" not in files:
            return Checked(0, [f"converge exit {rc}"])
        lines = files["results.csv"].decode().splitlines()
        problems = []
        if lines[0] != "N,mean,stderr,variance,samples":
            problems.append(f"csv header {lines[0]!r}")
        rows = [line.split(",") for line in lines[1:]]
        if [int(r[0]) for r in rows] != list(self.n_grid):
            problems.append(f"N column {[r[0] for r in rows]}")
        if any(int(r[4]) != self.samples for r in rows):
            problems.append(f"samples column {[r[4] for r in rows]}")
        exact = oracles.converge_means(THREE_COLOR_MODEL, self.CHI, self.ELL, self.n_grid, self.samples, self.seed)
        for r in rows:
            n = int(r[0])
            if n in exact and not oracles.close(float(r[1]), exact[n]):
                problems.append(f"mean at N={n} is {r[1]}, exact {float(exact[n]):.12e}")
        summary = json.loads(files["summary.json"])
        if summary["passed"] != (rc == 0):
            problems.append("summary verdict disagrees with the exit code")
        note = f"converge verdict: exit 0 (slope {summary['slope']})"
        if rc == 1:
            zero = [row["N"] for row in summary["rows"] if row["mean"] == 0]
            why = f"mean is 0 at N={zero}, no slope fitted" if summary["slope"] is None else (
                f"slope {summary['slope']:.3f} outside {summary['slope_band']}")
            note = f"converge verdict: exit 1 ({why}); known defect, not counted as a failure"
        return Checked(len(rows) * self.samples, problems, note)


# ---------------------------------------------------------------------------


S3_TABLE = [  # the symmetric group on three points, generated by 1 and 3
    [0, 1, 2, 3, 4, 5], [1, 2, 0, 4, 5, 3], [2, 0, 1, 5, 3, 4],
    [3, 5, 4, 0, 2, 1], [4, 3, 5, 1, 0, 2], [5, 4, 3, 2, 1, 0],
]


class SoficWords(Workload):
    """sofic-certify: exact word traces, permutation composition and large
    JSON writes."""

    name = "sofic-words"
    GROUPS = {"B": "cyclic:3", "G": "Z", "R": "cyclic:2"}
    # (side n, max word length, vertex group of B); the last one uses a
    # multiplication table
    CONFIGS = ((6, 5, "cyclic:3"), (16, 4, "cyclic:3"), (6, 4, {"table": S3_TABLE, "generators": [1, 3]}))
    SMALL_CONFIGS = ((2, 2, "cyclic:3"), (3, 2, {"table": S3_TABLE, "generators": [1, 3]}))
    CHECKED_WORDS = 16  # word traces recomputed per certificate

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.configs = []
        for i, (n, length, b_group) in enumerate(self.SMALL_CONFIGS if self.small else self.CONFIGS):
            groups = dict(self.GROUPS, B=b_group)
            cfg = dict(THREE_COLOR_MODEL, vertex_groups=groups, n=n, words={"max_length": length}, seed=self.seed)
            path = _write_json(os.path.join(self.work, f"sofic{i}.json"), cfg)
            alphabet = 2 * sum(1 if isinstance(v, str) else len(v["generators"]) for v in groups.values())
            self.configs.append((path, cfg, oracles.signed_word_count(alphabet, length)))
        warm = dict(self.configs[0][1], n=2, words={"max_length": 2})
        self.warm_config = _write_json(os.path.join(self.work, "sofic_warm.json"), warm)

    def sizes(self):
        return {
            "words": [w for _, _, w in self.configs],
            "full_dims": [cfg["n"] ** len(THREE_COLOR_MODEL["strings"]) for _, cfg, _ in self.configs],
        }

    def warm_up(self):
        cli.main(["sofic-certify", self.warm_config, "--out", os.path.join(self.work, "warm")])

    def calls(self):
        return [
            Call("sofic-certify", lambda d, p=path: cli.main(["sofic-certify", p, "--out", d]))
            for path, _, _ in self.configs
        ]

    def record(self, index, result, out_dir):
        return result, _read_outputs(out_dir)

    def check(self, index, record):
        rc, files = record
        _, cfg, words = self.configs[index]
        if rc != 0 or "certificate.json" not in files:
            return Checked(0, [f"sofic-certify exit {rc}"])
        cert = json.loads(files["certificate.json"])
        entries = cert["words"]
        problems = []
        if len(entries) != words or len(files["certificate.csv"].splitlines()) != words + 1:
            problems.append(f"{len(entries)} words certified, expected {words}")
        for e in entries:
            trace = Fraction(e["trace"]["num"], e["trace"]["den"])
            if not 0 <= trace <= 1 or e["deviation"] != float(abs(trace - int(e["trivial"]))):
                problems.append(f"inconsistent entry {e}")
                break
        rep = _product_rep(cfg)
        dim = rep.space.total_dim
        pick = random.Random(self.seed * 31 + index).sample(range(len(entries)), min(self.CHECKED_WORDS, len(entries)))
        for i in sorted(pick):
            e = entries[i]
            word = [(c, j) for c, j in e["word"]]
            want = Fraction(rep.word_permutation(word).fixed_points(), dim)
            if want != Fraction(e["trace"]["num"], e["trace"]["den"]):
                problems.append(f"trace of {word} is {want}, certificate says {e['trace']}")
        return Checked(len(entries), problems)


def _product_rep(cfg: dict):
    """The certified representation, rebuilt from the config the way the CLI
    documents it: left-regular (or cyclic-shift) generators padded to each
    color block, conjugated by the seeded block permutations."""
    g, a = serialize.model_from_dict(cfg)
    n = cfg["n"]
    reps = {}
    for c in g.colors:
        dim = n ** len(a.strings_of(c))
        value = cfg["vertex_groups"][c]
        if value == "Z":
            reps[c] = sofic.cyclic_shift_rep(dim)
            continue
        if isinstance(value, str):
            group = sofic.FiniteGroupTable.cyclic(int(value.split(":")[1]))
        else:
            group = sofic.FiniteGroupTable.of(value["table"], value["generators"])
        base = sofic.left_regular_rep(group)
        reps[c] = sofic.pad_rep(base, dim) if base.n < dim else base
    return sofic.graph_product_rep(g, a, reps, n, cfg["seed"])


# ---------------------------------------------------------------------------


class Composite(Workload):
    """Parts run back to back in every pass, each with inputs of its own.

    The benchmark runs two of these rather than four single workloads: a
    machine whose speed shifts for tens of seconds at a time needs long
    runs to average over, and the run budget allows long runs for two."""

    PARTS: tuple = ()

    def __init__(self, seed, root, work, small=False):
        self.parts = [cls(seed, root, os.path.join(work, cls.name), small) for cls in self.PARTS]
        self.index = [(p, i) for p in self.parts for i in range(len(p.calls()))]

    def sizes(self):
        return {p.name: p.sizes() for p in self.parts}

    def warm_up(self):
        for p in self.parts:
            p.warm_up()

    def calls(self):
        return [call for p in self.parts for call in p.calls()]

    def record(self, index, result, out_dir):
        part, i = self.index[index]
        return part.record(i, result, out_dir)

    def check(self, index, record):
        part, i = self.index[index]
        return part.check(i, record)


class KernelMoment(Composite):
    name = "kernel-moment"
    PARTS = (KernelSweep, MomentCheck)


class ChainSofic(Composite):
    name = "chain-sofic"
    PARTS = (ChainDecay, SoficWords)


WORKLOADS = {w.name: w for w in (KernelMoment, ChainSofic)}
