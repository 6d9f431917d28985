import itertools
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from permprod.cli import _parser, main

FIXTURE = os.path.join(os.path.dirname(__file__), "..", "fixtures", "appendix_a.json")


def write(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


def test_string_assign(tmp_path):
    graph = tmp_path / "graph.json"
    write(graph, {"colors": ["a", "b", "c"], "edges": [["a", "b"]]})
    assert main(["string-assign", str(graph), "--out", str(tmp_path)]) == 0
    out = json.load(open(tmp_path / "assignment.json"))
    assert set(out["strings"]) == {"a-c", "b-c"}


def test_string_assign_invalid_graph(tmp_path):
    graph = tmp_path / "graph.json"
    write(graph, {"colors": ["a"], "edges": [["a", "a"]]})
    assert main(["string-assign", str(graph), "--out", str(tmp_path)]) == 2


def test_calls_in_one_process_write_what_fresh_processes_write(tmp_path):
    # the parser is built once per process: no option of one call may leak
    # into the next, whatever the subcommand
    graph = tmp_path / "graph.json"
    write(graph, {"colors": ["a", "b", "c"], "edges": [["a", "b"]]})
    calls = [
        (["traffic-check", FIXTURE, "--n", "2", "--draws", "1", "--seed", "4"], "report.json"),
        (["string-assign", str(graph)], "assignment.json"),
        (["traffic-check", FIXTURE], "report.json"),
    ]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for k, (argv, name) in enumerate(calls):
        here, fresh = tmp_path / f"here{k}", tmp_path / f"fresh{k}"
        assert main([*argv, "--out", str(here)]) == 0
        subprocess.run([sys.executable, "-m", "permprod.cli", *argv, "--out", str(fresh)], check=True, env=env)
        assert (here / name).read_bytes() == (fresh / name).read_bytes()


def test_traffic_check_bundled_fixture(tmp_path):
    assert main(["traffic-check", FIXTURE, "--n", "2", "--out", str(tmp_path)]) == 0
    report = json.load(open(tmp_path / "report.json"))
    assert report["passed"]
    names = {c["name"] for c in report["checks"]}
    assert "kernel-decomposition" in names
    assert any(n.startswith("minimal-kernel") for n in names)


def test_traffic_check_forged_claim_fails(tmp_path):
    data = json.load(open(FIXTURE))
    data["claims"]["gcc_trees"][-1]["is_tree"] = False  # forge the tree claim
    forged = tmp_path / "forged.json"
    write(forged, data)
    assert main(["traffic-check", str(forged), "--n", "2", "--out", str(tmp_path)]) == 1
    report = json.load(open(tmp_path / "report.json"))
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert failed == ["gcc-tree[3]"]


def test_traffic_check_guard(tmp_path):
    assert main(["traffic-check", FIXTURE, "--n", "64", "--out", str(tmp_path)]) == 3


def test_traffic_check_exponent_suite_runs_on_two_edge_connected_fixture(tmp_path):
    fixture = tmp_path / "theta.json"
    write(
        fixture,
        {
            "colors": ["a", "b"],
            "edges": [],
            "strings": ["s"],
            "incidence": [["s", "a"], ["s", "b"]],
            "vertices": 2,
            "test_edges": [[0, 1, "a"], [0, 1, "b"], [1, 0, "a"]],
            "labels": "permutation",
        },
    )
    assert main(["traffic-check", str(fixture), "--n", "2", "--out", str(tmp_path)]) == 0
    report = json.load(open(tmp_path / "report.json"))
    byname = {c["name"]: c for c in report["checks"]}
    assert byname["exponent-nonpositive"]["passed"]
    assert byname["tree-equality"]["passed"]


@pytest.mark.parametrize(
    "nv, test_edges, labels",
    [
        (2, [[0, 0, "R"], [1, 1, "R"]], "identity"),
        (3, [[0, 1, "R"], [1, 0, "R"], [2, 2, "G"]], "permutation"),
    ],
)
def test_traffic_check_passes_on_disconnected_graphs(tmp_path, nv, test_edges, labels):
    # the kernel-class sums are divided by dim once per weak component, as the trace is
    data = json.load(open(FIXTURE))
    data.update(vertices=nv, test_edges=test_edges, labels=labels, claims={})
    fixture = tmp_path / "split.json"
    write(fixture, data)
    assert main(["traffic-check", str(fixture), "--n", "2", "--out", str(tmp_path)]) == 0
    byname = {c["name"]: c for c in json.load(open(tmp_path / "report.json"))["checks"]}
    assert byname["kernel-decomposition"]["passed"]


def test_traffic_check_passes_on_an_edgeless_graph(tmp_path):
    # no labels to read the side from: the identity loops take the --n side
    data = json.load(open(FIXTURE))
    data.update(vertices=1, test_edges=[], claims={})
    fixture = tmp_path / "edgeless.json"
    write(fixture, data)
    assert main(["traffic-check", str(fixture), "--n", "2", "--out", str(tmp_path)]) == 0
    byname = {c["name"]: c for c in json.load(open(tmp_path / "report.json"))["checks"]}
    assert byname["kernel-decomposition"]["passed"]


@pytest.mark.parametrize("edges", [[[0, 1, "a"], [1, 0, "a"]], [[0, 1, "a"], [1, 0, "a"], [2, 2, "a"]]])
def test_traffic_check_dense_integer_labels_take_the_per_tuple_sums(tmp_path, monkeypatch, edges):
    from permprod import traffic, verify

    calls, buckets = [], verify._kernel_buckets

    def counted(*args, **kwargs):
        calls.append(args[0])
        return buckets(*args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("dense labels take the chase, not the per-tuple sums")

    monkeypatch.setattr(verify, "_kernel_buckets", counted)
    monkeypatch.setattr(traffic, "gamma_empirical", refused)
    entries = [[[2, -1], [0, 3]], [[1, 1], [-2, 0]], [[0, 4], [1, -1]]]
    fixture = tmp_path / "dense.json"
    write(
        fixture,
        {
            "colors": ["a"],
            "edges": [],
            "strings": ["s"],
            "incidence": [["s", "a"]],
            "vertices": 1 + max(max(e[:2]) for e in edges),
            "test_edges": edges,
            "labels": [{"support": ["s"], "n": 2, "entries_re": entries[i]} for i in range(len(edges))],
        },
    )
    assert main(["traffic-check", str(fixture), "--n", "2", "--out", str(tmp_path)]) == 0
    report = json.load(open(tmp_path / "report.json"))
    assert report["passed"]
    assert len(calls) == 3  # one chase per draw


def float_label_fixture(seed=0):
    """Dense float labels on the appendix wiring, entries rounded to 3 decimals."""
    import numpy as np

    rng = np.random.default_rng(seed)
    data = json.load(open(FIXTURE))
    supports = {"B": ["1", "2"], "G": ["2", "3"], "R": ["3"]}
    edges = [[0, 1, "R"], [1, 2, "G"], [1, 2, "B"], [2, 0, "B"]]
    labels = []
    for _, _, c in edges:
        dim = 2 ** len(supports[c])
        labels.append({"support": supports[c], "n": 2, "entries_re": np.round(rng.random((dim, dim)), 3).tolist()})
    data.update(vertices=3, test_edges=edges, labels=labels, claims={})
    return data


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_traffic_check_float_labels_agree_within_rounding(tmp_path, seed):
    # the kernel sums and the einsum trace add the same float terms in
    # different orders; they agree to rounding, not bit for bit
    fixture = tmp_path / "float.json"
    write(fixture, float_label_fixture(seed))
    assert main(["traffic-check", str(fixture), "--n", "2", "--out", str(tmp_path)]) == 0
    byname = {c["name"]: c for c in json.load(open(tmp_path / "report.json"))["checks"]}
    assert byname["kernel-decomposition"]["passed"]


@pytest.mark.parametrize("offset", [Fraction(1, 8), Fraction(1, 10**12)])
def test_traffic_check_exact_sums_must_match_exactly(tmp_path, capsys, monkeypatch, offset):
    # an exact trace off by 1/dim (dim = 2**3 at n=2), or by far less than
    # the float tolerance, fails the decomposition
    from permprod import verify

    exact_trace = verify.trace_test_graph
    monkeypatch.setattr(verify, "trace_test_graph", lambda *a, **k: exact_trace(*a, **k) + offset)
    assert main(["traffic-check", FIXTURE, "--n", "2", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.strip() == "check-failed: kernel-decomposition"


def test_traffic_check_rejects_labels_of_another_side(tmp_path, capsys):
    fixture = tmp_path / "float.json"
    write(fixture, float_label_fixture())
    assert main(["traffic-check", str(fixture), "--n", "3", "--out", str(tmp_path)]) == 2
    assert "not the requested side 3" in capsys.readouterr().err


def test_traffic_check_map_guard_reaches_the_kernel_chase(tmp_path):
    # n**V = 8 passes the CLI's pre-check; the chase needs 8**3 rows
    data = json.load(open(FIXTURE))
    data.update(vertices=3, test_edges=[[0, 0, "B"], [1, 1, "G"], [2, 2, "R"]], claims={})
    fixture = tmp_path / "loops.json"
    write(fixture, data)
    assert main(["traffic-check", str(fixture), "--n", "2", "--guard-maps", "100", "--out", str(tmp_path)]) == 0
    byname = {c["name"]: c for c in json.load(open(tmp_path / "report.json"))["checks"]}
    assert "exceeds map guard 100" in byname["kernel-decomposition"]["detail"]


@pytest.mark.parametrize(
    "n, vertices",
    [(2, 10**30), (1, 10**5), (1, 10**30)],
    ids=["maps-vertices-1e30", "partitions-vertices-1e5", "partitions-vertices-1e30"],
)
def test_traffic_check_guards_refuse_before_any_per_vertex_work(tmp_path, capsys, n, vertices):
    # neither n**vertices nor Bell(vertices - edges), a floor on the kernel
    # tuple count, is formed to be compared with its guard
    data = json.load(open(FIXTURE))
    data.update(vertices=vertices, claims={})
    fixture = tmp_path / "big.json"
    write(fixture, data)
    start = time.perf_counter()
    assert main(["traffic-check", str(fixture), "--n", str(n), "--out", str(tmp_path)]) == 3
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("guard: ") and "Traceback" not in err
    assert os.listdir(tmp_path) == ["big.json"]  # nothing written


@pytest.mark.parametrize("n", [2, 3])
def test_traffic_check_map_guard_is_exact_at_its_bound(tmp_path, capsys, n):
    # the six-vertex fixture has n**6 labelings per string: a guard of
    # exactly that passes the pre-check, and one less refuses
    for guard, code in ((n**6, 0), (n**6 - 1, 3)):
        assert main(["traffic-check", FIXTURE, "--n", str(n), "--guard-maps", str(guard), "--out", str(tmp_path)]) == code
        assert ("per-string labeling count" in capsys.readouterr().err) == (code == 3)


def test_converge_cli_and_determinism(tmp_path):
    cfg = tmp_path / "conv.json"
    write(
        cfg,
        {
            "colors": ["a", "b"],
            "edges": [],
            "chi": ["a", "b"],
            "ell": [1, 1],
            "x_mode": "cycle",
            "n_grid": [4, 8, 16],
            "samples": 60,
            "seed": 3,
            "slope_band": [-1.6, -0.6],
        },
    )
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["converge", str(cfg), "--out", str(out1)]) == 0
    assert main(["converge", str(cfg), "--out", str(out2), "--workers", "2"]) == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
    summary = json.load(open(out1 / "summary.json"))
    assert summary["passed"] and -1.6 <= summary["slope"] <= -0.6


def test_converge_input_error(tmp_path):
    cfg = tmp_path / "bad.json"
    write(cfg, {"colors": ["a"], "edges": [], "chi": ["a", "a"], "ell": [1, 1], "n_grid": [2, 4]})
    assert main(["converge", str(cfg), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("field, value", [("ell", "11"), ("chi", "ab"), ("n_grid", "48")])
def test_converge_chain_fields_must_be_lists(tmp_path, capsys, field, value):
    # a JSON string is not read as a sequence of letters or digits
    config = {"colors": ["a", "b"], "edges": [], "chi": ["a", "b"], "ell": [1, 1], "n_grid": [2, 4], "samples": 2}
    config[field] = value
    cfg = tmp_path / "conv.json"
    write(cfg, config)
    assert main(["converge", str(cfg), "--out", str(tmp_path)]) == 2
    assert "input-error" in capsys.readouterr().err


@pytest.mark.parametrize("top", [None, [], 5])
@pytest.mark.parametrize("command", ["string-assign", "traffic-check", "converge", "sofic-certify"])
def test_top_level_must_be_an_object(tmp_path, capsys, command, top):
    cfg = tmp_path / "input.json"
    write(cfg, top)
    assert main([command, str(cfg), "--out", str(tmp_path)]) == 2
    assert "input-error" in capsys.readouterr().err


def test_sofic_certify_cli(tmp_path):
    cfg = tmp_path / "sofic.json"
    write(
        cfg,
        {
            "colors": ["a", "b"],
            "edges": [["a", "b"]],
            "vertex_groups": {"a": "cyclic:2", "b": "cyclic:2"},
            "n": 4,
            "seed": 1,
            "words": {"max_length": 3},
            "threshold": 0.5,
        },
    )
    assert main(["sofic-certify", str(cfg), "--out", str(tmp_path)]) == 0
    cert = json.load(open(tmp_path / "certificate.json"))
    # the product over the edge is the Klein four group: everything exact
    assert cert["max_deviation"] == 0.0
    csv = (tmp_path / "certificate.csv").read_text().splitlines()
    assert csv[0] == "word,truth,trace_num,trace_den,deviation"


S3 = {"table": [[0, 1, 2, 3, 4, 5], [1, 2, 0, 4, 5, 3], [2, 0, 1, 5, 3, 4],
               [3, 5, 4, 0, 2, 1], [4, 3, 5, 1, 0, 2], [5, 4, 3, 2, 1, 0]], "generators": [1, 3]}
GROUP_ORDERS = {"Z": 1, "cyclic:1": 1, "cyclic:2": 2, "cyclic:3": 3, "S3": 6}  # points a block must hold


@st.composite
def sofic_configs(draw):
    """A sofic-certify config on 1-3 colors (non-ASCII, quotes, backslashes),
    with every word up to a length or an explicit list in any order, the
    empty word and repeats included."""
    colors = draw(st.lists(st.sampled_from(["B", "\u00e9", 'q"', "x\\y", "\u2028G"]), min_size=1, max_size=3,
                           unique=True))
    pairs = [list(e) for e in itertools.combinations(colors, 2)]
    edges = draw(st.lists(st.sampled_from(pairs), unique_by=str)) if pairs else []
    groups = {c: draw(st.sampled_from(list(GROUP_ORDERS))) for c in colors}
    low = max(2, *(GROUP_ORDERS[grp] for grp in groups.values()))
    n = draw(st.sampled_from([low, low + 1]))
    alphabet = [[c, j] for c, grp in groups.items() for k in range(1, 3 if grp == "S3" else 2) for j in (k, -k)]
    words = draw(st.one_of(
        st.builds(lambda m: {"max_length": m}, st.integers(1, 2)),
        st.lists(st.lists(st.sampled_from(alphabet), max_size=4), min_size=1, max_size=12),
    ))
    return {
        "colors": colors, "edges": edges, "n": n, "seed": draw(st.integers(0, 9)), "words": words,
        "vertex_groups": {c: S3 if grp == "S3" else grp for c, grp in groups.items()},
        "threshold": draw(st.sampled_from(["0.5", "1", 0.25])),
    }


@settings(max_examples=40, deadline=None)
@given(config=sofic_configs())
def test_sofic_certify_writes_what_json_writes_for_its_entries(tmp_path_factory, config):
    # certificate.json against json.dumps of the entries as a list of
    # objects, certificate.csv against one line written per entry
    from permprod import sofic

    out = tmp_path_factory.mktemp("cert")
    cfg = out / "sofic.json"
    write(cfg, config)
    certs = []
    certify = sofic.certify
    with mock.patch.object(sofic, "certify", lambda *a: certs.append(certify(*a)) or certs[-1]):
        assert main(["sofic-certify", str(cfg), "--out", str(out)]) in (0, 1)
    (cert,) = certs
    payload = {
        "n": config["n"],
        "seed": config["seed"],
        "max_deviation": float(max(e.deviation for e in cert.entries)),
        "threshold": float(Fraction(str(config["threshold"]))),
        "words": [
            {
                "word": e.word,
                "trivial": e.trivial,
                "trace": {"num": e.trace.numerator, "den": e.trace.denominator},
                "deviation": float(e.deviation),
            }
            for e in cert.entries
        ],
    }
    assert (out / "certificate.json").read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    lines = ["word,truth,trace_num,trace_den,deviation"] + [
        f"{' '.join(f'{c}^{j}' for c, j in e.word)},{int(e.trivial)},{e.trace.numerator},{e.trace.denominator},"
        f"{float(e.deviation):.12e}"
        for e in cert.entries
    ]
    assert (out / "certificate.csv").read_text() == "\n".join(lines) + "\n"
    words = config["words"]
    if isinstance(words, list):
        assert [list(map(list, e.word)) for e in cert.entries] == words


def test_sofic_certify_malformed_table(tmp_path):
    cfg = tmp_path / "bad.json"
    write(
        cfg,
        {
            "colors": ["a"],
            "edges": [],
            "vertex_groups": {"a": {"table": [[0, 1], [1, 1]], "generators": [1]}},
            "n": 2,
        },
    )
    assert main(["sofic-certify", str(cfg), "--out", str(tmp_path)]) == 2


def test_sofic_certify_threshold_failure(tmp_path):
    cfg = tmp_path / "sofic.json"
    write(
        cfg,
        {
            "colors": ["a", "b"],
            "edges": [],
            "vertex_groups": {"a": "cyclic:2", "b": "cyclic:2"},
            "n": 4,
            "seed": 0,
            "words": {"max_length": 4},
            "threshold": 0.001,
        },
    )
    # the free product at tiny size cannot certify this tightly
    assert main(["sofic-certify", str(cfg), "--out", str(tmp_path)]) == 1


def sofic_config(vertex_groups):
    return {"colors": ["a"], "edges": [], "vertex_groups": vertex_groups, "n": 2}


def label_fixture(label):
    """One a-edge between two vertices on one string, with the given label."""
    model = {"colors": ["a"], "edges": [], "strings": ["s"], "incidence": [["s", "a"]]}
    return dict(model, vertices=2, test_edges=[[0, 1, "a"]], labels=[label])


def permutation_label_fixture(images):
    return label_fixture({"support": ["s"], "n": 2, "permutation": {"n": 2, "images": images}})


DENSE_LABEL = {"support": ["s"], "n": 2, "entries_re": [[0, 1], [1, 0]], "entries_im": [[0, 0], [0, 0]]}


CONVERGE = {"colors": ["a", "b"], "edges": [], "chi": ["a", "b"], "ell": [1, 1], "n_grid": [2, 4], "samples": 2}
LABEL_FIXTURE = permutation_label_fixture([1, 0])
GCC_CLAIM = {"pi": {"s": [[0], [1]]}, "string": "s", "is_tree": True}
with open(FIXTURE) as fh:
    APPENDIX = json.load(fh)
APPENDIX_QUOTIENT, APPENDIX_TREE = APPENDIX["claims"]["color_quotients"][0], APPENDIX["claims"]["gcc_trees"][0]
WRONG_STRING_CLAIMS = [  # (the string the error names, claims): a pi names exactly the strings 1, 2 and 3
    ("3", {"color_quotients": [dict(APPENDIX_QUOTIENT, pi={s: b for s, b in APPENDIX_QUOTIENT["pi"].items() if s != "3"})]}),
    ("9", {"color_quotients": [dict(APPENDIX_QUOTIENT, pi=dict(APPENDIX_QUOTIENT["pi"], **{"9": [[0, 1, 2, 3, 4, 5]]}))]}),
    ("9", {"gcc_trees": [dict(APPENDIX_TREE, string="9")]}),
]


@pytest.mark.parametrize(
    "command, config",
    [
        ("traffic-check", {"colors": ["a"], "edges": [], "vertices": 1, "test_edges": [[0]]}),
        ("sofic-certify", sofic_config(["cyclic:2"])),
        ("sofic-certify", sofic_config({"a": {"table": 5, "generators": [0]}})),
        ("sofic-certify", sofic_config({"a": {"table": [[1, 0], [1, 0]], "generators": [0]}})),
        ("sofic-certify", sofic_config({"a": "cyclic:0"})),
        ("traffic-check", permutation_label_fixture([1.0, 0.0])),
        ("traffic-check", permutation_label_fixture([True, False])),
        ("traffic-check", permutation_label_fixture(5)),
        ("sofic-certify", dict(sofic_config({"a": "cyclic:2"}), n=[2])),
        ("sofic-certify", dict(sofic_config({"a": "cyclic:2"}), words=5)),
        ("sofic-certify", dict(sofic_config({"a": "cyclic:2"}), words={"max_length": None})),
        ("converge", dict(CONVERGE, samples=None)),
        ("converge", dict(CONVERGE, ell=[[1], 1])),
        ("converge", dict(CONVERGE, samples=0)),
        ("converge", dict(CONVERGE, colors="ab")),
        ("converge", dict(CONVERGE, x_mode="fixture")),
        ("converge", dict(CONVERGE, lambda_mode="fixture")),
        ("converge", dict(CONVERGE, norm_bound=None)),
        ("converge", dict(CONVERGE, slope_band=5)),
        ("traffic-check", dict(LABEL_FIXTURE, vertices=None)),
        ("traffic-check", dict(LABEL_FIXTURE, labels=5)),
        ("traffic-check", dict(LABEL_FIXTURE, labels=[])),
        ("traffic-check", dict(LABEL_FIXTURE, claims=[1])),
        ("traffic-check", dict(LABEL_FIXTURE, claims={"rho": [1]})),
        ("traffic-check", dict(LABEL_FIXTURE, claims={"rho": {"1": 5}})),
        ("traffic-check", dict(LABEL_FIXTURE, claims={"color_quotients": [1]})),
        ("traffic-check", dict(LABEL_FIXTURE, claims={"gcc_trees": [1]})),
        ("traffic-check", dict(LABEL_FIXTURE, claims={"rho": {"s": [["a"]]}})),
        ("traffic-check", dict(LABEL_FIXTURE, claims={"color_quotients": [{"pi": {"s": [[0, 1]]}, "color": ["a"]}]})),
        ("traffic-check --draws 0", LABEL_FIXTURE),
        ("traffic-check --draws -1", LABEL_FIXTURE),
        ("sofic-certify", dict(sofic_config({"a": "cyclic:2"}), words={"max_length": 0})),
        ("sofic-certify", dict(sofic_config({"a": "cyclic:2"}), words={"max_length": -1})),
        ("sofic-certify", dict(sofic_config({"a": "cyclic:2"}), words=[])),
        ("traffic-check", dict(LABEL_FIXTURE, claims={"gcc_trees": [dict(GCC_CLAIM, is_tree="no")]})),
        ("traffic-check", dict(LABEL_FIXTURE, claims={"gcc_trees": [dict(GCC_CLAIM, is_tree=1)]})),
        ("converge", dict(CONVERGE, norm_bound=float("nan"))),
        ("converge", dict(CONVERGE, norm_bound=float("inf"))),
        ("converge", dict(CONVERGE, slope_band=[float("-inf"), -0.6])),
        ("string-assign", {"colors": ["B", None], "edges": []}),
        ("string-assign", {"colors": ["B", 3], "edges": []}),
        ("string-assign", {"colors": ["B", "G"], "edges": [None]}),
        ("string-assign", {"colors": ["B", "G"], "edges": [["B", 3]]}),
        ("traffic-check", dict(LABEL_FIXTURE, claims={"gcc_trees": [dict(GCC_CLAIM, pi={"s": [[0, 1], []]})]})),
        ("traffic-check", dict(LABEL_FIXTURE, claims={"rho": {"s": [[0, 1], []]}})),
        ("sofic-certify", dict(sofic_config({"a": "Z"}), words=[[["a", 1], ["a", 5]]])),
        ("sofic-certify", dict(sofic_config({"a": "cyclic:2"}), words=[[["b", 1]]])),
        ("sofic-certify", dict(sofic_config({"a": "cyclic:2"}), words=[[["a", 0]]])),
        *(("traffic-check --n 2", dict(APPENDIX, claims=claims)) for _, claims in WRONG_STRING_CLAIMS),
        ("traffic-check", label_fixture({"support": ["s"], "n": 2, "permutation": [1, 0]})),
        ("traffic-check", label_fixture({"support": ["s"], "n": 2, "permutation": None})),
        ("traffic-check", label_fixture(dict(DENSE_LABEL, entries_re={"a": 1}))),
        ("traffic-check", label_fixture(dict(DENSE_LABEL, entries_re=[[{"a": 1}, 0], [0, 1]]))),
        ("traffic-check", label_fixture(dict(DENSE_LABEL, entries_im={"a": 1}))),
        ("traffic-check", label_fixture(dict(DENSE_LABEL, entries_im=[[0, {"a": 1}], [0, 0]]))),
        ("traffic-check", label_fixture(dict(DENSE_LABEL, support=["s", 1]))),
        ("traffic-check", label_fixture(dict(DENSE_LABEL, entries_re=[[True, 0], [0, 1]]))),
        ("traffic-check", label_fixture(dict(DENSE_LABEL, entries_re=[[10**400, 0], [0, 1]]))),
        ("traffic-check", dict(LABEL_FIXTURE, test_edges=[[0, True, "a"]])),
        ("traffic-check", dict(LABEL_FIXTURE, test_edges=[[True, 0, "a"]])),
        ("traffic-check", dict(LABEL_FIXTURE, colors=["5"], incidence=[["s", "5"]], test_edges=[[0, 1, 5]])),
        ("sofic-certify", sofic_config({"a": {"table": [[0, 1], [1, 0]], "generators": [True]}})),
        ("sofic-certify", sofic_config({"a": {"table": [[0, True], [True, 0]], "generators": [1]}})),
        ("sofic-certify", sofic_config({"a": "cyclic: 2"})),
        ("sofic-certify", dict(sofic_config({"a": "cyclic:2_0"}), n=20)),  # a block that holds 20 points
        ("sofic-certify", dict(sofic_config({"a": "cyclic:2"}), colors=["5"], vertex_groups={"5": "cyclic:2"},
                               words=[[[5, 1]]])),
        # thresholds past the float range, refused before 10**exponent is formed
        ("sofic-certify", dict(sofic_config({"a": "cyclic:2"}), threshold="1e400")),
        ("sofic-certify", dict(sofic_config({"a": "cyclic:2"}), threshold=10**400)),
        ("sofic-certify", dict(sofic_config({"a": "cyclic:2"}), threshold="1e7000000")),
        ("sofic-certify", dict(sofic_config({"a": "cyclic:2"}), threshold="1/0")),
        ("converge", dict(CONVERGE, n_grid=[2, 2])),
        ("traffic-check", {"colors": ["a"], "edges": [], "vertices": -1, "test_edges": []}),
    ],
    ids=[
        "short-test-edge",
        "vertex-groups-list",
        "table-not-a-list",
        "table-without-identity",
        "cyclic-zero",
        "float-permutation-images",
        "bool-permutation-images",
        "scalar-permutation-images",
        "sofic-side-not-an-integer",
        "sofic-words-not-a-list",
        "sofic-max-length-null",
        "converge-samples-null",
        "converge-ell-entry-a-list",
        "converge-samples-zero",
        "converge-colors-a-string",
        "converge-x-fixture-mode-without-fixtures",
        "converge-lambda-fixture-mode-without-fixtures",
        "converge-norm-bound-null",
        "converge-slope-band-a-number",
        "traffic-vertices-null",
        "traffic-labels-a-number",
        "traffic-labels-too-few",
        "traffic-claims-a-list",
        "traffic-rho-claims-a-list",
        "traffic-rho-blocks-a-number",
        "traffic-color-quotient-claim-a-number",
        "traffic-gcc-tree-claim-a-number",
        "traffic-rho-block-member-a-string",
        "traffic-color-quotient-color-a-list",
        "traffic-draws-zero",
        "traffic-draws-negative",
        "sofic-max-length-zero",
        "sofic-max-length-negative",
        "sofic-words-empty",
        "traffic-gcc-tree-claim-a-string",
        "traffic-gcc-tree-claim-an-integer",
        "converge-norm-bound-nan",
        "converge-norm-bound-infinite",
        "converge-slope-band-infinite",
        "colors-entry-null",
        "colors-entry-a-number",
        "edges-entry-null",
        "edges-entry-color-a-number",
        "traffic-gcc-tree-claim-empty-block",
        "traffic-rho-claim-empty-block",
        "sofic-letter-past-the-generators",
        "sofic-letter-of-no-color",
        "sofic-letter-index-zero",
        "traffic-color-quotient-pi-without-a-string",
        "traffic-color-quotient-pi-with-an-extra-string",
        "traffic-gcc-tree-claim-unknown-string",
        "label-permutation-a-list",
        "label-permutation-null",
        "label-entries-re-an-object",
        "label-entries-re-holding-an-object",
        "label-entries-im-an-object",
        "label-entries-im-holding-an-object",
        "label-support-entry-a-number",
        "label-entry-true",
        "label-entry-past-the-float-range",
        "test-edge-target-true",
        "test-edge-source-true",
        "test-edge-color-a-number",
        "group-generator-true",
        "group-table-entry-true",
        "cyclic-order-with-a-space",
        "cyclic-order-with-an-underscore",
        "sofic-letter-color-a-number",
        "sofic-threshold-string-past-the-float-range",
        "sofic-threshold-integer-past-the-float-range",
        "sofic-threshold-exponent-in-the-millions",
        "sofic-threshold-over-zero",
        "converge-n-grid-repeats-a-point",
        "traffic-vertices-negative",
    ],
)
def test_malformed_config_shapes_are_input_errors(tmp_path, capsys, command, config):
    cfg = tmp_path / "bad.json"
    write(cfg, config)
    assert main([*command.split(), str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "input-error" in err and "Traceback" not in err


def test_the_label_rows_differ_from_a_valid_label_in_one_field(tmp_path):
    for label in (DENSE_LABEL, {"support": ["s"], "n": 2, "permutation": {"n": 2, "images": [1, 0]}}):
        write(tmp_path / "label.json", label_fixture(label))
        assert main(["traffic-check", str(tmp_path / "label.json"), "--out", str(tmp_path)]) == 0


REMOVED_FLAGS = {  # subcommand -> the common flags it never read, now refused
    "string-assign": ["--seed", "--workers", "--guard-maps", "--guard-partitions"],
    "traffic-check": ["--workers"],
    "converge": ["--guard-maps", "--guard-partitions"],
    "sofic-certify": ["--workers", "--guard-maps", "--guard-partitions"],
}


@pytest.mark.parametrize("command, flag", [(c, f) for c, flags in REMOVED_FLAGS.items() for f in flags])
def test_each_subcommand_refuses_the_flags_it_does_not_read(tmp_path, capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, "config.json", flag, "1", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


def test_each_subcommand_keeps_the_flags_it_reads():
    kept = {
        "string-assign": [],
        "traffic-check": ["--seed", "--n", "--draws", "--guard-maps", "--guard-partitions"],
        "converge": ["--seed", "--workers"],
        "sofic-certify": ["--seed"],
    }
    for command, flags in kept.items():
        args = _parser().parse_args([command, "config.json", "--out", "o", *(x for f in flags for x in (f, "7"))])
        assert args.out == "o" and all(getattr(args, f[2:].replace("-", "_")) == 7 for f in flags)


@pytest.mark.parametrize("named, claims", WRONG_STRING_CLAIMS, ids=["pi-omits-3", "pi-names-9", "tree-string-9"])
def test_claim_with_wrong_strings_names_the_string(tmp_path, capsys, named, claims):
    cfg = tmp_path / "claims.json"
    write(cfg, dict(APPENDIX, claims=claims))
    assert main(["traffic-check", str(cfg), "--n", "2", "--out", str(tmp_path)]) == 2
    assert f"string {named!r}" in capsys.readouterr().err


STRING_MODELS = {  # a valid config with strings and incidence per subcommand
    "string-assign": {"colors": ["a"], "edges": [], "strings": ["s"], "incidence": [["s", "a"]]},
    "traffic-check": LABEL_FIXTURE,
    "converge": dict(CONVERGE, strings=["s"], incidence=[["s", "a"], ["s", "b"]]),
    "sofic-certify": dict(sofic_config({"a": "cyclic:2"}), strings=["s"], incidence=[["s", "a"]]),
}
MALFORMED_STRINGS = {  # each string a JSON string and each incidence entry a JSON list of two; the error names it
    "strings-entry-a-list": (lambda m: {"strings": [[x] for x in m["strings"]]}, "a string must be"),
    "incidence-string-a-list": (lambda m: {"incidence": [[[x], c] for x, c in m["incidence"]]}, "an incidence string"),
    "incidence-entry-a-string": (lambda m: {"incidence": [x + c for x, c in m["incidence"]]}, "an incidence entry"),
    "incidence-entry-one-string": (lambda m: {"incidence": [[x] for x, _ in m["incidence"]]}, "an incidence entry"),
}


@pytest.mark.parametrize("case", list(MALFORMED_STRINGS))
@pytest.mark.parametrize("command", list(STRING_MODELS))
def test_malformed_strings_and_incidence_are_input_errors(tmp_path, capsys, command, case):
    cfg = tmp_path / "model.json"
    model, (malformed, named) = STRING_MODELS[command], MALFORMED_STRINGS[case]
    write(cfg, model)
    assert main([command, str(cfg), "--out", str(tmp_path)]) in (0, 1)
    write(cfg, dict(model, **malformed(model)))
    capsys.readouterr()
    assert main([command, str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input-error: {named}") and "Traceback" not in err


@pytest.mark.parametrize("entry", ["1e400", "NaN"])
def test_non_finite_label_entries_are_input_errors(tmp_path, capsys, entry):
    # Python's json reads 1e400 as inf: an input error, not a kernel-decomposition failure
    cfg = tmp_path / "nonfinite.json"
    cfg.write_text(
        '{"colors": ["a"], "edges": [], "strings": ["s"], "incidence": [["s", "a"]], "vertices": 1,'
        f' "test_edges": [[0, 0, "a"]], "labels": [{{"support": ["s"], "n": 2, "entries_re": [[{entry}, 0], [0, 1]]}}]}}'
    )
    assert main(["traffic-check", str(cfg), "--out", str(tmp_path)]) == 2
    assert "input-error" in capsys.readouterr().err


def test_group_table_guard_is_a_guard_exit(tmp_path, capsys):
    cfg = tmp_path / "big.json"
    write(cfg, sofic_config({"a": "cyclic:600"}))  # 600**3 products exceed the table guard
    assert main(["sofic-certify", str(cfg), "--out", str(tmp_path)]) == 3
    assert "exceeds table guard" in capsys.readouterr().err


def test_memory_error_is_a_guard_exit(tmp_path, capsys, monkeypatch):
    from permprod import verify

    def exhausted(*args):
        raise MemoryError("cannot allocate")

    monkeypatch.setattr(verify, "exponent_suite", exhausted)
    assert main(["traffic-check", FIXTURE, "--n", "2", "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err.startswith("guard: ")


def test_word_letter_errors_name_the_letter_as_written(tmp_path, capsys):
    # the inverse of a word's last letter was named before, and a Z letter's
    # index past 1 was read as 1 by the word problem
    cfg = tmp_path / "letters.json"
    write(cfg, dict(sofic_config({"a": "Z"}), words=[[["a", 1]], [["a", 1], ["a", 5]]]))
    assert main(["sofic-certify", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "word letter ['a', 5]" in err and "-5" not in err


def refuse(*args):
    raise AssertionError("called past a guard")


THREE_COLORS = {
    "colors": ["B", "G", "R"],
    "edges": [["B", "R"]],
    "vertex_groups": {"B": "cyclic:3", "G": "Z", "R": "cyclic:2"},
    "n": 3,
}
MANY_GENERATORS = {"table": [[0, 1], [1, 0]], "generators": [1] * 3000}


@pytest.mark.parametrize(
    "command, config, patches",
    [
        ("sofic-certify", dict(THREE_COLORS, words={"max_length": 14}), {}),  # 6**14 words, counted, not enumerated
        ("sofic-certify", dict(THREE_COLORS, words={"max_length": 10**9}), {}),
        ("sofic-certify", dict(THREE_COLORS, words={"max_length": 3}), {"sofic.WORD_GUARD": 257}),  # 258 words
        ("sofic-certify", dict(THREE_COLORS, words=[[["B", 1]]] * 3), {"sofic.WORD_GUARD": 2}),
        ("converge", dict(CONVERGE, samples=100000000), {}),
        ("converge", dict(CONVERGE, samples=3), {"chains.SAMPLE_GUARD": 3 * (2 + 4) - 1}),
        # 1500**2 and 100000**2 full-space points (two strings): no block is
        # drawn, and G's block, the whole space, is not built
        ("sofic-certify", dict(THREE_COLORS, n=1500), {"sofic.sample_color_permutations": refuse,
                                                       "sofic.cyclic_shift_rep": refuse}),
        ("sofic-certify", dict(THREE_COLORS, n=100000), {"sofic.sample_color_permutations": refuse,
                                                         "sofic.cyclic_shift_rep": refuse}),
        # 6004 signed letters of 64**2 points: no vertex representation is
        # built and no block is drawn
        ("sofic-certify", dict(THREE_COLORS, n=64, words={"max_length": 1},
                               vertex_groups=dict(THREE_COLORS["vertex_groups"], R=MANY_GENERATORS)),
         {"sofic.sample_color_permutations": refuse, "sofic.cyclic_shift_rep": refuse,
          "sofic.left_regular_rep": refuse, "sofic.pad_rep": refuse}),
        # a word of 5000 letters on 64**2 points: certify would stack 5000 prefix image arrays
        ("sofic-certify", dict(THREE_COLORS, n=64, words=[[["G", 1]] * 5000]),
         {"sofic.sample_color_permutations": refuse, "sofic.cyclic_shift_rep": refuse}),
        # 10**30 letters in a chain: refused before any letter is drawn
        ("converge", dict(CONVERGE, ell=[10**30, 1]), {"chains.ChainDraw.of": refuse}),
    ],
    ids=["sofic-max-length-14", "sofic-max-length-huge", "sofic-words-past-guard", "sofic-word-list-past-guard",
         "converge-samples-huge", "converge-samples-past-guard", "sofic-points-1500", "sofic-points-100000",
         "sofic-letters-past-guard", "sofic-longest-word-past-guard", "converge-ell-huge"],
)
def test_guards_refuse_before_the_work(tmp_path, capsys, monkeypatch, command, config, patches):
    for name, value in patches.items():
        monkeypatch.setattr(f"permprod.{name}", value)
    cfg = tmp_path / "big.json"
    write(cfg, config)
    assert main([command, str(cfg), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("guard: ") and "guard" in err[len("guard: "):]
    assert os.listdir(tmp_path) == ["big.json"]  # nothing written


def test_word_guard_counts_words_exactly(tmp_path, monkeypatch):
    monkeypatch.setattr("permprod.sofic.WORD_GUARD", 258)  # 6 + 36 + 216 words up to length 3
    cfg = tmp_path / "words.json"
    write(cfg, dict(THREE_COLORS, words={"max_length": 3}))
    assert main(["sofic-certify", str(cfg), "--out", str(tmp_path)]) == 0
    assert len(json.load(open(tmp_path / "certificate.json"))["words"]) == 258


def test_letter_guard_counts_points_exactly(tmp_path, monkeypatch, capsys):
    # six signed letters of 3**2 points each
    cfg = tmp_path / "letters.json"
    write(cfg, THREE_COLORS)
    monkeypatch.setattr("permprod.sofic.LETTER_GUARD", 54)
    assert main(["sofic-certify", str(cfg), "--out", str(tmp_path / "at")]) == 0
    monkeypatch.setattr("permprod.sofic.LETTER_GUARD", 53)
    assert main(["sofic-certify", str(cfg), "--out", str(tmp_path / "past")]) == 3
    assert "6 signed letters of 9 points exceed the letter guard 53 points" in capsys.readouterr().err


@pytest.mark.parametrize("threshold", ["1e-7000000", "0e7000000"])
def test_a_threshold_exponent_in_the_millions_is_read_at_once(tmp_path, threshold):
    # both read as zero does, to the byte; read through `Fraction`, each
    # formed 10**7000000 first, about 5 s
    config = dict(THREE_COLORS, n=6, words={"max_length": 1})
    runs = {}
    for value in ("0", threshold):
        write(tmp_path / "threshold.json", dict(config, threshold=value))
        start = time.perf_counter()
        code = main(["sofic-certify", str(tmp_path / "threshold.json"), "--out", str(tmp_path / value)])
        elapsed = time.perf_counter() - start
        runs[value] = code, [(tmp_path / value / name).read_bytes() for name in ("certificate.json", "certificate.csv")]
    assert elapsed < 1.0
    assert runs[threshold] == runs["0"] and runs["0"][0] == 0
