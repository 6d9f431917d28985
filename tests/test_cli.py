import json
import os

import pytest

from permprod.cli import main

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


@pytest.mark.parametrize(
    "command, config",
    [
        ("traffic-check", {"colors": ["a"], "edges": [], "vertices": 1, "test_edges": [[0]]}),
        ("sofic-certify", sofic_config(["cyclic:2"])),
        ("sofic-certify", sofic_config({"a": {"table": 5, "generators": [0]}})),
        ("sofic-certify", sofic_config({"a": {"table": [[1, 0], [1, 0]], "generators": [0]}})),
        ("sofic-certify", sofic_config({"a": "cyclic:0"})),
    ],
    ids=["short-test-edge", "vertex-groups-list", "table-not-a-list", "table-without-identity", "cyclic-zero"],
)
def test_malformed_config_shapes_are_input_errors(tmp_path, capsys, command, config):
    cfg = tmp_path / "bad.json"
    write(cfg, config)
    assert main([command, str(cfg), "--out", str(tmp_path)]) == 2
    assert "input-error" in capsys.readouterr().err


def test_memory_error_is_a_guard_exit(tmp_path, capsys, monkeypatch):
    from permprod import verify

    def exhausted(*args):
        raise MemoryError("cannot allocate")

    monkeypatch.setattr(verify, "exponent_suite", exhausted)
    assert main(["traffic-check", FIXTURE, "--n", "2", "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err.startswith("guard: ")
