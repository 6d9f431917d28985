"""Command-line entry point.

Subcommands: ``string-assign`` builds a canonical string assignment for a
color graph; ``traffic-check`` runs the verification suites over a
test-graph fixture; ``converge`` runs the Monte Carlo decay experiment;
``sofic-certify`` certifies word traces of a product representation.

Exit codes: 0 success, 1 invariant or assertion failure, 2 input error,
3 resource guard breached.  All randomness flows from the config seed, so
identical inputs give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from . import chains, serialize, sofic, verify
from .strings import build_string_assignment, validate_assignment
from .tensor import GuardExceeded
from .traffic import MAP_GUARD, PARTITION_GUARD

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INPUT = 2
EXIT_GUARD = 3


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--workers", type=int, default=None, help="worker threads for sampling")
    common.add_argument("--guard-maps", type=int, default=MAP_GUARD)
    common.add_argument("--guard-partitions", type=int, default=PARTITION_GUARD)

    parser = argparse.ArgumentParser(prog="permprod")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("string-assign", parents=[common], help="build a string assignment for a color graph")
    p.add_argument("graph")

    p = sub.add_parser("traffic-check", parents=[common], help="verify moment invariants over a fixture")
    p.add_argument("fixture")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--draws", type=int, default=3)

    p = sub.add_parser("converge", parents=[common], help="Monte Carlo decay of the centered chain norm")
    p.add_argument("config")

    p = sub.add_parser("sofic-certify", parents=[common], help="certify word traces of a product representation")
    p.add_argument("config")

    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    try:
        if args.command == "string-assign":
            return _cmd_string_assign(args)
        if args.command == "traffic-check":
            return _cmd_traffic_check(args)
        if args.command == "converge":
            return _cmd_converge(args)
        return _cmd_sofic_certify(args)
    except (GuardExceeded, MemoryError) as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (KeyError, ValueError, OSError) as exc:
        print(f"input-error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def _cmd_string_assign(args) -> int:
    data = serialize.load_json(args.graph)
    g, _ = serialize.model_from_dict(data)
    a = build_string_assignment(g)
    ok, violations = validate_assignment(g, a)
    if not ok:
        print(f"input-error: built assignment failed validation: {violations}", file=sys.stderr)
        return EXIT_INPUT
    serialize.dump_json(os.path.join(args.out, "assignment.json"), serialize.model_to_dict(g, a))
    return EXIT_OK


def _cmd_traffic_check(args) -> int:
    data = serialize.load_json(args.fixture)
    seed = args.seed if args.seed is not None else int(data.get("seed", 0))
    n = args.n
    t = serialize.load_test_graph(data, n, seed)
    if t.digraph.vertex_count and n ** t.digraph.vertex_count > args.guard_maps:
        print(
            f"guard: per-string labeling count {n}**{t.digraph.vertex_count} exceeds map guard",
            file=sys.stderr,
        )
        return EXIT_GUARD
    results = []
    results.extend(verify.check_claims(t, data.get("claims", {})))
    results.extend(verify.exponent_suite(t, args.guard_partitions))
    try:
        results.extend(verify.kernel_suite(t, n, seed, args.draws, args.guard_partitions))
    except GuardExceeded as exc:
        results.append(("kernel-decomposition", True, f"skipped: {exc}"))
    report = {
        "n": n,
        "seed": seed,
        "checks": [{"name": nm, "passed": ok, "detail": detail} for nm, ok, detail in results],
        "passed": all(ok for _, ok, _ in results),
    }
    serialize.dump_json(os.path.join(args.out, "report.json"), report)
    if not report["passed"]:
        failed = next(nm for nm, ok, _ in results if not ok)
        print(f"check-failed: {failed}", file=sys.stderr)
        return EXIT_FAILED
    return EXIT_OK


def _chain_spec_from_config(data: dict) -> chains.ChainSpec:
    g, a = serialize.model_from_dict(data)
    if a is None:
        a = build_string_assignment(g)
    return chains.ChainSpec(
        graph=g,
        assignment=a,
        chi=tuple(data["chi"]),
        ell=tuple(int(x) for x in data["ell"]),
        x_mode=data.get("x_mode", "permutation"),
        lambda_mode=data.get("lambda_mode", "identity"),
        norm_bound=float(data.get("norm_bound", 1.0)),
    )


def _cmd_converge(args) -> int:
    data = serialize.load_json(args.config)
    if not all(isinstance(data[k], list) for k in ("chi", "ell", "n_grid")):
        raise ValueError("chi, ell and n_grid must be JSON lists")
    spec = _chain_spec_from_config(data)
    seed = args.seed if args.seed is not None else int(data.get("seed", 0))
    n_grid = [int(x) for x in data["n_grid"]]
    samples = int(data.get("samples", 200))
    band = data.get("slope_band", [-1.6, -0.6])
    workers = args.workers if args.workers is not None else os.cpu_count()
    table = chains.convergence_run(spec, n_grid, samples, seed, workers)
    with open(os.path.join(args.out, "results.csv"), "w") as fh:
        fh.write("\n".join(table.csv_lines()) + "\n")
    nonincreasing = chains.means_nonincreasing(table)
    within = table.slope is not None and band[0] <= table.slope <= band[1]
    all_zero = all(r["mean"] == 0.0 for r in table.rows)
    passed = (within or all_zero) and nonincreasing
    summary = {
        "seed": seed,
        "samples": samples,
        "n_grid": n_grid,
        "slope": table.slope,
        "slope_band": band,
        "within_band": within,
        "means_nonincreasing": nonincreasing,
        "passed": passed,
        "rows": list(table.rows),
    }
    serialize.dump_json(os.path.join(args.out, "summary.json"), summary)
    if not passed:
        print("check-failed: convergence", file=sys.stderr)
        return EXIT_FAILED
    return EXIT_OK


def _vertex_group_from_config(value):
    if value == "Z":
        return sofic.INTEGERS
    if isinstance(value, str) and value.startswith("cyclic:"):
        order = int(value.split(":", 1)[1])
        if order < 1:
            raise ValueError(f"cyclic group order must be positive, not {order}")
        return sofic.FiniteGroupTable.cyclic(order)
    if not isinstance(value, dict):
        raise ValueError(f'vertex group {value!r} is not "Z", "cyclic:<order>" or a table object')
    table, generators = value["table"], value["generators"]
    if not isinstance(table, list) or not all(
        isinstance(row, list) and len(row) == len(table) and all(isinstance(x, int) for x in row) for row in table
    ):
        raise ValueError("group table must be a square JSON list of integer lists")
    if not isinstance(generators, list) or not all(isinstance(x, int) for x in generators):
        raise ValueError("group generators must be a JSON list of integers")
    return sofic.FiniteGroupTable.of(table, generators)


def _cmd_sofic_certify(args) -> int:
    data = serialize.load_json(args.config)
    g, a = serialize.model_from_dict(data)
    if a is None:
        a = build_string_assignment(g)
    seed = args.seed if args.seed is not None else int(data.get("seed", 0))
    n = int(data["n"])
    if not isinstance(data["vertex_groups"], dict):
        raise ValueError("vertex_groups must be a JSON object from color to group")
    groups = {c: _vertex_group_from_config(v) for c, v in data["vertex_groups"].items()}
    reps = {}
    for c in g.colors:
        dim = n ** len(a.strings_of(c))
        group = groups[c]
        if group == sofic.INTEGERS:
            reps[c] = sofic.cyclic_shift_rep(dim)
        else:
            base = sofic.left_regular_rep(group)
            if base.n > dim:
                raise ValueError(
                    f"group of order {base.n} does not fit color block of size {dim}"
                )
            reps[c] = sofic.pad_rep(base, dim) if base.n < dim else base
    rep = sofic.graph_product_rep(g, a, reps, n, seed)
    words = _words_from_config(data, g, groups)
    cert = sofic.certify(rep, words)
    threshold = Fraction(str(data.get("threshold", "0.5")))
    payload = {
        "n": n,
        "seed": seed,
        "max_deviation": float(cert.max_deviation),
        "threshold": float(threshold),
        "words": [
            {
                "word": [list(l) for l in e.word],
                "trivial": e.trivial,
                "trace": {"num": e.trace.numerator, "den": e.trace.denominator},
                "deviation": float(e.deviation),
            }
            for e in cert.entries
        ],
    }
    serialize.dump_json(os.path.join(args.out, "certificate.json"), payload)
    with open(os.path.join(args.out, "certificate.csv"), "w") as fh:
        fh.write("\n".join(cert.csv_lines()) + "\n")
    if cert.max_deviation > threshold:
        print("check-failed: max deviation above threshold", file=sys.stderr)
        return EXIT_FAILED
    return EXIT_OK


def _words_from_config(data: dict, g, groups):
    spec = data.get("words", {"max_length": 3})
    if isinstance(spec, dict):
        alphabet = []
        for c in g.colors:
            group = groups[c]
            count = 1 if group == sofic.INTEGERS else len(group.generators)
            for j in range(1, count + 1):
                alphabet.append((c, j))
                alphabet.append((c, -j))
        words = []
        import itertools

        for m in range(1, int(spec["max_length"]) + 1):
            words.extend(itertools.product(alphabet, repeat=m))
    else:
        words = [tuple((str(c), int(j)) for c, j in w) for w in spec]
    out = []
    for w in words:
        letters = []
        for c, j in w:
            group = groups[c]
            if group == sofic.INTEGERS:
                letters.append((c, 1 if j > 0 else -1))
            else:
                letters.append((c, group.generator(j)))
        out.append((w, sofic.word_triviality(g, groups, letters)))
    return out


if __name__ == "__main__":
    sys.exit(main())
