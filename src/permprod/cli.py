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
import functools
import itertools
import os
import sys
from decimal import Decimal, InvalidOperation
from fractions import Fraction

from . import chains, serialize, sofic, verify
from .partitions import bell_exceeds
from .strings import build_string_assignment, validate_assignment
from .tensor import GuardExceeded
from .traffic import MAP_GUARD, PARTITION_GUARD, _check_labeling_count

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INPUT = 2
EXIT_GUARD = 3


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  Each subcommand takes
    only the flags it reads."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=".", help="output directory")
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=None, help="override the config seed")

    parser = argparse.ArgumentParser(prog="permprod")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("string-assign", parents=[common], help="build a string assignment for a color graph")
    p.add_argument("graph")

    p = sub.add_parser("traffic-check", parents=[seeded], help="verify moment invariants over a fixture")
    p.add_argument("fixture")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--draws", type=int, default=3)
    p.add_argument("--guard-maps", type=int, default=MAP_GUARD)
    p.add_argument("--guard-partitions", type=int, default=PARTITION_GUARD)

    p = sub.add_parser("converge", parents=[seeded], help="Monte Carlo decay of the centered chain norm")
    p.add_argument("config")
    p.add_argument("--workers", type=int, default=None, help="worker threads for sampling")

    p = sub.add_parser("sofic-certify", parents=[seeded], help="certify word traces of a product representation")
    p.add_argument("config")

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
    seed = args.seed if args.seed is not None else serialize.json_int(data.get("seed", 0), "seed")
    n = args.n
    if args.draws < 1 or n < 1:
        raise ValueError(f"--n and --draws must be positive, not {n} and {args.draws}")
    t = serialize.load_test_graph(data, n, seed)
    nv, ne = t.digraph.vertex_count, t.digraph.edge_count
    _check_labeling_count(n, nv, args.guard_maps)
    # each edge joins at most two components, so every rho_s has at least nv - ne blocks
    if t.assignment.strings and bell_exceeds(nv - ne, args.guard_partitions):
        raise GuardExceeded(f"partition tuple count of at least Bell({nv - ne}) exceeds guard {args.guard_partitions}")
    results = []
    results.extend(verify.check_claims(t, data.get("claims", {})))
    results.extend(verify.exponent_suite(t, args.guard_partitions))
    try:
        results.extend(verify.kernel_suite(t, seed, args.draws, args.guard_partitions, args.guard_maps))
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
        ell=tuple(serialize.json_int(x, "ell entry") for x in data["ell"]),
        x_mode=data.get("x_mode", "permutation"),
        lambda_mode=data.get("lambda_mode", "identity"),
        norm_bound=float(serialize.json_number(data.get("norm_bound", 1.0), "norm_bound")),
    )


def _cmd_converge(args) -> int:
    data = serialize.load_json(args.config)
    if not all(isinstance(data[k], list) for k in ("chi", "ell", "n_grid")):
        raise ValueError("chi, ell and n_grid must be JSON lists")
    spec = _chain_spec_from_config(data)
    seed = args.seed if args.seed is not None else serialize.json_int(data.get("seed", 0), "seed")
    n_grid = [serialize.json_int(x, "n_grid entry") for x in data["n_grid"]]
    samples = serialize.json_int(data.get("samples", 200), "samples")
    if samples < 1:
        raise ValueError(f"samples must be positive, not {samples}")
    band = serialize.json_list(data.get("slope_band", [-1.6, -0.6]), "slope_band")
    band = [serialize.json_number(x, "slope_band entry") for x in band]
    if len(band) != 2:
        raise ValueError(f"slope_band must hold two numbers, not {len(band)}")
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
        order = value.removeprefix("cyclic:")
        if not (order.isascii() and order.isdigit() and int(order) > 0):
            raise ValueError(f"cyclic group order must be a positive decimal integer, not {order!r}")
        return sofic.FiniteGroupTable.cyclic(int(order))
    if not isinstance(value, dict):
        raise ValueError(f'vertex group {value!r} is not "Z", "cyclic:<order>" or a table object')
    rows = [serialize.json_list(row, "a group table row") for row in serialize.json_list(value["table"], "group table")]
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("group table must be square")
    table = [[serialize.json_int(x, "a group table entry") for x in row] for row in rows]
    generators = serialize.json_list(value["generators"], "group generators")
    return sofic.FiniteGroupTable.of(table, [serialize.json_int(x, "a group generator") for x in generators])


def _cmd_sofic_certify(args) -> int:
    data = serialize.load_json(args.config)
    g, a = serialize.model_from_dict(data)
    if a is None:
        a = build_string_assignment(g)
    seed = args.seed if args.seed is not None else serialize.json_int(data.get("seed", 0), "seed")
    n = serialize.json_int(data["n"], "n")
    vertex_groups = serialize.json_object(data["vertex_groups"], "vertex_groups")
    groups = {c: _vertex_group_from_config(v) for c, v in vertex_groups.items()}
    threshold = _threshold(data.get("threshold", "0.5"))
    generators = sum(1 if groups[c] is sofic.INTEGERS else len(groups[c].generators) for c in g.colors)  # Z has one
    points = sofic.check_product_space(a, n, 2 * generators)  # a signed letter per generator and per inverse
    words = _words_from_config(data, g, groups)
    longest = max(len(word) for word, _ in words)
    if longest * points > sofic.LETTER_GUARD:  # `certify` stacks an image array per prefix of a head
        raise GuardExceeded(f"a word of {longest} letters on {points} points exceeds letter guard {sofic.LETTER_GUARD}")
    reps = {}
    for c in g.colors:
        dim = n ** len(a.strings_of(c))
        group = groups[c]
        if group is sofic.INTEGERS:
            reps[c] = sofic.cyclic_shift_rep(dim)
        else:
            base = sofic.left_regular_rep(group)
            if base.n > dim:
                raise ValueError(f"group of order {base.n} does not fit color block of size {dim}")
            reps[c] = sofic.pad_rep(base, dim) if base.n < dim else base
    rep = sofic.graph_product_rep(g, a, reps, n, seed)
    cert = sofic.certify(rep, words)
    max_deviation = cert.max_deviation
    header = {
        "n": n,
        "seed": seed,
        "max_deviation": float(max_deviation),
        "threshold": float(threshold),
        "words": [serialize.ROWS],
    }
    serialize.dump_json(os.path.join(args.out, "certificate.json"), header, cert.json_rows())
    with open(os.path.join(args.out, "certificate.csv"), "w") as fh:
        fh.write("\n".join(cert.csv_lines()) + "\n")
    if max_deviation > threshold:
        print("check-failed: max deviation above threshold", file=sys.stderr)
        return EXIT_FAILED
    return EXIT_OK


def _threshold(value) -> Fraction | Decimal:
    """The certificate's threshold, exactly: a JSON number or a string, read
    as a `Fraction` in "p/q" form ("1/3") and as a `Decimal` otherwise
    ("0.5", "1e-400"), which keeps its exponent symbolic and compares
    exactly with the deviation, so "1e-7000000" forms no power of ten.  It
    must lie within the float range the header writes it in."""
    text = str(value)
    try:
        threshold = Fraction(text) if "/" in text else Decimal(text) or Fraction(0)  # a zero has no sign
        if not -sys.float_info.max <= threshold <= sys.float_info.max:  # infinite, or past the float range
            threshold = None
    except (ZeroDivisionError, InvalidOperation):  # "p/0", not a number, or a NaN
        threshold = None
    if threshold is None:
        raise ValueError(f"threshold must be a number within the float range, not {value!r}")
    return threshold


def _words_from_config(data: dict, g, groups):
    """The words to certify, each with its triviality.  The alphabet runs
    (c, 1), (c, -1), (c, 2), ... per color; words up to `max_length` are
    tuples of the alphabet's own letter objects, and an explicit word's
    letters are checked against the alphabet here, once."""
    alphabet = {}  # (color, signed index) -> (color, group element)
    for c in g.colors:
        group = groups[c]
        for j in range(1, 2 if group is sofic.INTEGERS else len(group.generators) + 1):
            for sj in (j, -j):
                alphabet[(c, sj)] = (c, sj if group is sofic.INTEGERS else group.generator(sj))
    spec = data.get("words", {"max_length": 3})
    if isinstance(spec, dict):
        # no letter, or two or more: the words past this length are none, or
        # past the guard already, so none is ever counted or enumerated
        max_length = min(serialize.json_int(spec["max_length"], "words max_length"), sofic.WORD_GUARD.bit_length())
        if sum(len(alphabet) ** m for m in range(1, max_length + 1)) > sofic.WORD_GUARD:
            raise GuardExceeded(f"words up to length {spec['max_length']} exceed the word guard {sofic.WORD_GUARD}")
        words = [w for m in range(1, max_length + 1) for w in itertools.product(alphabet, repeat=m)]
    else:
        words = [
            tuple(_word_letter(x, alphabet) for x in serialize.json_list(w, "word"))
            for w in serialize.json_list(spec, "words")
        ]
        if len(words) > sofic.WORD_GUARD:
            raise GuardExceeded(f"{len(words)} words exceed the word guard {sofic.WORD_GUARD}")
    if not words:
        raise ValueError("words name no word to certify")
    return list(zip(words, sofic.word_trivialities(g, groups, words, alphabet)))


def _word_letter(x, alphabet: dict) -> tuple[str, int]:
    if not (isinstance(x, list) and len(x) == 2):
        raise ValueError(f"a word letter must be a JSON [color, index] pair, not {x!r}")
    letter = serialize.json_str(x[0], "a word letter color"), serialize.json_int(x[1], "word letter index")
    if letter not in alphabet:
        indices = [j for c, j in alphabet if c == letter[0]]
        raise ValueError(f"word letter {x!r} names no generator: color {letter[0]!r} has the indices {indices}")
    return letter


if __name__ == "__main__":
    sys.exit(main())
