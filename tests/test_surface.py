"""The package's names: what the benchmark and `permprod.__all__` promise
resolves, and every private definition has a caller."""

import ast
import importlib
import pathlib
from collections import defaultdict

import permprod

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "permprod"


def _tracer_layers() -> dict:
    """bench/tracer.py's LAYERS, read from its source without importing it."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    (value,) = [n.value for n in tree.body if isinstance(n, ast.Assign) and n.targets[0].id == "LAYERS"]
    return ast.literal_eval(value)


def test_every_traced_name_resolves():
    missing = []
    for mod, names in _tracer_layers().items():
        module = importlib.import_module(f"permprod.{mod}")
        for name in names:
            obj = module
            for part in name.split("."):
                obj = getattr(obj, part, None)
            if obj is None:
                missing.append(f"{mod}.{name}")
    assert missing == []


def test_every_exported_name_resolves():
    assert [name for name in permprod.__all__ if not hasattr(permprod, name)] == []


def _private_definitions(tree: ast.Module):
    """Module-level functions and classes, and methods, whose names start
    with one underscore, as (name, first line, last line)."""
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else []
        for d in [node, *members]:
            if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if d.name.startswith("_") and not d.name.endswith("__"):
                    yield d.name, d.lineno, d.end_lineno


def _references(tree: ast.Module):
    """Each name a module reads, imports or looks up as an attribute, with its line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def test_every_private_definition_is_referenced_outside_itself():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    uses = defaultdict(list)  # name -> (module, line) of each reference
    for module, tree in trees.items():
        for name, line in _references(tree):
            uses[name].append((module, line))
    unused = []
    for module, tree in trees.items():
        for name, first, last in _private_definitions(tree):
            if all(other == module and first <= line <= last for other, line in uses[name]):
                unused.append(f"{module}:{first} {name}")
    assert unused == []


def _decorator_name(decorator: ast.expr) -> str | None:
    """The name a decorator gives, bare or from its module, called or not."""
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)


def test_every_dataclass_field_is_read():
    # a field is read as an attribute somewhere in the package, the tests
    # or the benchmark; one that nothing reads is dead weight on every instance
    sources = [*PACKAGE.glob("*.py"), *(ROOT / "tests").rglob("*.py"), *(ROOT / "bench").rglob("*.py")]
    read = {
        node.attr
        for path in sources
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and "dataclass" in map(_decorator_name, node.decorator_list):
                fields = [f.target.id for f in node.body if isinstance(f, ast.AnnAssign)]
                unread += [f"{path.name}:{node.name}.{f}" for f in fields if f not in read]
    assert unread == []


# Module-level memos that outlive a call, each with the reason it may.
CACHES_ALLOWED = {
    "chains.py:subset_indices": "a report holds its subset tuples, so tuples built per report would "
    "grow with the reports a caller keeps (the benchmark keeps every pass's)",
    "cli.py:_parser": "the argument parser: built once per process, it holds no result",
    "traffic.py:_einsum_plan": "planning a contraction path takes about 0.9 ms against 0.3 ms for the "
    "contraction, over 288 calls per kernel-moment benchmark pass; it holds paths, not operands",
}


def test_no_module_state_outlives_a_call():
    # a `global` statement is how a function keeps a result for the next
    # call, and a `functools` cache keeps every result; neither may, so no
    # cache outlives the call that filled it, but for the named memos
    found, cached = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Global):
                found.append(f"{path.name}:{node.lineno} {', '.join(node.names)}")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                _decorator_name(d) in ("cache", "lru_cache") for d in node.decorator_list
            ):
                cached.append(f"{path.name}:{node.name}")
    assert found == []
    assert sorted(cached) == sorted(CACHES_ALLOWED)


# Functions that take a guard as a parameter, each with the reason it may:
# every other guard is a module constant read where it is checked.
GUARD_PARAMETERS_ALLOWED = {
    "verify.py:exponent_suite": "`traffic-check --guard-partitions` sets its tuple guard",
    "verify.py:kernel_suite": "`traffic-check --guard-partitions` and `--guard-maps` set its tuple and labeling guards",
    "traffic.py:trace_test_graph": "`kernel_suite` passes it the `--guard-maps` labeling guard",
    "traffic.py:_trace_impl": "the one body of `trace_test_graph` and `injective_trace`, which passes the constant",
    "traffic.py:_check_labeling_count": "`traffic-check` checks `--guard-maps` with it before any per-vertex work",
    "traffic.py:_kernel_buckets": "`kernel_suite` passes it the `--guard-maps` chase-row guard",
    "traffic.py:chase_labelings": "`_kernel_buckets` and `_trace_impl` pass it their chase-row guard",
    "traffic.py:_chase": "every chase passes its row guard: `--guard-maps`, or the constant",
    "traffic.py:_kernel_sweep": "`exponent_suite` passes it `--guard-partitions`, the tree search the constant",
    "traffic.py:_admissible_count": "`_kernel_sweep`, `kernel_suite` and `enumerate_admissible` pass it their tuple guard",
}


def test_only_the_cli_path_takes_a_guard_parameter():
    # a guard no caller overrides is a constant that tests monkeypatch, not a
    # parameter passed down from a default
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                names = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
                if any("guard" in name for name in names):
                    found.append(f"{path.name}:{node.name}")
    extra = sorted(set(found) - set(GUARD_PARAMETERS_ALLOWED))
    assert not extra, "guard parameters off the allowlist:\n" + "\n".join(extra)
    assert sorted(set(GUARD_PARAMETERS_ALLOWED) - set(found)) == []  # no stale entry
