"""Byte identity as a checked-in contract.

Each file under fixtures/golden/ names a CLI run (a subcommand, its flags,
and an inline config or a bundled fixture) with the exit code it gives and
the SHA-256 of every file it writes.  A change that moves one byte of any
output fails here.  After a change meant to change an output, rewrite the
recorded codes and digests with `PYTHONPATH=src python tests/test_golden.py`.
"""

import hashlib
import json
import os
import pathlib
import sys

import pytest

from permprod.cli import main

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
CASES = sorted((FIXTURES / "golden").glob("*.json"))


def run_case(spec: dict, work: pathlib.Path) -> tuple[int, dict[str, str]]:
    """The exit code of the case's run and the digest of each file it writes."""
    out = work / "out"
    if "config" in spec:
        source = work / "config.json"
        source.write_text(json.dumps(spec["config"]))
    else:
        source = FIXTURES / spec["fixture"]
    code = main([spec["command"], str(source), *spec["flags"], "--out", str(out)])
    return code, {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in sorted(os.listdir(out))}


@pytest.mark.parametrize("case", CASES, ids=[c.stem for c in CASES])
def test_outputs_keep_their_recorded_digests(tmp_path, case):
    spec = json.loads(case.read_text())
    assert run_case(spec, tmp_path) == (spec["exit"], spec["sha256"])


if __name__ == "__main__":
    import tempfile

    for case in CASES:
        spec = json.loads(case.read_text())
        with tempfile.TemporaryDirectory() as work:
            spec["exit"], spec["sha256"] = run_case(spec, pathlib.Path(work))
        case.write_text(json.dumps(spec, indent=2) + "\n")
        print(f"{case.stem}: exit {spec['exit']}, {len(spec['sha256'])} files", file=sys.stderr)
