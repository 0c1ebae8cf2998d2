"""Check regenerated benchmark results against the committed ones.

Run after the benchmark harness (``pytest benchmarks/ --benchmark-only``)
has rewritten ``benchmarks/results/*.json`` and the figure and table
``*.txt`` files::

    python benchmarks/check_results.py

Each file is compared with ``git show HEAD:`` of the same path. In a
JSON file, floats must agree to a relative 1e-12 and every other leaf
(ints, strings, booleans, key sets, list lengths) must match exactly. A
text file must match line for line, except lines that state a wall-clock
time (they contain ``wall clock`` on both sides). Exits non-zero and
lists every differing leaf or line when a result drifted, or when a
results file exists on only one side.
"""

from __future__ import annotations

import json
import math
import pathlib
import subprocess
import sys
from typing import Iterator

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = pathlib.Path("benchmarks") / "results"
SUFFIXES = (".json", ".txt")
REL_TOL = 1e-12
WALL_CLOCK = "wall clock"
REF = "HEAD"


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def diff(old, new, path: str = "") -> Iterator[str]:
    """Every leaf where ``new`` differs from ``old``, as ``path: old -> new``."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            where = f"{path}.{key}" if path else key
            if key not in new:
                yield f"{where}: missing"
            elif key not in old:
                yield f"{where}: not in the committed file"
            else:
                yield from diff(old[key], new[key], where)
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            yield f"{path}: {len(old)} items -> {len(new)}"
        for i, (a, b) in enumerate(zip(old, new)):
            yield from diff(a, b, f"{path}[{i}]")
    elif _is_number(old) and _is_number(new) and (
        isinstance(old, float) or isinstance(new, float)
    ):
        if not math.isclose(old, new, rel_tol=REL_TOL, abs_tol=0.0):
            yield f"{path}: {old!r} -> {new!r}"
    elif type(old) is not type(new) or old != new:
        yield f"{path}: {old!r} -> {new!r}"


def text_diff(old: str, new: str) -> Iterator[str]:
    """Every line where ``new`` differs from ``old``, bar wall-clock lines."""
    old_lines, new_lines = old.splitlines(), new.splitlines()
    if len(old_lines) != len(new_lines):
        yield f"{len(old_lines)} lines -> {len(new_lines)}"
    for number, (a, b) in enumerate(zip(old_lines, new_lines), start=1):
        if a != b and not (WALL_CLOCK in a and WALL_CLOCK in b):
            yield f"line {number}: {a!r} -> {b!r}"


def committed_names() -> set:
    out = subprocess.run(
        ["git", "ls-tree", "--name-only", f"{REF}:{RESULTS.as_posix()}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout
    return {name for name in out.split() if name.endswith(SUFFIXES)}


def committed(name: str) -> str:
    return subprocess.run(
        ["git", "show", f"{REF}:{(RESULTS / name).as_posix()}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout


def changes(name: str, old: str, new: str) -> Iterator[str]:
    if name.endswith(".json"):
        return diff(json.loads(old), json.loads(new))
    return text_diff(old, new)


def main() -> int:
    on_disk = {
        p.name for p in (ROOT / RESULTS).iterdir() if p.name.endswith(SUFFIXES)
    }
    in_git = committed_names()
    problems = [
        f"{name}: not committed at {REF}" for name in sorted(on_disk - in_git)
    ] + [f"{name}: missing on disk" for name in sorted(in_git - on_disk)]
    for name in sorted(on_disk & in_git):
        new = (ROOT / RESULTS / name).read_text()
        problems += [
            f"{name}: {line}" for line in changes(name, committed(name), new)
        ]
    for line in problems:
        print(line)
    print(
        f"checked {len(on_disk & in_git)} results files against {REF}: "
        + ("unchanged" if not problems else f"{len(problems)} differences")
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
