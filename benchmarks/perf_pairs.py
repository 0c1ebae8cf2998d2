"""Alternating parent/change pairs of the two-clock benchmark.

    python benchmarks/perf_pairs.py PARENT CHANGE --workload one_big --seed 1 --pairs 10

``PARENT`` and ``CHANGE`` are git revisions of this repository, each
exported with ``git archive`` into a checkout of its own, or directories
that already hold a checkout. Pair ``k`` runs ``perfbench/run.py --trace
0`` once on each side, the parent first in even pairs, for ``--seconds``
(default 15) at ``--scale`` (default ``full``).

For every end-to-end metric of ``BENCHMARK.json`` (name, direction and
bound read from there) it prints each side's median and quartiles, the
pairs the change won (ties count for neither), whether the gain rule is
met (the change wins at least nine tenths of the pairs, and the medians
differ by more than the parent's interquartile range), whether the
change stays within the metric's bound, and whether the parent's own
spread is wider than that bound, which leaves the metric unresolved.
The last line of stdout is the summary as JSON. The exit status is
non-zero when any run is not ``correct`` or failed a request.

``--record`` appends one row to ``BENCH_perfbench.json`` at the root of
the repository holding this script: both SHAs, the workload, seed,
seconds and pairs, every run's ``host_speed_ms``, and the summary.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORD = ROOT / "BENCH_perfbench.json"
#: Share of pairs the change must win for a gain to count.
WIN_SHARE = 0.9


def _git(*args: str, cwd: Path = ROOT) -> Optional[str]:
    proc = subprocess.run(["git", *args], cwd=cwd, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def checkout(side: str, where: Path) -> Tuple[Path, Optional[str]]:
    """The directory ``side`` runs in and its commit: a directory as given,
    or a revision exported to ``where``."""
    if Path(side).is_dir():
        return Path(side).resolve(), _git("rev-parse", "HEAD", cwd=Path(side))
    sha = _git("rev-parse", "--verify", f"{side}^{{commit}}")
    if sha is None:
        sys.exit(f"error: {side!r} is neither a directory nor a revision")
    where.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", "--format=tar", sha], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(where)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        sys.exit(f"error: git archive {sha} failed")
    return where, sha


def run_once(root: Path, args) -> dict:
    """One untraced benchmark run in ``root``: its result, with the run's
    ``host_speed_ms`` added."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
         "--scale", args.scale],
        cwd=root, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        info, result = json.loads(lines[-2]), json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit(f"error: no result from {root} (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    result["host_speed_ms"] = info["run"]["host_speed_ms"]
    return result


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent: List[dict], change: List[dict]) -> dict:
    """Per end-to-end metric: each side's quartiles, the change's wins,
    and the gain, bound and resolution verdicts, over paired runs."""
    summary = {}
    for metric in SPEC["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sign = 1 if metric["better"] == "higher" else -1
        old = [run["metrics"][name]["value"] for run in parent]
        new = [run["metrics"][name]["value"] for run in change]
        (p1, pm, p3), (c1, cm, c3) = _quartiles(old), _quartiles(new)
        wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
        summary[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "parent": {"median": pm, "q1": p1, "q3": p3},
            "change": {"median": cm, "q1": c1, "q3": c3},
            "wins": wins,
            "pairs": len(old),
            "gain": wins >= WIN_SHARE * len(old) and sign * (cm - pm) > p3 - p1,
            "within_bound": sign * (cm - pm) >= -bound * abs(pm),
            "unresolved": p3 - p1 > bound * abs(pm),
        }
    return summary


def failures(runs: List[dict]) -> List[str]:
    """A line per run that was not correct or failed a request."""
    return [
        f"run {k}: correct={run['correct']} failed={run['failed']}"
        for k, run in enumerate(runs)
        if not run["correct"] or run["failed"]
    ]


def _table(summary: dict) -> str:
    head = (f"{'metric':24s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s}"
            "  wins  gain  bound  spread")
    rows = [head]
    for name, s in summary.items():
        sides = ["{median:10.4g} [{q1:9.4g}, {q3:9.4g}]".format(**s[side])
                 for side in ("parent", "change")]
        rows.append(
            f"{name:24s} {sides[0]:>34s} {sides[1]:>34s} {s['wins']:2d}/{s['pairs']:<2d} "
            f"{'yes' if s['gain'] else 'no':>4s}  {'ok' if s['within_bound'] else 'WORSE':>5s}"
            f"  {'unresolved' if s['unresolved'] else 'ok'}"
        )
    return "\n".join(rows)


def record(row: dict) -> None:
    """Append ``row`` to the JSON list in :data:`RECORD`."""
    rows = json.loads(RECORD.read_text()) if RECORD.exists() else []
    rows.append(row)
    RECORD.write_text(json.dumps(rows, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="revision or checkout directory of the parent")
    parser.add_argument("change", help="revision or checkout directory of the change")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--record", action="store_true",
                        help=f"append the summary to {RECORD.name}")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs and --seconds must be positive")

    with tempfile.TemporaryDirectory(prefix="perf_pairs_") as tmp:
        sides = [checkout(side, Path(tmp) / name)
                 for side, name in ((args.parent, "parent"), (args.change, "change"))]
        runs: List[List[dict]] = [[], []]
        for k in range(args.pairs):
            for side in ((0, 1) if k % 2 == 0 else (1, 0)):
                runs[side].append(run_once(sides[side][0], args))
                print(f"pair {k} {('parent', 'change')[side]}: "
                      f"{json.dumps(runs[side][-1]['metrics'])}", file=sys.stderr)
    summary = summarize(*runs)
    print(_table(summary))
    bad = [f"{name} {line}" for name, side in zip(("parent", "change"), runs)
           for line in failures(side)]
    for line in bad:
        print(f"error: {line}", file=sys.stderr)
    if args.record:
        record({
            "parent": sides[0][1],
            "change": sides[1][1],
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "scale": args.scale,
            "pairs": args.pairs,
            "host_speed_ms": {"parent": [run["host_speed_ms"] for run in runs[0]],
                              "change": [run["host_speed_ms"] for run in runs[1]]},
            "summary": summary,
        })
    print(json.dumps({"metrics": summary, "failures": bad}))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
