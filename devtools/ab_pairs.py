"""Alternating benchmark pairs: a base commit against the working tree.

Usage (from the repository root):

    python3 devtools/ab_pairs.py --workload many-lifts --pairs 10 --first-seed 101

`--base` (default HEAD) is exported with `git archive` into `base/` of a
temporary directory, and the working tree's files (tracked and untracked,
but not ignored: `git ls-files -co --exclude-standard`) are copied into
its sibling `work/`.  Neither side runs in place, and both paths have the
same length, for perfbench's peak RSS moves with the checkout path.  For
each workload, pair i runs `perfbench/run.py` with seed first-seed + i
once on each copy, untraced and for the `run_seconds` that BENCHMARK.json
sets, and the side that runs first alternates from pair to pair, so a
drift in the machine's speed falls on both sides alike.  Every run
prints its result line as it finishes.  The summary gives, per workload
and metric, each side's median and quartiles over its runs, the pairs
the working tree won (every metric is lower-is-better; ties count for
neither side), and whether a gain may be claimed: the working tree won
at least nine tenths of the pairs and the medians differ by more than
the base's interquartile range.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def export(rev: str, into: Path) -> None:
    """Write the tree of commit `rev` into the directory `into`."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def copy_worktree(into: Path) -> None:
    """Copy the working tree's tracked and untracked, not ignored, files into `into`."""
    listed = subprocess.run(["git", "ls-files", "-z", "-co", "--exclude-standard"],
                            check=True, capture_output=True).stdout.decode()
    for name in listed.split("\0"):
        # a tracked file deleted from the working tree is still listed
        if name and Path(name).is_file():
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(name, into / name)


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced `perfbench/run.py` run in `tree`: its last output line, parsed."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summary(workload: str, runs: dict) -> list:
    """Lines of the per-metric comparison for one workload."""
    base, work = runs["base"], runs["work"]
    lines = [f"== {workload}: {len(base)} pairs"]
    for side in ("base", "work"):
        attempted = sum(r["attempted"] for r in runs[side])
        failed = sum(r["failed"] for r in runs[side])
        correct = all(r["correct"] for r in runs[side])
        lines.append(f"   {side}: correct {correct}, failed {failed} of {attempted}")
    lines.append(f"   {'metric':28s} {'base median [Q1, Q3]':>34s} "
                 f"{'work median [Q1, Q3]':>34s} {'change':>8s} {'won':>6s}  gain rule")
    for metric in base[0]["metrics"]:
        b = [r["metrics"][metric]["value"] for r in base]
        w = [r["metrics"][metric]["value"] for r in work]
        (bq1, bmed, bq3), (wq1, wmed, wq3) = quartiles(b), quartiles(w)
        won = sum(1 for x, y in zip(b, w) if y < x)
        holds = won >= 0.9 * len(b) and bmed - wmed > bq3 - bq1
        change = f"{(wmed - bmed) / bmed:+.1%}" if bmed else "n/a"
        lines.append(f"   {metric:28s} {bmed:12.6g} [{bq1:9.6g}, {bq3:9.6g}] "
                     f"{wmed:12.6g} [{wq1:9.6g}, {wq3:9.6g}] {change:>8s} "
                     f"{won:>3d}/{len(b):<2d}  {'holds' if holds else 'not met'}")
    return lines


def main() -> int:
    root = Path.cwd()
    if not (root / "perfbench" / "run.py").is_file() or not (root / "BENCHMARK.json").is_file():
        print("error: run from the repository root; perfbench/run.py or BENCHMARK.json "
              "not found", file=sys.stderr)
        return 2
    benchmark = json.loads((root / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True,
                        choices=[w["name"] for w in benchmark["workloads"]],
                        help="repeat for several workloads")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--base", default="HEAD", help="commit to compare against")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    same = subprocess.run(["git", "diff", "--quiet", args.base, "--", "perfbench"])
    if same.returncode != 0:
        print(f"warning: perfbench/ differs between {args.base} and the working tree, "
              "so the two sides run different benchmark code", file=sys.stderr)

    out = []
    with tempfile.TemporaryDirectory(prefix="ab_pairs_") as tmp:
        trees = {side: Path(tmp) / side for side in ("base", "work")}
        try:
            for tree in trees.values():
                tree.mkdir()
            export(args.base, trees["base"])
            copy_worktree(trees["work"])
            for workload in args.workload:
                runs = {"base": [], "work": []}
                for i in range(args.pairs):
                    seed = args.first_seed + i
                    order = ("base", "work") if i % 2 == 0 else ("work", "base")
                    for side in order:
                        result = bench(trees[side], workload, seed, benchmark["run_seconds"])
                        runs[side].append(result)
                        values = {m: v["value"] for m, v in result["metrics"].items()}
                        print(json.dumps({"workload": workload, "pair": i, "seed": seed,
                                          "side": side, "correct": result["correct"],
                                          "failed": result["failed"], **values}),
                              flush=True)
                out += summary(workload, runs)
        except (OSError, RuntimeError, subprocess.CalledProcessError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
    print("\n".join(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
