"""Benchmark of the hypspectra CLI: whole rounds of one workload, checked row by row.

Usage (from the repository root):

    python3 perfbench/run.py --workload family --seed 1 --seconds 20 --trace 0

Each round starts one fresh interpreter (`perfbench/child.py`) with
BLAS and OpenMP pinned to one thread, which calls `hypspectra.cli.main`
once on the workload.  Rounds repeat until `--seconds` have passed.
Every sweep row or converge level is one operation; it fails when any
check in `checks.py` finds a problem.  The last line of standard output
is the result: the medians over rounds of the end-to-end metrics, or
with `--trace 1` of the per-layer metrics from a traced round.
"""

from __future__ import annotations

import argparse
import compileall
import ctypes
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import converge_level_problems, sweep_row_problems
from layertrace import layer_metrics

HERE = Path(__file__).resolve().parent
CUFF = 2.0              # all three cuffs; gamma is cuff 1
# Round r of a run with seed s uses Lanczos starting vector (s + r) mod
# VECTORS, and a run has at least VECTORS rounds, so every run uses each
# vector and the seed sets their order.  The vector changes how much work
# the solver does: on refine-study, 10 of the first 32 vectors need 41
# operator applies at the finest level and the other 22 need 68, so runs
# that drew different vectors would differ by up to 20 % in wall time.
# All 32 vectors were run on every workload; each gives the same rows
# passing and failing.
VECTORS = 4
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# The peak RSS of one and the same CLI call moves between modes up to
# 18 % apart with the string hash seed, the address layout, and even the
# length of its arguments and environment.  So the measured process gets
# hash seed 0, no address randomization, a fixed environment, and
# arguments whose length depends on neither the seed nor the checkout path.
ADDR_NO_RANDOMIZE = 0x0040000
CHILD_TIMEOUT_S = 150
OUT = Path(".perfbench_runs")

# Why each workload exists is written in perfbench/README.md.
WORKLOADS = {
    "family": {"command": "sweep", "refine": 2, "n": 2, "N": (1, 2, 4, 8, 16)},
    "deep-cover": {"command": "sweep", "refine": 1, "n": 2, "N": (16, 24, 32, 64)},
    "many-lifts": {"command": "sweep", "refine": 1, "n": 7, "N": (4, 8, 16),
                   "mass": "lumped", "testfn": "one-sided"},
    "refine-study": {"command": "converge", "refine": 5},
}
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


def config_text(spec: dict) -> str:
    lines = [f"cuffs = {CUFF}, {CUFF}, {CUFF}", f"refine = {spec['refine']}"]
    if "n" in spec:
        lines += [f"n = {spec['n']}", "N = " + ", ".join(map(str, spec["N"]))]
    lines += [f"{key} = {spec[key]}" for key in ("mass", "testfn") if key in spec]
    return "\n".join(lines) + "\n"


def check_tables(spec: dict, out: Path) -> dict:
    """Problems found, keyed by the operation ("N=24", "level=3") the workload asks for."""
    if spec["command"] == "converge":
        path = out / "converge.json"
        rows = json.loads(path.read_text())["rows"] if path.exists() else []
        problems = converge_level_problems(rows)
        return {f"level={j}": problems[j] if j < len(rows) else ["level missing"]
                for j in range(spec["refine"] + 1)}
    path = out / "sweep.json"
    rows = json.loads(path.read_text())["rows"] if path.exists() else []
    by_N = {row["N"]: row for row in rows}
    return {f"N={N}": sweep_row_problems(by_N[N], spec["n"], N, CUFF) if N in by_N
            else ["row missing"] for N in spec["N"]}


def fixed_address_layout() -> None:
    """Turn off address-space randomization for the process about to exec."""
    personality = ctypes.CDLL(None, use_errno=True).personality
    personality.argtypes, personality.restype = [ctypes.c_ulong], ctypes.c_int
    current = personality(0xFFFFFFFF)
    if current == -1 or personality(current | ADDR_NO_RANDOMIZE) == -1:
        raise OSError(ctypes.get_errno(), "personality(ADDR_NO_RANDOMIZE) failed")


def run_round(spec: dict, run_dir: Path, cli_seed: int, trace: bool, env: dict) -> dict:
    out = run_dir / "out"
    shutil.rmtree(out, ignore_errors=True)
    result = run_dir / "child.json"
    result.unlink(missing_ok=True)
    cli_args = [spec["command"], "--config", str(run_dir / "bench.cfg"),
                "--out", str(out), "--seed", f"{cli_seed:02d}"]
    with open(run_dir / "cli.log", "w") as log:
        argv = [sys.executable, os.path.relpath(HERE / "child.py"), str(result),
                f"{time.time():.6f}", "1" if trace else "0", "--", *cli_args]
        proc = subprocess.run(argv, env=env, stdout=log, stderr=subprocess.STDOUT,
                              timeout=CHILD_TIMEOUT_S, preexec_fn=fixed_address_layout)
    if proc.returncode != 0 or not result.exists():
        raise RuntimeError(f"measured process exited {proc.returncode}; see {run_dir / 'cli.log'}")
    doc = json.loads(result.read_text())
    doc["problems"] = check_tables(spec, out)
    return doc


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = Path("src").resolve()
    if not (src / "hypspectra" / "cli.py").is_file():
        print("error: run from the repository root; src/hypspectra not found",
              file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    run_dir = OUT / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    (run_dir / "bench.cfg").write_text(config_text(spec))
    # Bytecode written now keeps compilation out of the first round's setup_s.
    compileall.compile_dir(str(src / "hypspectra"), quiet=1)
    env = {"PATH": os.environ.get("PATH", os.defpath), "PYTHONPATH": "src",
           "PYTHONHASHSEED": "0", **THREADS}

    rounds = []
    correct = True
    start = time.perf_counter()
    while len(rounds) < VECTORS or time.perf_counter() - start < args.seconds:
        cli_seed = (args.seed + len(rounds)) % VECTORS
        try:
            doc = run_round(spec, run_dir, cli_seed, bool(args.trace), env)
        except (OSError, RuntimeError, subprocess.SubprocessError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        failed = sum(1 for p in doc["problems"].values() if p)
        # Exit 0 claims every asserted inequality holds; 2 is a usage or I/O error.
        if doc["rc"] not in (0, 1) or (doc["rc"] == 0 and failed):
            correct = False
        doc["cli_seed"] = cli_seed
        rounds.append(doc)

    if args.trace:
        per_round = [layer_metrics(r["spans"], r["results"]) for r in rounds]
        units = {m: "s" if m.endswith(("_s", ".s")) else "count" for m in per_round[0]}
    else:
        per_round = [{m: r[m] for m in END_TO_END} for r in rounds]
        units = END_TO_END
    metrics = {m: {"value": statistics.median(pr[m] for pr in per_round), "unit": units[m]}
               for m in units}
    attempted = sum(len(r["problems"]) for r in rounds)
    failed = sum(1 for r in rounds for p in r["problems"].values() if p)

    first = rounds[0]
    info = {"workload": args.workload, "seed": args.seed,
            "rounds": len(rounds), "cli_exit_codes": sorted({r["rc"] for r in rounds}),
            "threads": first["threads"], "nproc": first["nproc"],
            "python": first["python"], "numpy": first["numpy"], "scipy": first["scipy"],
            "cli_seeds": [r["cli_seed"] for r in rounds], "per_round": per_round,
            "problems": {op: p for op, p in first["problems"].items() if p}}
    (run_dir / "summary.json").write_text(json.dumps(info, indent=1) + "\n")
    print(json.dumps(info))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
