"""Peak RSS after each mesh, assembly and factorization stage of one CLI call.

Usage (from the repository root):

    python3 devtools/rss_stages.py -- converge --refine 5 --out runs/rss
    python3 devtools/rss_stages.py --tree ../parent -- converge --refine 5 --out runs/rss

The CLI call runs in a fresh interpreter under the conditions that
`perfbench/run.py` measures in: BLAS and OpenMP on one thread, string
hash seed 0, no address-space randomization and an environment of
PATH, PYTHONPATH and those settings only.  `--tree` names the checkout
whose `src/` is imported (default: the current directory); the call
runs from there.  Before the call the child wraps `fem.refine`,
`fem.assemble` and the `splu` factorization in `eigen` from outside
the package, as `perfbench/layertrace.py` does, and prints the
process's peak RSS (`ru_maxrss`) after each of them and once more when
the call returns.  The k-th call of a stage is counted from 0, so for
`converge` it is the mesh level (refine k makes level k + 1).  Uses the
standard library and the package only.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import os
import resource
import subprocess
import sys
from pathlib import Path

THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
ADDR_NO_RANDOMIZE = 0x0040000


def peak_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fixed_address_layout() -> None:
    """Turn off address-space randomization for the process about to exec."""
    personality = ctypes.CDLL(None, use_errno=True).personality
    personality.argtypes, personality.restype = [ctypes.c_ulong], ctypes.c_int
    current = personality(0xFFFFFFFF)
    if current == -1 or personality(current | ADDR_NO_RANDOMIZE) == -1:
        raise OSError(ctypes.get_errno(), "personality(ADDR_NO_RANDOMIZE) failed")


def child(cli_args: list) -> int:
    """Run `hypspectra.cli.main(cli_args)` with the stages wrapped; print as they end."""
    import hypspectra.cli as cli
    import hypspectra.eigen as eigen

    calls = {}
    print(f"{'stage':10s} {'call':>4s} {'peak_rss_mib':>12s}", flush=True)

    def wrap(stage, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = fn(*args, **kwargs)
            k = calls[stage] = calls.get(stage, -1) + 1
            print(f"{stage:10s} {k:4d} {peak_mib():12.1f}", flush=True)
            return result
        return traced

    cli.refine = wrap("refine", cli.refine)
    cli.assemble = wrap("assemble", cli.assemble)
    eigen.splu = wrap("factor", eigen.splu)
    rc = cli.main(cli_args)
    print(f"{'end':10s} {'':4s} {peak_mib():12.1f}  (exit {rc})", flush=True)
    return 0


def main() -> int:
    if sys.argv[1:2] == ["--child"]:
        return child(sys.argv[3:])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", default=".", help="checkout whose src/ is run")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER,
                        help="-- then the hypspectra arguments")
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    tree = Path(args.tree).resolve()
    if not cli_args or not (tree / "src" / "hypspectra" / "cli.py").is_file():
        parser.error("give a checkout with src/hypspectra and the CLI arguments after --")
    env = {"PATH": os.environ.get("PATH", os.defpath), "PYTHONPATH": "src",
           "PYTHONHASHSEED": "0", **THREADS}
    script = os.path.relpath(Path(__file__).resolve(), tree)
    argv = [sys.executable, script, "--child", "--", *cli_args]
    return subprocess.run(argv, cwd=tree, env=env, preexec_fn=fixed_address_layout).returncode


if __name__ == "__main__":
    sys.exit(main())
