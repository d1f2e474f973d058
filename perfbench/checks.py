"""Correctness checks on the CLI's result tables, with references computed here.

Nothing in this module imports the program or takes a program output as
its reference: the expected values come from the workload's own inputs
(cuff length, n, N) and closed-form facts of the construction.  Each
function returns a list of problems; an empty list means the operation
(one sweep row, or one converge level) is correct.
"""

from __future__ import annotations

import math

# Gauss-Bonnet: a closed hyperbolic surface of genus 2 has area -2*pi*chi = 4*pi.
GENUS2_AREA = 4.0 * math.pi
FORMULA_RTOL = 1e-9    # h and bound recomputed from the inputs
KERNEL_RTOL = 1e-8     # |lambda_0| against trace(K)/dof (sweep) or lambda_1 (converge)
PAIR_RTOL = 1e-8       # deck-forced double eigenvalues
AREA_ATOL = 1e-8
MIN_SHRINK = 2.0       # level-to-level change must shrink by more than this


def expected_h(n: int, N: int, cuff: float) -> float:
    """Interface length over piece area: (n+1) l(gamma) / (N * 4 pi)."""
    return (n + 1) * cuff / (N * GENUS2_AREA)


def expected_bound(h: float, cuff: float) -> float:
    """Closed-form bound (2/eta)(h + h^2) with the collar-lemma width eta."""
    eta = math.asinh(1.0 / math.sinh(cuff / 2.0))
    return (2.0 / eta) * (h + h * h)


def pair_partner(n: int) -> int:
    """Index of the eigenvalue that lambda_n must equal.

    The deck group of a degree-d cyclic cover splits the spectrum over
    the characters k = 0..d-1, and characters k and d-k give the same
    eigenvalues.  On the benchmark's covers lambda_1 .. lambda_{n+1}
    come from the pairs (1, d-1), (2, d-2), ..., so in ascending order
    they pair up as (lambda_1, lambda_2), (lambda_3, lambda_4), ...
    """
    return n - 1 if n % 2 == 0 else n + 1


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def sweep_row_problems(row: dict, n: int, N: int, cuff: float) -> list:
    """Problems with one `sweep.json` row of a cover with multiplier N."""
    if row.get("failed"):
        return [f"row failed in the program: {row.get('error', '?')}"]
    problems = []
    if row["d"] != (n + 1) * N:
        problems.append(f"degree {row['d']} != (n+1)N = {(n + 1) * N}")
    h = expected_h(n, N, cuff)
    if not _close(row["h"], h, FORMULA_RTOL):
        problems.append(f"h = {row['h']!r}, expected {h!r}")
    bound = expected_bound(h, cuff)
    if not _close(row["bound"], bound, FORMULA_RTOL):
        problems.append(f"bound = {row['bound']!r}, expected {bound!r}")
    lam = row["lambda"]
    if len(lam) != n + 2 or not all(math.isfinite(v) for v in lam):
        return problems + [f"expected {n + 2} finite eigenvalues, got {lam!r}"]
    scale = row["report"]["scale"]
    if abs(lam[0]) > KERNEL_RTOL * scale:
        problems.append(f"|lambda_0| = {abs(lam[0]):.3e} > {KERNEL_RTOL} * trace(K)/dof")
    for flag in ("certificate_holds", "bound_holds"):
        if row[flag] is not True:
            problems.append(f"{flag} is {row[flag]!r}")
    p = pair_partner(n)
    if not _close(lam[n], lam[p], PAIR_RTOL):
        problems.append(f"lambda_{n} = {lam[n]!r} has no deck partner: "
                        f"lambda_{p} = {lam[p]!r}")
    return problems


def converge_level_problems(rows: list) -> list:
    """Problems per level of a `converge.json` refinement study, in level order.

    Every level needs area 4*pi and a kernel lambda_0.  From level 2 on,
    the change of each of lambda_1..lambda_4 into this level must be
    less than half the change into the previous level.
    """
    out = []
    for j, row in enumerate(rows):
        problems = []
        lam = row["lambda"]
        if row["level"] != j:
            problems.append(f"level {row['level']} at position {j}")
        if abs(row["area"] - GENUS2_AREA) > AREA_ATOL:
            problems.append(f"area {row['area']!r} != 4*pi")
        if abs(lam[0]) > KERNEL_RTOL * lam[1]:
            problems.append(f"|lambda_0| = {abs(lam[0]):.3e} > {KERNEL_RTOL} * lambda_1")
        if j >= 2:
            for k in range(1, len(lam)):
                before = abs(rows[j - 2]["lambda"][k] - rows[j - 1]["lambda"][k])
                now = abs(rows[j - 1]["lambda"][k] - lam[k])
                if not now * MIN_SHRINK < before:
                    problems.append(f"lambda_{k} change {now:.3e} is not below "
                                    f"1/{MIN_SHRINK:g} of the previous {before:.3e}")
        out.append(problems)
    return out
