"""Tests of the benchmark's own row checks: python3 -m pytest perfbench -q"""

import copy
import math

import pytest

from checks import (GENUS2_AREA, converge_level_problems, expected_bound, expected_h,
                    pair_partner, sweep_row_problems)

# `sweep --refine 1 --n 2 --N 24`, as the program wrote it: lambda_2 is
# the k = 2 character's value, the second copy of lambda_1 was missed.
BAD_N24 = {
    "N": 24, "d": 72, "dof": 18864, "failed": False,
    "lambda": [-3.427813588530171e-15, 0.00046958143338743374,
               0.001877937705714039, 0.0042238967653656645],
    "h": 0.019894367886486915, "eta": 0.7719368329053048,
    "bound": 0.052569466555248134, "certificate": 0.035870527723022634,
    "bound_holds": True, "certificate_holds": True,
    "report": {"scale": 10.78464777841582},
}


def corrected():
    row = copy.deepcopy(BAD_N24)
    row["lambda"][2] = 0.00046958143338735497
    return row


def test_rejects_missed_multiplicity():
    problems = sweep_row_problems(BAD_N24, n=2, N=24, cuff=2.0)
    assert len(problems) == 1 and "deck partner" in problems[0]


def test_accepts_row_with_corrected_lambda_2():
    assert sweep_row_problems(corrected(), n=2, N=24, cuff=2.0) == []


@pytest.mark.parametrize("key, value, words", [
    ("h", 0.0199, "h ="),
    ("bound", 0.0526, "bound ="),
    ("d", 48, "degree"),
    ("bound_holds", False, "bound_holds"),
    ("certificate_holds", False, "certificate_holds"),
])
def test_rejects_each_wrong_field(key, value, words):
    row = corrected()
    row[key] = value
    problems = sweep_row_problems(row, n=2, N=24, cuff=2.0)
    assert len(problems) == 1 and words in problems[0]


def test_rejects_nonzero_kernel_and_failed_rows():
    row = corrected()
    row["lambda"][0] = 1e-6
    assert "lambda_0" in sweep_row_problems(row, n=2, N=24, cuff=2.0)[0]
    failed = {"N": 24, "d": 72, "failed": True, "error": "Lanczos did not converge"}
    assert "failed" in sweep_row_problems(failed, n=2, N=24, cuff=2.0)[0]


def test_closed_forms():
    assert expected_h(2, 1, 2.0) == pytest.approx(6.0 / (4.0 * math.pi), rel=1e-15)
    eta = math.asinh(1.0 / math.sinh(1.0))
    assert expected_bound(0.5, 2.0) == pytest.approx(2.0 / eta * 0.75, rel=1e-15)
    assert [pair_partner(n) for n in (1, 2, 3, 7)] == [2, 1, 4, 8]


def converge_rows(ratio):
    # lambda_k at level j = limit_k + c_k / ratio**j
    return [{"level": j, "area": GENUS2_AREA,
             "lambda": [1e-15] + [0.2 * k + 0.05 * k / ratio**j for k in range(1, 5)]}
            for j in range(6)]


def test_converge_accepts_fourfold_shrinking():
    assert converge_level_problems(converge_rows(4.0)) == [[]] * 6


def test_converge_rejects_slow_shrinking_and_wrong_area():
    problems = converge_level_problems(converge_rows(1.5))
    assert problems[:2] == [[], []] and all(len(p) == 4 for p in problems[2:])
    rows = converge_rows(4.0)
    rows[3]["area"] = GENUS2_AREA + 1e-6
    problems = converge_level_problems(rows)
    assert [bool(p) for p in problems] == [False, False, False, True, False, False]
