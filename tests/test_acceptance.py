"""Acceptance battery: every criterion at its stated scope and tolerance.

Each test runs one criterion from symplectic_ice.acceptance (the same code
the ``suite`` subcommand runs), prints its one-line report, and asserts it
passed.  All checks are exact equality except the Monte Carlo criterion
(5 standard errors per pooled outcome, aggregate chi-square below the
0.999 quantile) and the stated runtime budgets.
"""

import itertools
from functools import reduce

import pytest

from symplectic_ice import acceptance as acc
from symplectic_ice import relations as rel


def _run(criterion, **kwargs):
    result = criterion(**kwargs)
    print()
    print(result.line)
    assert result.passed, result.line
    return result


def test_criterion_01_uncolored_ybe():
    # 4 vertex pairs x 64 boundary combos x 20 points, exact, < 1 s
    res = _run(acc.criterion_1_ybe_uncolored)
    assert res.seconds < 1.0


def test_criterion_02_lemma_ybe():
    # 64 combos x 20 random (t1, t2, q) + the fish specialization
    _run(acc.criterion_2_ybe_lemma)


def test_criterion_03_caduceus():
    # 16 combos x 20 points x both caps, exact scalar; unit-scalar spot value
    _run(acc.criterion_3_caduceus)


def test_criterion_04_fish():
    # 4 boundary pairs x 20 points x both caps with the stated factors
    _run(acc.criterion_4_fish)


def test_criterion_05_colored_ybe():
    # both colored families, three crossing kinds, 4^6 combos x 5 points
    _run(acc.criterion_5_ybe_colored)


def test_criterion_06_reflection():
    # signed 5^4 over 5 labels, positive 3^4 over 3 labels, x 10 points
    _run(acc.criterion_6_reflection)


def test_criterion_07_functional():
    # figure instance + n <= 2, L <= 5 sweeps: normalized invariance under
    # every generator, enumeration == transfer, < 30 s
    res = _run(acc.criterion_7_functional)
    assert res.seconds < 30.0


def test_criterion_08_closed_form():
    # closed form == enumeration for n <= 2, L <= 5, all lambda, all sigma
    # with sigma(i) = -tau(i)
    _run(acc.criterion_8_closed_form)


def test_criterion_09_recursions():
    # all hypothesis-satisfying (sigma, i) at n = 2, L = 4, 10 points,
    # three-way enumeration, both signed recursions + the positive one
    _run(acc.criterion_9_recursions)


def test_criterion_10_demazure_lusztig():
    # operator spot values, quadratic relation on monomials of degree <= 3,
    # u-variable coefficient identities, and the normalized recursion
    _run(acc.criterion_10_demazure_lusztig)


def test_criterion_11_stochasticity():
    # every stochastic row sums to exactly 1; all ordinary-vertex weights
    # lie in [0, 1] at 100 random regime points
    _run(acc.criterion_11_stochasticity)


def test_criterion_11_counts_an_absent_input_tuple_as_zero(monkeypatch):
    # a row whose listed patterns miss an input tuple is not stochastic
    def missing_one(*args):
        sums = dict(real(*args))
        sums.pop(next(iter(sums)))
        return sums

    real = acc.stochastic_row_sums
    monkeypatch.setattr(acc, "stochastic_row_sums", missing_one)
    result = acc.criterion_11_stochasticity(points=1)
    assert not result.passed


def test_criterion_12_monte_carlo():
    # n in {1, 2}, L = 4, q = 1/2, z = 3/4, 10^5 seeded samples per family;
    # pooled z < 5, chi-square below the 0.999 quantile; exhaustive path
    # sum reproduces Z exactly for n = 1, L <= 2; < 60 s
    res = _run(acc.criterion_12_monte_carlo)
    assert res.seconds < 60.0


def _stepped_clock(monkeypatch, step):
    """Each read of the criteria's clock is ``step`` seconds after the last."""
    ticks = itertools.count(0.0, step)
    monkeypatch.setattr(acc, "perf_counter", lambda: next(ticks))


@pytest.mark.parametrize("criterion, budget, kwargs", [
    (acc.criterion_1_ybe_uncolored, 1.0, {"points": 1}),
    (acc.criterion_7_functional, 30.0, {"points": 1}),
    (acc.criterion_12_monte_carlo, 60.0, {"samples": 10**4}),
])
def test_budgeted_criterion_fails_when_it_runs_past_its_budget(monkeypatch, criterion,
                                                               budget, kwargs):
    _stepped_clock(monkeypatch, budget - 0.01)
    inside = criterion(**kwargs)
    assert inside.passed and inside.budget == budget and inside.seconds == budget - 0.01
    _stepped_clock(monkeypatch, budget)
    late = criterion(**kwargs)
    assert not late.passed and late.detail == inside.detail
    assert late.line.endswith(f"[{budget:.2f}s / budget {budget:.0f}s]")


def test_criterion_without_budget_never_fails_on_time(monkeypatch):
    _stepped_clock(monkeypatch, 10.0**6)
    result = acc.criterion_2_ybe_lemma(points=1)
    assert result.passed and result.budget is None
    assert result.line.endswith("[1000000.00s]")


def test_verify_relation_at_a_stride_merges_check_relation_at_each_seed():
    # criterion 8 reads closed-form at seeds seed, seed + 7, seed + 14, ...
    seed = 5
    merged = reduce(rel.RelationReport.merge,
                    [acc.check_relation("closed-form", seed + 7 * k) for k in range(3)])
    assert acc.verify_relation("closed-form", seed, 3, stride=7) == merged
    assert merged.points_tested == 3 and merged.combos_tested > 0
