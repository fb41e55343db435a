"""The relation registry and the full acceptance battery.

``RELATIONS`` maps every relation id to how its point is drawn from a
seed and how it is checked there; ``check_relation`` runs one point and
``verify_relation``, the one loop over the registry, merges its points.
The ``verify`` subcommand (whose ``--relation`` choices are the registry's
ids) prints that report and the criteria below sum those reports, so
adding a relation is adding one entry.  Criteria 1-6 are ``verify`` of
their relations; criteria 7-10 check theirs at their own seed strides
and add the cases only they cover.

Each criterion body returns (passed, detail); ``_criterion`` times it and
fails it past its budget, and ``run_suite`` reports one line per
criterion.  The pytest suite and the command-line ``suite`` subcommand
both drive exactly this code, so "the tests pass" and "the suite passes"
cannot drift apart.

All checks are exact except the Monte Carlo criterion, whose tolerances
(5 standard errors per outcome, aggregate chi-square below the 0.999
quantile) are fixed here and nowhere else.
"""

from __future__ import annotations

import itertools
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce, wraps
from time import perf_counter
from typing import Callable

from . import functional as fn
from . import relations as rel
from .dynamics import (ESCAPE, SamplerConfig, compare_empirical_to_exact,
                       exact_outcome_probabilities, exhaustive_distribution,
                       run_sampler)
from .lattice import (LatticeSpec, Partition, SignedPermutation,
                      all_plain_permutations, all_signed_permutations,
                      enumerate_states, partition_function)
from .rationals import ParamPoint, sample_point, sample_regime_point, zprime
from .weights import (Family, Model, STOCHASTIC_INPUT_SLOTS, alphabet,
                      pattern_table, stochastic_row_sums)

DEFAULT_SEED = 20250810

GAMMA, DELTA = Family.GAMMA, Family.DELTA


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float
    budget: float | None = None   # stated runtime bound, if any

    @property
    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" [{self.seconds:.2f}s]" if self.budget is None else \
            f" [{self.seconds:.2f}s / budget {self.budget:.0f}s]"
        return f"criterion {self.number:>2} {status}  {self.name}: {self.detail}{extra}"


def _partitions(nparts, maxpart):
    if nparts == 0:
        return [()]
    out = []
    def rec(k, hi, acc):
        if k == 0:
            out.append(tuple(acc))
            return
        for first in range(hi, -1, -1):
            rec(k - 1, first, acc + [first])
    rec(nparts, maxpart, [])
    return out


# --------------------------------------------------------------------------
# the relation registry
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Relation:
    """One checkable relation: ``draw(seed)`` gives the point and
    ``check(point, paranoid)`` the RelationReport at that point."""

    draw: Callable
    check: Callable


_point1, _point2 = partial(sample_point, 1), partial(sample_point, 2)


def _lemma_triple(seed):
    """(t1, t2, q) by rejection: q != 1 and a nonzero crossing denominator."""
    rng = random.Random(seed)
    while True:
        t1 = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        t2 = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        q = Fraction(rng.randint(2, 10**6), rng.randint(1, 10**6))
        if q != 1 and 1 - (q + 1) * t1 + q * t1 * t2 != 0:
            return t1, t2, q


def _functional(name, cases):
    """A global law as a relation at n = 2 points: ``cases(point)`` yields
    (case, lhs, rhs) triples; each case is one combo, each with lhs != rhs
    a failure recorded as (point, case, lhs, rhs)."""
    def check(pt, paranoid):
        report = rel.RelationReport(name, points_tested=1)
        for case, lhs, rhs in cases(pt):
            report.combos_tested += 1
            if lhs != rhs:
                report.failures.append((pt, case, lhs, rhs))
        return report
    return Relation(_point2, check)


_PAIRS = {"gg": (GAMMA, GAMMA), "gd": (GAMMA, DELTA), "dg": (DELTA, GAMMA), "dd": (DELTA, DELTA)}
_CAPS = ("reflecting", "absorbing")
_COLORED = ("signed", "positive")
_LAM21 = Partition((2, 1))
_ID2, _SWAP2 = SignedPermutation((1, 2)), SignedPermutation((2, 1))


def _weyl_cases(model, lams):
    def cases(pt):
        for lam in lams:
            spec = LatticeSpec(model, 2, 4, Partition(lam), pt)
            for gen in (1, 2):
                yield f"lambda={lam} s_{gen}", *fn.weyl_invariance_sides(spec, (gen,))
    return cases


def _interchange_cases(model, lam):
    def cases(pt):
        yield f"lambda={lam}", *fn.interchange_sides(LatticeSpec(model, 2, 4, Partition(lam), pt))
    return cases


def _closed_form_cases(pt, L=4):
    """sigma(i) = -tau(i): the closed form is Z for every lambda and sigma."""
    n = pt.n
    for lam in _partitions(n, L - n):
        for sig in all_signed_permutations(n):
            tau = SignedPermutation([-v for v in sig.images])
            spec = LatticeSpec(Model.COLORED_SIGNED, n, L, Partition(lam), pt, sig, tau)
            yield f"L={L} lambda={lam} sigma={sig.images}", *fn.closed_form_sides(spec)


def _recursion_si_signed_cases(pt):
    for sig in all_signed_permutations(2):
        if sig(2) > sig(1):
            spec = LatticeSpec(Model.COLORED_SIGNED, 2, 4, _LAM21, pt, sig, _ID2)
            yield f"sigma={sig.images}", *fn.recursion_si_sides(spec, 1)


def _recursion_sn_signed_cases(pt):
    for sig in all_signed_permutations(2):
        if sig(2) > 0:
            spec = LatticeSpec(Model.COLORED_SIGNED, 2, 4, _LAM21, pt, sig, _ID2)
            yield f"sigma={sig.images}", *fn.recursion_sn_sides(spec)


def _recursion_si_positive_cases(pt):
    for sig in all_plain_permutations(2):
        if sig(2) > sig(1):
            for tau in all_plain_permutations(2):
                spec = LatticeSpec(Model.COLORED_POSITIVE, 2, 4, _LAM21, pt, sig, tau)
                yield f"sigma={sig.images} tau={tau.images}", *fn.recursion_si_sides(spec, 1)


def _dl_recursion_cases(pt):
    for name, lhs, rhs in fn.u_coefficient_sides(pt):
        yield f"u-coefficient {name}", lhs, rhs
    for sig, tau, i in ((_ID2, _ID2, 1), (_ID2, _ID2, 2), (_ID2, _SWAP2, 1), (_ID2, _SWAP2, 2),
                        (SignedPermutation((-2, 1)), _SWAP2, 1)):
        spec = LatticeSpec(Model.COLORED_SIGNED, 2, 4, _LAM21, pt, sig, tau)
        yield f"sigma={sig.images} tau={tau.images} i={i}", *fn.dl_recursion_sides(spec, i)


#: Every relation ``verify`` and the criteria check, by id; adding a
#: relation is adding one entry here.
RELATIONS = {
    **{f"ybe-{p}": Relation(_point2, lambda pt, paranoid, XY=XY: rel.verify_ybe_uncolored(*XY, pt))
       for p, XY in _PAIRS.items()},
    "ybe-lemma": Relation(_lemma_triple, lambda triple, paranoid: rel.verify_ybe_lemma(*triple)),
    **{f"caduceus-{cap}": Relation(_point2, lambda pt, paranoid, cap=cap: rel.verify_caduceus(pt, cap))
       for cap in _CAPS},
    **{f"fish-{cap}": Relation(_point1, lambda pt, paranoid, cap=cap: rel.verify_fish(pt, cap))
       for cap in _CAPS},
    **{f"ybe-colored-{m}-{p}": Relation(_point2, lambda pt, paranoid, m=m, XY=_PAIRS[p]:
                                        rel.verify_ybe_colored(m, *XY, pt, paranoid=paranoid))
       for m in _COLORED for p in ("dg", "gg", "dd")},
    **{f"reflection-{m}": Relation(_point2, lambda pt, paranoid, m=m:
                                   rel.verify_reflection(m, pt, paranoid=paranoid))
       for m in _COLORED},
    **{name: _functional(name, cases) for name, cases in {
        "weyl-reflecting": _weyl_cases(Model.UNCOLORED_REFLECTING, [(2, 1)]),
        "weyl-absorbing": _weyl_cases(Model.UNCOLORED_ABSORBING, [(2, 1), (2, 0)]),
        "interchange-reflecting": _interchange_cases(Model.UNCOLORED_REFLECTING, (2, 1)),
        "interchange-absorbing": _interchange_cases(Model.UNCOLORED_ABSORBING, (2, 0)),
        "closed-form": _closed_form_cases,
        "recursion-si-signed": _recursion_si_signed_cases,
        "recursion-sn-signed": _recursion_sn_signed_cases,
        "recursion-si-positive": _recursion_si_positive_cases,
        "dl-recursion": _dl_recursion_cases,
    }.items()},
}


def check_relation(relation: str, seed: int, paranoid: bool = False) -> rel.RelationReport:
    """One point of one relation, drawn from ``seed`` (top level, so pools can pickle it)."""
    entry = RELATIONS[relation]
    return entry.check(entry.draw(seed), paranoid)


def verify_relation(relation: str, seed: int, points: int, stride: int = 1,
                    paranoid: bool = False, jobs: int = 1) -> rel.RelationReport:
    """``relation`` at seeds seed + stride * k, k < points, merged in that
    order; ``jobs`` > 1 checks them in a pool of at most ``points`` processes."""
    check = partial(check_relation, relation, paranoid=paranoid)
    seeds = range(seed, seed + stride * points, stride)
    workers = min(jobs, points)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(check, seeds))
    else:
        parts = map(check, seeds)
    return reduce(rel.RelationReport.merge, parts, rel.RelationReport(relation))


def _verify(relations, seed, points, stride=1):
    """(combos, failures) summed over ``verify_relation`` of each relation."""
    reports = [verify_relation(relation, seed, points, stride) for relation in relations]
    return sum(r.combos_tested for r in reports), sum(len(r.failures) for r in reports)


# --------------------------------------------------------------------------
# criteria
# --------------------------------------------------------------------------

def _criterion(number: int, name: str, budget: float | None = None):
    """Make a body returning ``(passed, detail)`` into criterion ``number``:
    the body is timed, and a run that takes ``budget`` seconds or more
    fails.  This is the one place a criterion's duration meets its budget.
    """
    def wrap(body):
        @wraps(body)
        def criterion(*args, **kwargs) -> CriterionResult:
            start = perf_counter()
            passed, detail = body(*args, **kwargs)
            seconds = perf_counter() - start
            passed = passed and (budget is None or seconds < budget)
            return CriterionResult(number, name, passed, detail, seconds, budget)
        return criterion
    return wrap


@_criterion(1, "uncolored crossing identities", budget=1.0)
def criterion_1_ybe_uncolored(seed=DEFAULT_SEED, points=20):
    combos, failures = _verify([f"ybe-{p}" for p in _PAIRS], seed, points)
    return failures == 0, f"{combos} boundary combos, {failures} failures"


@_criterion(2, "free-parameter crossing identity")
def criterion_2_ybe_lemma(seed=DEFAULT_SEED, points=20):
    _, failures = _verify(["ybe-lemma"], seed, points)
    # the specialization that realises the fish crossing
    pt = sample_point(1, seed)
    z, q = pt.z[0], pt.q
    failures += len(rel.verify_ybe_lemma(1 / (q * z), zprime(z, q) / q, q).failures)
    return failures == 0, f"{points}+1 parameter triples, {failures} failures"


@_criterion(3, "braid-vs-caps proportionality")
def criterion_3_caduceus(seed=DEFAULT_SEED, points=20):
    combos, failures = _verify([f"caduceus-{cap}" for cap in _CAPS], seed, points)
    spot = rel.dg.caduceus_scalar(Fraction(1, 2), Fraction(1, 3), Fraction(2)) == 1
    return (failures == 0 and spot,
            f"{combos} combos, {failures} failures, unit-scalar spot {'ok' if spot else 'BAD'}")


@_criterion(4, "crossing-cap collapse identity")
def criterion_4_fish(seed=DEFAULT_SEED, points=20):
    combos, failures = _verify([f"fish-{cap}" for cap in _CAPS], seed, points)
    return failures == 0, f"{combos} combos, {failures} failures"


@_criterion(5, "colored crossing identities")
def criterion_5_ybe_colored(seed=DEFAULT_SEED, points=5):
    combos, failures = _verify([r for r in RELATIONS if r.startswith("ybe-colored-")], seed, points)
    return failures == 0, f"{combos} combos (4^6 per sweep), {failures} failures"


@_criterion(6, "cap braid (reflection) identities")
def criterion_6_reflection(seed=DEFAULT_SEED, points=10):
    combos, failures = _verify([f"reflection-{m}" for m in _COLORED], seed, points)
    return failures == 0, f"{combos} combos, {failures} failures"


def _uncolored_specs(model, max_L=5):
    ns = (1, 2)
    for n in ns:
        for L in range(n, max_L + 1):
            if model is Model.UNCOLORED_REFLECTING:
                lams = _partitions(n, L - n)
            else:
                lams = []
                for np_ in range(0, 2 * n + 1, 2):
                    if np_ <= L:
                        lams.extend(_partitions(np_, L - np_))
            for lam in lams:
                yield n, L, Partition(lam)


@_criterion(7, "normalized Weyl invariance + transfer agreement", budget=30.0)
def criterion_7_functional(seed=DEFAULT_SEED, points=10):
    # the figure instance, all generators, every point
    checked, failures = _verify([f"weyl-{cap}" for cap in _CAPS], seed, points)
    bad = []
    for model in (Model.UNCOLORED_REFLECTING, Model.UNCOLORED_ABSORBING):
        # sweeps n <= 2, L <= 5, all lambda, plus transfer == enumeration
        for n, L, lam in _uncolored_specs(model):
            for k in range(points):
                pt = sample_point(n, seed + 100 + k)
                spec = LatticeSpec(model, n, L, lam, pt)
                if partition_function(spec) != sum((w for _, w in enumerate_states(spec)),
                                                   Fraction(0)):
                    bad.append(("transfer", model.value, n, L, lam.parts, pt))
                for gen in range(1, n + 1):
                    if not fn.check_weyl_invariance(spec, (gen,)):
                        bad.append((model.value, n, L, lam.parts, gen, pt))
                    checked += 1
    failures += len(bad)
    return failures == 0, f"{checked} invariance checks, {failures} failures"


@_criterion(8, "opposite-boundary closed form")
def criterion_8_closed_form(seed=DEFAULT_SEED, points=10):
    checked, bad = _verify(["closed-form"], seed, points, stride=7)
    # every other (n, L) with n <= 2, L <= 5 at three points
    for n in (1, 2):
        for L in range(n, 6):
            if (n, L) == (2, 4):
                continue
            for k in range(3):
                for _, lhs, rhs in _closed_form_cases(sample_point(n, seed + 7 * k), L):
                    checked += 1
                    bad += lhs != rhs
    return bad == 0, f"{checked} (n,L,lambda,sigma,point) cases, {bad} mismatches"


@_criterion(9, "colored recursions (s_i, s_n, positive s_i)")
def criterion_9_recursions(seed=DEFAULT_SEED, points=10):
    checked, bad = _verify(["recursion-si-signed", "recursion-sn-signed", "recursion-si-positive"],
                           seed, points, stride=13)
    return bad == 0, f"{checked} hypothesis-satisfying cases, {bad} failures"


@_criterion(10, "divided-difference operator correspondence")
def criterion_10_demazure_lusztig(seed=DEFAULT_SEED, points=20):
    bad = []
    rng = random.Random(seed)
    # operator identities at random u-points
    for k in range(points):
        u = tuple(Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6)) for _ in range(2))
        v = Fraction(rng.randint(2, 10**6), rng.randint(1, 10**6))
        if u[0] == u[1] or u[1] ** 2 == 1 or u[0] * u[1] in (0,):
            continue
        up = fn.UPoint(u, v)
        if fn.dl_apply("L", 1, up, lambda x: Fraction(1)) != v:
            bad.append(("L(1)", u, v))
        if fn.dl_apply("Lhat", 1, up, lambda x: Fraction(1)) != 1:
            bad.append(("Lhat(1)", u, v))
        if fn.dl_apply("L", 1, up, lambda x: x[0]) != u[1]:
            bad.append(("L1(u1)", u, v))
        for e in itertools.product(range(4), repeat=2):
            if sum(e) > 3:
                continue
            f = lambda x, e=e: x[0] ** e[0] * x[1] ** e[1]
            for i in (1, 2):
                Lf = lambda x, i=i, f=f: fn.dl_apply("L", i, fn.UPoint(x, v), f)
                if fn.dl_apply("Lhat", i, up, Lf) != v * f(u):
                    bad.append(("quadratic", e, i, u, v))
    # u-form of the recursion coefficients, and the lattice recursion
    _, failures = _verify(["dl-recursion"], seed, points, stride=17)
    failures += len(bad)
    return failures == 0, f"{failures} failures"


@_criterion(11, "stochasticity and regime positivity")
def criterion_11_stochasticity(seed=DEFAULT_SEED, points=100):
    bad = []
    n = 2
    pt = sample_point(n, seed)
    q = pt.q
    # exact unit row sums for every input tuple of every stochastic table of
    # every family, one table each; a tuple with no listed pattern sums to 0
    for model in Model:
        letters = alphabet(model, n)
        for fam, slots in STOCHASTIC_INPUT_SLOTS.items():
            if fam is Family.CAP or fam is Family.NEW_CAP:
                if fam is Family.NEW_CAP and model.colored:
                    continue
                params = ()
            elif fam in (Family.GAMMA, Family.DELTA):
                params = (pt.z[0],)
            else:
                params = (pt.z[0], pt.z[1])
            sums = stochastic_row_sums(model, fam, params, q, n)
            for inputs in itertools.product(letters, repeat=len(slots)):
                s = sums.get(inputs, 0)
                if s != 1:
                    bad.append((model.value, fam.value, inputs, s))
    # weights within [0, 1] at regime points; every unlisted pattern weighs
    # exactly 0, so the listed ones are the ones to check
    for k in range(points):
        rp = sample_regime_point(n, seed + k)
        for model in Model:
            letters = alphabet(model, n)
            for fam in (Family.GAMMA, Family.DELTA):
                for edges, w in pattern_table(model, fam, (rp.z[0],), rp.q, letters).items():
                    if not 0 <= w <= 1:
                        bad.append(("range", model.value, fam.value, edges, w))
    return not bad, f"{len(bad)} violations"


@_criterion(12, "Monte Carlo frequencies vs exact law", budget=60.0)
def criterion_12_monte_carlo(seed=DEFAULT_SEED, samples=10**5):
    issues = []
    q, zv = Fraction(1, 2), Fraction(3, 4)
    runs = []
    for n in (1, 2):
        point = ParamPoint((zv,) * n, q)
        ident = SignedPermutation.identity(n)
        runs.append(LatticeSpec(Model.UNCOLORED_REFLECTING, n, 4, Partition((0,) * n), point))
        runs.append(LatticeSpec(Model.UNCOLORED_ABSORBING, n, 4, Partition(()), point))
        runs.append(LatticeSpec(Model.COLORED_SIGNED, n, 4, Partition((0,) * n), point, ident, ident))
        runs.append(LatticeSpec(Model.COLORED_POSITIVE, n, 4, Partition((0,) * n), point, ident, ident))
    for spec in runs:
        summary = run_sampler(SamplerConfig(spec, seed, samples))
        exact = exact_outcome_probabilities(spec)
        report = compare_empirical_to_exact(summary, exact)
        if not report.within(5.0):
            issues.append((spec.model.value, spec.n, report.max_z, report.chi2_stat))
    # exhaustive path-sum reproduces Z exactly for n = 1, L <= 2
    for L in (1, 2):
        point = ParamPoint((zv,), q)
        for model in Model:
            ident = SignedPermutation.identity(1)
            sig = ident if model.colored else None
            lam0 = Partition(()) if model is Model.UNCOLORED_ABSORBING else Partition((0,))
            spec = LatticeSpec(model, 1, L, lam0, point, sig, sig)
            dist = exhaustive_distribution(spec)
            if sum(dist.values()) != 1:
                issues.append(("path-sum-total", model.value, L))
            for key, p in dist.items():
                if key == ESCAPE:
                    continue
                parts, colors = key
                tau = SignedPermutation(colors) if colors else sig
                z = partition_function(LatticeSpec(model, 1, L, Partition(parts),
                                                   point, sig, tau))
                if z != p:
                    issues.append(("path-sum", model.value, L, key))
    return not issues, f"{len(runs)} sampler runs x {samples} samples, issues: {issues}"


ALL_CRITERIA = [
    criterion_1_ybe_uncolored,
    criterion_2_ybe_lemma,
    criterion_3_caduceus,
    criterion_4_fish,
    criterion_5_ybe_colored,
    criterion_6_reflection,
    criterion_7_functional,
    criterion_8_closed_form,
    criterion_9_recursions,
    criterion_10_demazure_lusztig,
    criterion_11_stochasticity,
    criterion_12_monte_carlo,
]


def run_suite(seed=DEFAULT_SEED, quick=False, out=print):
    """Run every criterion; returns the list of results.

    ``quick`` shrinks the point counts (for interactive use only; the
    acceptance counts are the defaults).
    """
    results = []
    for crit in ALL_CRITERIA:
        if quick:
            kwargs = {"samples": 10**4} if crit is criterion_12_monte_carlo else {"points": 3}
            res = crit(seed=seed, **kwargs)
        else:
            res = crit(seed=seed)
        results.append(res)
        out(res.line)
    return results
