"""The full acceptance battery: one callable per criterion.

Each criterion function returns a CriterionResult; ``run_suite`` executes
them in order and reports one line per criterion.  The pytest suite and
the command-line ``suite`` subcommand both drive exactly this code, so
"the tests pass" and "the suite passes" cannot drift apart.

All checks are exact except the Monte Carlo criterion, whose tolerances
(5 standard errors per outcome, aggregate chi-square below the 0.999
quantile) are fixed here and nowhere else.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction

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
                      stochastic_row_check, vertex_weight)

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


def _points(count, seed, n=2):
    return [sample_point(n, seed + k) for k in range(count)]


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
# criteria
# --------------------------------------------------------------------------

def criterion_1_ybe_uncolored(seed=DEFAULT_SEED, points=20) -> CriterionResult:
    t0 = time.time()
    failures = 0
    combos = 0
    for pt in _points(points, seed):
        for X in (GAMMA, DELTA):
            for Y in (GAMMA, DELTA):
                rep = rel.verify_ybe_uncolored(X, Y, pt)
                failures += len(rep.failures)
                combos += rep.combos_tested
    dt = time.time() - t0
    ok = failures == 0 and dt < 1.0
    return CriterionResult(1, "uncolored crossing identities",
                           ok, f"{combos} boundary combos, {failures} failures", dt, 1.0)


def criterion_2_ybe_lemma(seed=DEFAULT_SEED, points=20) -> CriterionResult:
    t0 = time.time()
    rng = random.Random(seed)
    failures = 0
    tried = 0
    while tried < points:
        t1 = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        t2 = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        q = Fraction(rng.randint(2, 10**6), rng.randint(1, 10**6))
        if q == 1 or 1 - (q + 1) * t1 + q * t1 * t2 == 0:
            continue
        failures += len(rel.verify_ybe_lemma(t1, t2, q).failures)
        tried += 1
    # the specialization that realises the fish crossing
    pt = sample_point(1, seed)
    z, q = pt.z[0], pt.q
    failures += len(rel.verify_ybe_lemma(1 / (q * z), zprime(z, q) / q, q).failures)
    dt = time.time() - t0
    return CriterionResult(2, "free-parameter crossing identity",
                           failures == 0, f"{tried}+1 parameter triples, {failures} failures", dt)


def criterion_3_caduceus(seed=DEFAULT_SEED, points=20) -> CriterionResult:
    t0 = time.time()
    failures = 0
    combos = 0
    for pt in _points(points, seed):
        for cap in ("reflecting", "absorbing"):
            rep = rel.verify_caduceus(pt, cap)
            failures += len(rep.failures)
            combos += rep.combos_tested
    spot = rel.dg.caduceus_scalar(Fraction(1, 2), Fraction(1, 3), Fraction(2)) == 1
    dt = time.time() - t0
    return CriterionResult(3, "braid-vs-caps proportionality",
                           failures == 0 and spot,
                           f"{combos} combos, {failures} failures, unit-scalar spot {'ok' if spot else 'BAD'}",
                           dt)


def criterion_4_fish(seed=DEFAULT_SEED, points=20) -> CriterionResult:
    t0 = time.time()
    failures = 0
    combos = 0
    for pt in _points(points, seed, n=1):
        for cap in ("reflecting", "absorbing"):
            rep = rel.verify_fish(pt, cap)
            failures += len(rep.failures)
            combos += rep.combos_tested
    dt = time.time() - t0
    return CriterionResult(4, "crossing-cap collapse identity",
                           failures == 0, f"{combos} combos, {failures} failures", dt)


def criterion_5_ybe_colored(seed=DEFAULT_SEED, points=5) -> CriterionResult:
    t0 = time.time()
    failures = 0
    combos = 0
    kinds = [(DELTA, GAMMA), (GAMMA, GAMMA), (DELTA, DELTA)]
    for pt in _points(points, seed):
        for model in ("signed", "positive"):
            for X, Y in kinds:
                rep = rel.verify_ybe_colored(model, X, Y, pt)
                failures += len(rep.failures)
                combos += rep.combos_tested
    dt = time.time() - t0
    return CriterionResult(5, "colored crossing identities",
                           failures == 0, f"{combos} combos (4^6 per sweep), {failures} failures", dt)


def criterion_6_reflection(seed=DEFAULT_SEED, points=10) -> CriterionResult:
    t0 = time.time()
    failures = 0
    combos = 0
    for pt in _points(points, seed):
        for model in ("signed", "positive"):
            rep = rel.verify_reflection(model, pt)
            failures += len(rep.failures)
            combos += rep.combos_tested
    dt = time.time() - t0
    return CriterionResult(6, "cap braid (reflection) identities",
                           failures == 0, f"{combos} combos, {failures} failures", dt)


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


def criterion_7_functional(seed=DEFAULT_SEED, points=10) -> CriterionResult:
    t0 = time.time()
    bad = []
    checked = 0
    for model in (Model.UNCOLORED_REFLECTING, Model.UNCOLORED_ABSORBING):
        # the figure instance, all generators, every point
        for k in range(points):
            pt = sample_point(2, seed + k)
            spec = LatticeSpec(model, 2, 4, Partition((2, 1)), pt)
            for gen in (1, 2):
                if not fn.check_weyl_invariance(spec, (gen,)):
                    bad.append((model.value, 2, 4, (2, 1), gen, pt))
                checked += 1
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
    dt = time.time() - t0
    ok = not bad and dt < 30.0
    return CriterionResult(7, "normalized Weyl invariance + transfer agreement",
                           ok, f"{checked} invariance checks, {len(bad)} failures", dt, 30.0)


def criterion_8_closed_form(seed=DEFAULT_SEED, points=10) -> CriterionResult:
    t0 = time.time()
    bad = 0
    checked = 0
    for n in (1, 2):
        sigmas = list(all_signed_permutations(n))
        for L in range(n, 6):
            for lam in _partitions(n, L - n):
                for sig in sigmas:
                    tau = SignedPermutation([-v for v in sig.images])
                    npoints = points if (n, L) == (2, 4) else 3
                    for k in range(npoints):
                        pt = sample_point(n, seed + 7 * k)
                        spec = LatticeSpec(Model.COLORED_SIGNED, n, L,
                                           Partition(lam), pt, sig, tau)
                        checked += 1
                        if fn.closed_form_opposite(spec) != partition_function(spec):
                            bad += 1
    dt = time.time() - t0
    return CriterionResult(8, "opposite-boundary closed form",
                           bad == 0, f"{checked} (n,L,lambda,sigma,point) cases, {bad} mismatches", dt)


def criterion_9_recursions(seed=DEFAULT_SEED, points=10) -> CriterionResult:
    t0 = time.time()
    bad = 0
    checked = 0
    lam = Partition((2, 1))
    tau = SignedPermutation((1, 2))
    for k in range(points):
        pt = sample_point(2, seed + 13 * k)
        for sig in all_signed_permutations(2):
            spec = LatticeSpec(Model.COLORED_SIGNED, 2, 4, lam, pt, sig, tau)
            if sig(2) > sig(1):
                checked += 1
                bad += 0 if fn.check_recursion_si(spec, 1) else 1
            if sig(2) > 0:
                checked += 1
                bad += 0 if fn.check_recursion_sn(spec) else 1
        for sig in all_plain_permutations(2):
            if sig(2) > sig(1):
                spec = LatticeSpec(Model.COLORED_POSITIVE, 2, 4, lam, pt, sig,
                                   SignedPermutation((2, 1)))
                checked += 1
                bad += 0 if fn.check_recursion_si(spec, 1) else 1
    dt = time.time() - t0
    return CriterionResult(9, "colored recursions (s_i, s_n, positive s_i)",
                           bad == 0, f"{checked} hypothesis-satisfying cases, {bad} failures", dt)


def criterion_10_demazure_lusztig(seed=DEFAULT_SEED, points=20) -> CriterionResult:
    t0 = time.time()
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
    lam = Partition((2, 1))
    tau = SignedPermutation((2, 1))
    for k in range(points):
        pt = sample_point(2, seed + 17 * k)
        if not fn.u_coefficient_identities(pt):
            bad.append(("u-coefficients", pt))
        sig = SignedPermutation((1, 2))
        spec = LatticeSpec(Model.COLORED_SIGNED, 2, 4, lam, pt, sig, tau)
        if not fn.check_dl_recursion(spec, 1):
            bad.append(("ztilde-s1", pt))
        if not fn.check_dl_recursion(spec, 2):
            bad.append(("ztilde-s2", pt))
        sig2 = SignedPermutation((-2, 1))
        spec2 = LatticeSpec(Model.COLORED_SIGNED, 2, 4, lam, pt, sig2, tau)
        if not fn.check_dl_recursion(spec2, 1):
            bad.append(("ztilde-s1-mixed", pt))
    dt = time.time() - t0
    return CriterionResult(10, "divided-difference operator correspondence",
                           not bad, f"{len(bad)} failures", dt)


def criterion_11_stochasticity(seed=DEFAULT_SEED, points=100) -> CriterionResult:
    t0 = time.time()
    bad = []
    n = 2
    pt = sample_point(n, seed)
    q = pt.q
    # exact unit row sums for every stochastic table of every family
    for model in Model:
        letters = alphabet(model, n)
        for fam in STOCHASTIC_INPUT_SLOTS:
            if fam is Family.CAP or fam is Family.NEW_CAP:
                if fam is Family.NEW_CAP and model.colored:
                    continue
                params_list = [()]
                inputs_list = [(a,) for a in letters]
            elif fam in (Family.GAMMA, Family.DELTA):
                params_list = [(pt.z[0],)]
                inputs_list = [(a, b) for a in letters for b in letters]
            else:
                params_list = [(pt.z[0], pt.z[1])]
                inputs_list = [(a, b) for a in letters for b in letters]
            for params in params_list:
                for inputs in inputs_list:
                    s = stochastic_row_check(model, fam, inputs, params, q, n)
                    if s != 1:
                        bad.append((model.value, fam.value, inputs, s))
    # weights within [0, 1] at regime points
    for k in range(points):
        rp = sample_regime_point(n, seed + k)
        for model in Model:
            letters = alphabet(model, n)
            for fam in (Family.GAMMA, Family.DELTA):
                for edges in itertools.product(letters, repeat=4):
                    w = vertex_weight(model, fam, edges, (rp.z[0],), rp.q)
                    if not 0 <= w <= 1:
                        bad.append(("range", model.value, fam.value, edges, w))
    dt = time.time() - t0
    return CriterionResult(11, "stochasticity and regime positivity",
                           not bad, f"{len(bad)} violations", dt)


def criterion_12_monte_carlo(seed=DEFAULT_SEED, samples=10**5) -> CriterionResult:
    t0 = time.time()
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
    dt = time.time() - t0
    ok = not issues and dt < 60.0
    return CriterionResult(12, "Monte Carlo frequencies vs exact law",
                           ok, f"{len(runs)} sampler runs x {samples} samples, issues: {issues}",
                           dt, 60.0)


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
