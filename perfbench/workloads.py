"""The four workloads: their inputs, their operations and their checks.

Every workload turns ``--seed`` into a fixed list of operations, a round.
A run repeats the same round, so each run attempts whole rounds of the
same operations.  The shape of a round (which relations, which lattice
sizes, which families, how many samples) is fixed; the seed draws the
parameter points and sampler seeds, so every seed asks for about the same
work.  The package receives only the generated inputs, through its public
functions and ``cli.main``.

After the first round the outputs are checked in full against
``oracles``; every later round must reproduce the first round's outputs
exactly, since every operation is a pure function of its inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

from symplectic_ice import cli, diagram, dynamics, functional, lattice, relations
from symplectic_ice.lattice import LatticeSpec, Partition, SignedPermutation
from symplectic_ice.rationals import ParamPoint, sample_point, sample_regime_point
from symplectic_ice.weights import Family, Model

import oracles

G, D = Family.GAMMA, Family.DELTA
R, A = Model.UNCOLORED_REFLECTING, Model.UNCOLORED_ABSORBING
S, P = Model.COLORED_SIGNED, Model.COLORED_POSITIVE
CLI_NAME = {R: "reflecting", A: "absorbing", S: "signed", P: "positive"}


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    info: dict = field(default_factory=dict)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _fmt(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _signed(images):
    return SignedPermutation(images) if images is not None else None


def _spec(model, n, L, parts, point, sigma=None, tau=None) -> LatticeSpec:
    return LatticeSpec(model, n, L, Partition(parts), point, _signed(sigma), _signed(tau))


def run_cli(argv) -> tuple:
    """``cli.main`` in process; returns (exit code, parsed JSON output)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code not in (0, 1):
        raise RuntimeError(f"symplectic-ice {' '.join(argv)} exited {code}")
    return code, json.loads(out.getvalue())


def regime_point(rng: random.Random, n: int) -> ParamPoint:
    """Stochastic-regime point with q in [0.8, 0.99], where fewer particles
    escape than near q = 0 (about 60-70% at n = 2, L = 4)."""
    q = Fraction(rng.randint(800, 990), 1000)
    lo = 1 / (q + 1)
    return ParamPoint(tuple(lo + (1 - lo) * Fraction(rng.randint(300, 800), 1000)
                            for _ in range(n)), q)


class Workload:
    """A workload builds its round from a seed, counts units of work,
    fingerprints outputs for the later rounds and checks the first one."""

    name = ""

    def __init__(self, tmpdir: str):
        self.tmpdir = tmpdir

    def cleanup(self):
        """Remove what the round's operations left behind."""


# ---------------------------------------------------------------------------
# local-identities
# ---------------------------------------------------------------------------

class LocalIdentities(Workload):
    """Every local relation through ``relations.verify_*`` at seeded points.

    One operation is one relation at one point; a round covers the 17
    relations at POINTS points each.  Unit of work: one boundary
    combination compared.
    """

    name = "local-identities"
    POINTS = 6
    STUBS = {"ybe": 6, "caduceus": 4, "fish": 2, "reflection": 4}
    BRUTE_BOUNDARIES = 3

    def build(self, seed: int) -> list:
        rng = _rng(self.name, seed)
        ops = []
        for _ in range(self.POINTS):
            p2 = sample_point(2, rng.randrange(2**32))
            p1 = sample_point(1, rng.randrange(2**32))
            while True:
                t1 = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
                t2 = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
                q = Fraction(rng.randint(2, 10**6), rng.randint(1, 10**6))
                if q != 1 and 1 - (q + 1) * t1 + q * t1 * t2 != 0:
                    break
            for X in (G, D):
                for Y in (G, D):
                    ops.append(self._op(f"ybe-{X.value[0]}{Y.value[0]}", "ybe", p2,
                                        lambda X=X, Y=Y, p=p2: relations.verify_ybe_uncolored(X, Y, p),
                                        X=X, Y=Y))
            ops.append(Op("ybe-lemma", lambda t1=t1, t2=t2, q=q: relations.verify_ybe_lemma(t1, t2, q),
                          dict(shape="ybe", t=(t1, t2, q))))
            for cap in ("reflecting", "absorbing"):
                ops.append(self._op(f"caduceus-{cap}", "caduceus", p2,
                                    lambda c=cap, p=p2: relations.verify_caduceus(p, c), cap=cap))
                ops.append(self._op(f"fish-{cap}", "fish", p1,
                                    lambda c=cap, p=p1: relations.verify_fish(p, c), cap=cap))
            for m in ("signed", "positive"):
                for X, Y in ((D, G), (G, G), (D, D)):
                    ops.append(self._op(f"ybe-colored-{m}-{X.value[0]}{Y.value[0]}", "ybe", p2,
                                        lambda m=m, X=X, Y=Y, p=p2: relations.verify_ybe_colored(m, X, Y, p),
                                        X=X, Y=Y, colored=m))
                ops.append(self._op(f"reflection-{m}", "reflection", p2,
                                    lambda m=m, p=p2: relations.verify_reflection(m, p), colored=m))
        return ops

    @staticmethod
    def _op(kind, shape, point, call, **info) -> Op:
        return Op(kind, call, dict(shape=shape, point=point, **info))

    @staticmethod
    def units(op, report) -> int:
        return report.combos_tested

    @staticmethod
    def fingerprint(op, report):
        return (report.relation, report.points_tested, report.combos_tested, len(report.failures))

    def sides(self, op):
        """(lhs, rhs, scale, boundary letters, internal letters, q) rebuilt
        from the relation's definition; colored sides are summed over the
        model's full alphabet, not the verifier's reduced one."""
        info = op.info
        if op.kind == "ybe-lemma":
            t1, t2, q = info["t"]
            fams = (Family.LEMMA_S, Family.LEMMA_T, Family.R_LEMMA)
            sides = [f(R, 1, G, G, t1, t2, families=fams)
                     for f in (diagram.ybe_left, diagram.ybe_right)]
            return (*sides, 1, (-1, 0), (-1, 0), q)
        pt = info["point"]
        q, zi, zj = pt.q, pt.z[0], pt.z[-1]
        if info["shape"] == "caduceus":
            model = R if info["cap"] == "reflecting" else A
            return (diagram.caduceus_lhs(model, zi, zj), diagram.caduceus_rhs(model),
                    oracles.caduceus_scalar(zi, zj, q), (-1, 0), (-1, 0), q)
        if info["shape"] == "fish":
            model = R if info["cap"] == "reflecting" else A
            return (diagram.fish_lhs(model, zj), diagram.fish_rhs(model),
                    oracles.fish_scalar(model, zj, q), (-1, 0), (-1, 0), q)
        if "colored" not in info:
            return (diagram.ybe_left(R, 1, info["X"], info["Y"], zi, zj),
                    diagram.ybe_right(R, 1, info["X"], info["Y"], zi, zj), 1, (-1, 0), (-1, 0), q)
        model = S if info["colored"] == "signed" else P
        if info["shape"] == "ybe":
            letters = (-1, 0, 1, 2) if model is S else (0, 1, 2, 3)
            n_big = max(abs(x) for x in letters)
            sides = [f(model, n_big, info["X"], info["Y"], zi, zj)
                     for f in (diagram.ybe_left, diagram.ybe_right)]
        else:
            letters = (-2, -1, 0, 1, 2) if model is S else (0, 1, 2)
            n_big = 2
            sides = [f(model, n_big, zi, zj) for f in (diagram.reflection_lhs, diagram.reflection_rhs)]
        return (*sides, 1, letters, oracles.full_alphabet(model, n_big), q)

    def check(self, ops, reports, seed) -> list:
        rng = _rng(self.name + ":check", seed)
        errors = []
        brute_done = set()
        for op, report in zip(ops, reports):
            lhs, rhs, scale, letters, internal, q = self.sides(op)
            combos = len(letters) ** self.STUBS[op.info["shape"]]
            errors += oracles.check_relation_report(report, op.kind, combos)
            if op.kind in brute_done:
                continue
            brute_done.add(op.kind)
            # a few boundaries with a nonzero left side, plus one at random
            picked, tries = [], 0
            while len(picked) < self.BRUTE_BOUNDARIES - 1 and tries < 20:
                tries += 1
                b = tuple(rng.choice(letters) for _ in lhs.boundary)
                if oracles.brute_diagram_value(lhs, b, q, internal) != 0:
                    picked.append(b)
            picked.append(tuple(rng.choice(letters) for _ in lhs.boundary))
            errors += oracles.check_identity_at(lhs, rhs, scale, q, picked, internal, op.kind)
        return errors


# ---------------------------------------------------------------------------
# global-laws
# ---------------------------------------------------------------------------

def partition_argv(model, n, L, parts, point, sigma=None, tau=None, method=None) -> list:
    argv = ["partition", "--model", CLI_NAME[model], "--n", str(n), "--L", str(L),
            "--lambda", ",".join(map(str, parts)),
            "--z", ",".join(_fmt(z) for z in point.z), "--q", _fmt(point.q), "--json"]
    if sigma is not None:
        argv += ["--sigma=" + ",".join(map(str, sigma)), "--tau=" + ",".join(map(str, tau))]
    if method:
        argv += ["--method", method]
    return argv


def cli_partition(argv) -> Fraction:
    _, payload = run_cli(argv)
    return Fraction(payload["partition_function"])


class GlobalLaws(Workload):
    """Functional equations and partition functions on a fixed grid.

    One operation is one check or one Z.  The grid covers the four
    families at n = 2 and a few n = 3 specs that set the tail; a round
    runs it at COPIES sets of points.  Z comes
    from ``symplectic-ice partition`` with its default method, paired
    with ``--method transfer`` on the same spec.  Unit of work: one
    operation completed.
    """

    name = "global-laws"
    COPIES = 2
    WEYL_WORDS = ((1,), (2,), (1, 2, 1, 2))
    B2 = ((1, 2), (1, -2), (-1, 2), (-1, -2), (2, 1), (2, -1), (-2, 1), (-2, -1))
    # (model, n, L, parts, sigma, tau) for Z at regime points, default + transfer
    Z_GRID = ((S, 2, 4, (2, 0), (1, 2), (2, 1)),
              (P, 2, 4, (1, 1), (1, 2), (1, 2)),
              (R, 2, 5, (3, 0), None, None),
              (A, 2, 5, (2, 1), None, None),
              (P, 3, 3, (0, 0, 0), (1, 2, 3), (1, 2, 3)),
              (S, 3, 3, (0, 0, 0), (1, 2, 3), (1, 2, 3)),
              (R, 3, 5, (2, 0, 0), None, None))
    # small specs, default method only, checked against the brute-force sum
    SMALL = ((R, 1, 2, (1,), None, None),
             (A, 1, 2, (0, 0), None, None),
             (S, 1, 2, (1,), (1,), (-1,)),
             (P, 1, 2, (0,), (1,), (1,)),
             (R, 2, 2, (0, 0), None, None))

    def build(self, seed: int) -> list:
        rng = _rng(self.name, seed)
        return [op for copy in range(self.COPIES) for op in self.grid(rng, copy)]

    def grid(self, rng, copy: int) -> list:
        """Every check and Z of the grid once, at fresh points."""
        pt = lambda n: sample_point(n, rng.randrange(2**32))
        ops = []
        p2 = pt(2)
        for model, parts in ((R, (2, 1)), (A, (2, 0))):
            spec = _spec(model, 2, 4, parts, p2)
            for word in self.WEYL_WORDS:
                ops.append(Op("weyl", lambda s=spec, w=word: functional.check_weyl_invariance(s, w)))
            ops.append(Op("interchange", lambda s=spec: functional.check_interchange(s)))
            ops.append(Op("permutation", lambda s=spec: functional.check_permutation_invariance(s, 1)))
        p2 = pt(2)
        for sig in self.B2:
            spec = _spec(S, 2, 4, (1, 0), p2, sig, tuple(-v for v in sig))
            ops.append(Op("closed-form", lambda s=spec: (functional.closed_form_opposite(s),
                                                         lattice.partition_function(s))))
        for sig in self.B2:
            spec = _spec(S, 2, 4, (2, 1), p2, sig, (1, 2))
            if sig[1] > sig[0]:
                ops.append(Op("recursion-si", lambda s=spec: functional.check_recursion_si(s, 1)))
            if sig[1] > 0:
                ops.append(Op("recursion-sn", lambda s=spec: functional.check_recursion_sn(s)))
        for tau in ((1, 2), (2, 1)):
            spec = _spec(P, 2, 4, (2, 1), p2, (1, 2), tau)
            ops.append(Op("recursion-si", lambda s=spec: functional.check_recursion_si(s, 1)))
        spec = _spec(S, 2, 4, (2, 1), p2, (1, 2), (1, 2))
        for i in (1, 2):
            ops.append(Op("dl-recursion", lambda s=spec, i=i: functional.check_dl_recursion(s, i)))
        p3 = pt(3)
        for word in ((1,), (2,), (3,), (1, 2), (2, 3)):
            ops.append(Op("weyl-n3", lambda s=_spec(R, 3, 4, (1, 0, 0), p3), w=word:
                          functional.check_weyl_invariance(s, w)))
        ops.append(Op("permutation-n3", lambda s=_spec(A, 3, 4, (1, 1), p3):
                      functional.check_permutation_invariance(s, 2)))
        for k, (model, n, L, parts, sig, tau) in enumerate(self.Z_GRID):
            point = sample_regime_point(n, rng.randrange(2**32))
            for method in (None, "transfer"):
                argv = partition_argv(model, n, L, parts, point, sig, tau, method)
                ops.append(Op("partition" + (f"-{method}" if method else ""),
                              lambda a=argv: cli_partition(a), dict(pair=(copy, k), regime=True)))
        for model, n, L, parts, sig, tau in self.SMALL:
            point = sample_regime_point(n, rng.randrange(2**32))
            argv = partition_argv(model, n, L, parts, point, sig, tau)
            ops.append(Op("partition-small", lambda a=argv: cli_partition(a),
                          dict(regime=True, brute=(model, n, L, parts, point.z, point.q, sig, tau))))
        return ops

    @staticmethod
    def units(op, result) -> int:
        return 1

    @staticmethod
    def fingerprint(op, result):
        return result

    def check(self, ops, results, seed) -> list:
        errors, pairs = [], {}
        for op, res in zip(ops, results):
            if op.kind == "closed-form":
                if res[0] != res[1]:
                    errors.append(f"closed form {res[0]} != Z {res[1]}")
            elif op.kind.startswith("partition"):
                brute = None
                if "brute" in op.info:
                    brute = oracles.brute_partition_function(*op.info["brute"])
                errors += oracles.check_partition_value(res, brute, op.info["regime"])
                if "pair" in op.info:
                    pairs.setdefault(op.info["pair"], set()).add(res)
            elif res is not True:
                errors.append(f"{op.kind} returned {res!r}")
        errors += [f"Z grid entry {k}: default and transfer disagree: {v}"
                   for k, v in pairs.items() if len(v) != 1]
        return errors


# ---------------------------------------------------------------------------
# monte-carlo
# ---------------------------------------------------------------------------

def sample_spec(model, n, L, point) -> LatticeSpec:
    parts = () if model is A else (0,) * n
    sig = tuple(range(1, n + 1)) if model.colored else None
    return _spec(model, n, L, parts, point, sig, sig)


class MonteCarlo(Workload):
    """``sample`` jobs without trajectories, called through ``dynamics``.

    One operation is one job: ``run_sampler``, then
    ``exact_outcome_probabilities``, then ``compare_empirical_to_exact``,
    on one spec with one sampler seed.  Unit of work: one sample drawn.
    """

    name = "monte-carlo"
    # (model, n, L, sampler seeds per round, samples per job).  The counts
    # put the median among the absorbing n = 2 jobs and the 90th
    # percentile among the signed n = 2 jobs, not on the edge between two
    # groups of different cost.
    SPECS = ((R, 1, 6, 9, 500), (A, 1, 5, 9, 500), (S, 1, 4, 9, 500), (P, 1, 6, 9, 500),
             (A, 2, 4, 28, 500), (R, 2, 5, 12, 500), (P, 2, 4, 12, 500), (S, 2, 4, 12, 500))

    def build(self, seed: int) -> list:
        rng = _rng(self.name, seed)
        ops = []
        for k, (model, n, L, seeds, num) in enumerate(self.SPECS):
            spec = sample_spec(model, n, L, regime_point(rng, n))
            for _ in range(seeds):
                config = dynamics.SamplerConfig(spec, rng.randrange(2**32), num)
                ops.append(Op(f"sample-{CLI_NAME[model]}-n{n}", lambda c=config: self.job(c),
                              dict(spec=k, config=config)))
        return ops

    @staticmethod
    def job(config):
        summary = dynamics.run_sampler(config)
        exact = dynamics.exact_outcome_probabilities(config.spec)
        stats = dynamics.compare_empirical_to_exact(summary, exact)
        return summary, exact, stats

    @staticmethod
    def units(op, result) -> int:
        return result[0].num_samples

    @staticmethod
    def fingerprint(op, result):
        summary, exact, stats = result
        return (tuple(sorted(summary.histogram.items(), key=repr)), summary.escape_count,
                tuple(sorted(exact.items(), key=repr)), stats.chi2_stat)

    def check(self, ops, results, seed) -> list:
        errors, pooled, laws = [], {}, {}
        for op, (summary, exact, stats) in zip(ops, results):
            k = op.info["spec"]
            if k not in laws:
                laws[k] = exact
                errors += oracles.check_exact_law(exact)
            elif exact != laws[k]:
                errors.append(f"spec {k}: exact law differs between jobs")
            if sum(summary.histogram.values()) != summary.num_samples:
                errors.append(f"spec {k}: histogram does not count every sample")
            hist = pooled.setdefault(k, {})
            for key, count in summary.histogram.items():
                hist[key] = hist.get(key, 0) + count
        rng = _rng(self.name + ":confirm", seed)
        for k, hist in pooled.items():
            alarm = oracles.check_histogram(hist, laws[k])
            if alarm:
                # A test at the 0.999 quantile fails by chance once in a
                # thousand; fail only if a ten times larger histogram
                # with fresh sampler seeds fails as well.
                spec = next(op.info["config"].spec for op in ops if op.info["spec"] == k)
                config = dynamics.SamplerConfig(spec, rng.randrange(2**32), 10 * sum(hist.values()))
                again = oracles.check_histogram(dynamics.run_sampler(config).histogram, laws[k])
                errors += [f"spec {k}: {e} (and on a ten times larger histogram: {again})"
                           for e in alarm if again]
        return errors


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

class Trajectories(Workload):
    """``symplectic-ice sample --trajectories`` jobs run through ``cli.main``.

    Specs with n = 1 and L <= 6 have a cheap exact law, so the time goes
    to one full configuration per sample and the JSON-lines export.  One
    operation is one job; unit of work: one sample delivered.
    """

    name = "trajectories"
    SPECS = tuple((m, 1, L) for m in (R, A, S, P) for L in (4, 5, 6))
    SEEDS = 9
    SAMPLES = 400

    def build(self, seed: int) -> list:
        rng = _rng(self.name, seed)
        ops = []
        for model, n, L in self.SPECS:
            point = regime_point(rng, n)
            for _ in range(self.SEEDS):
                path = os.path.join(self.tmpdir, f"traj-{os.getpid()}-{len(ops)}.jsonl")
                argv = ["sample", "--model", CLI_NAME[model], "--n", str(n), "--L", str(L),
                        "--z", ",".join(_fmt(z) for z in point.z), "--q", _fmt(point.q),
                        "--samples", str(self.SAMPLES), "--seed", str(rng.randrange(2**32)),
                        "--trajectories", path, "--json"]
                if model.colored:
                    argv.append("--sigma=" + ",".join(str(i) for i in range(1, n + 1)))
                ops.append(Op(f"trajectories-{CLI_NAME[model]}", lambda a=argv: run_cli(a),
                              dict(path=path, n=n, colored=model.colored, conserving=model is not A)))
        return ops

    @staticmethod
    def units(op, result) -> int:
        return result[1]["num_samples"]

    @staticmethod
    def fingerprint(op, result):
        with open(op.info["path"], "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        return result[0], json.dumps(result[1], sort_keys=True), digest

    def check(self, ops, results, seed) -> list:
        errors = []
        for op, (code, payload) in zip(ops, results):
            if code != (0 if payload["statistics"]["passed"] else 1):
                errors.append(f"{op.kind}: exit code {code} disagrees with printed statistics")
            with open(op.info["path"]) as fh:
                errors += oracles.check_trajectories(fh, payload, op.info["n"], op.info["colored"],
                                                     op.info["conserving"])
        return errors

    def cleanup(self):
        for name in os.listdir(self.tmpdir):
            if name.startswith(f"traj-{os.getpid()}-"):
                os.remove(os.path.join(self.tmpdir, name))


def make(name: str, tmpdir: str) -> Workload:
    return {w.name: w for w in (LocalIdentities, GlobalLaws, MonteCarlo, Trajectories)}[name](tmpdir)
