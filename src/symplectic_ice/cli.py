"""Command-line front end: verification sweeps, partition functions,
sampling, rendering, and the full acceptance suite.

Exit codes: 0 = pass, 1 = an identity or statistical check failed (a
counterexample is printed), 2 = invalid flags or specification.

Every run starts by printing its effective configuration (as a comment
line, or under the "config" key in JSON mode), so any output can be
reproduced from the output itself.  Exact rationals are always printed as
'p/q' strings; statistics are printed as decimals with 6 significant
digits.

A flat key = value config file (lines 'name = value', '#' comments, names
matching the long flag names) can be passed with --config; explicit flags
win over config values.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from . import acceptance
from . import functional as fn
from . import relations as rel
from .dynamics import (ESCAPE, POOLED, SamplerConfig, SamplerSoundnessError,
                       compare_empirical_to_exact, exact_outcome_probabilities,
                       run_sampler, trajectory_from_configuration)
from .lattice import (LatticeSpec, Partition, SignedPermutation, SpecError,
                      all_signed_permutations, enumerate_states,
                      partition_function)
from .rationals import DomainError, ParamPoint, SamplingError, sample_point
from .render import render_state
from .weights import Family, Model, UsageError

MODEL_NAMES = {
    "reflecting": Model.UNCOLORED_REFLECTING,
    "absorbing": Model.UNCOLORED_ABSORBING,
    "signed": Model.COLORED_SIGNED,
    "positive": Model.COLORED_POSITIVE,
}


def fmt_rat(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def fmt_stat(x: float) -> str:
    return f"{x:.6g}"


def parse_rat(s: str) -> Fraction:
    return Fraction(s)


def parse_rat_list(s: str) -> tuple:
    s = s.strip()
    if not s:
        return ()
    return tuple(Fraction(tok) for tok in s.split(","))


def parse_int_list(s: str) -> tuple:
    s = s.strip()
    if not s:
        return ()
    return tuple(int(tok) for tok in s.split(","))


def outcome_str(key) -> str:
    if key == ESCAPE or key == POOLED:
        return str(key)
    parts, colors = key
    lam = "lambda=(" + ",".join(str(p) for p in parts) + ")"
    if colors is None:
        return lam
    return lam + ";tau=(" + ",".join(str(c) for c in colors) + ")"


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _functional_report(name, point, ok, witness) -> rel.RelationReport:
    rep = rel.RelationReport(name)
    rep.points_tested = 1
    rep.combos_tested = 1
    if not ok:
        rep.failures.append((point, witness, "lhs", "rhs"))
    return rep


def _verify_one(relation: str, seed: int, k: int, paranoid: bool) -> rel.RelationReport:
    """One point of one relation sweep (top level so pools can pickle it)."""
    G, D = Family.GAMMA, Family.DELTA
    pairs = {"gg": (G, G), "gd": (G, D), "dg": (D, G), "dd": (D, D)}
    if relation.startswith("ybe-") and relation[4:] in pairs:
        return rel.verify_ybe_uncolored(*pairs[relation[4:]], sample_point(2, seed + k))
    if relation == "ybe-lemma":
        import random
        rng = random.Random(seed + k)
        while True:
            t1 = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
            t2 = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
            q = Fraction(rng.randint(2, 10**6), rng.randint(1, 10**6))
            if q != 1 and 1 - (q + 1) * t1 + q * t1 * t2 != 0:
                return rel.verify_ybe_lemma(t1, t2, q)
    if relation.startswith("caduceus-"):
        return rel.verify_caduceus(sample_point(2, seed + k), relation[len("caduceus-"):])
    if relation.startswith("fish-"):
        return rel.verify_fish(sample_point(1, seed + k), relation[len("fish-"):])
    if relation.startswith("ybe-colored-"):
        _, _, mname, pair = relation.split("-")
        return rel.verify_ybe_colored(mname, *pairs[pair], sample_point(2, seed + k),
                                      paranoid=paranoid)
    if relation.startswith("reflection-"):
        return rel.verify_reflection(relation[len("reflection-"):],
                                     sample_point(2, seed + k), paranoid=paranoid)

    # functional checks at one random point each
    pt2 = sample_point(2, seed + k)
    if relation.startswith("weyl-"):
        model = MODEL_NAMES[relation[len("weyl-"):]]
        spec = LatticeSpec(model, 2, 4, Partition((2, 1)) if
                           model is Model.UNCOLORED_REFLECTING else Partition((2, 0)), pt2)
        ok = all(fn.check_weyl_invariance(spec, (g,)) for g in (1, 2))
        return _functional_report(relation, pt2, ok, "generator sweep")
    if relation.startswith("interchange-"):
        model = MODEL_NAMES[relation[len("interchange-"):]]
        lam = Partition((2, 1)) if model is Model.UNCOLORED_REFLECTING else Partition((2, 0))
        ok = fn.check_interchange(LatticeSpec(model, 2, 4, lam, pt2))
        return _functional_report(relation, pt2, ok, "interchange")
    if relation == "closed-form":
        ok = True
        for sig in all_signed_permutations(2):
            tau = SignedPermutation([-v for v in sig.images])
            spec = LatticeSpec(Model.COLORED_SIGNED, 2, 4, Partition((1, 0)), pt2, sig, tau)
            ok &= fn.closed_form_opposite(spec) == partition_function(spec)
        return _functional_report(relation, pt2, ok, "all sigma with opposite tau")
    if relation in ("recursion-si-signed", "recursion-sn-signed", "recursion-si-positive"):
        ok = True
        lam = Partition((2, 1))
        if relation == "recursion-si-positive":
            sig = SignedPermutation((1, 2))
            spec = LatticeSpec(Model.COLORED_POSITIVE, 2, 4, lam, pt2, sig,
                               SignedPermutation((1, 2)))
            ok = fn.check_recursion_si(spec, 1)
        else:
            for sig in all_signed_permutations(2):
                spec = LatticeSpec(Model.COLORED_SIGNED, 2, 4, lam, pt2, sig,
                                   SignedPermutation((1, 2)))
                if relation.endswith("si-signed") and sig(2) > sig(1):
                    ok &= fn.check_recursion_si(spec, 1)
                if relation.endswith("sn-signed") and sig(2) > 0:
                    ok &= fn.check_recursion_sn(spec)
        return _functional_report(relation, pt2, ok, "hypothesis-satisfying sigma")
    if relation == "dl-recursion":
        sig = SignedPermutation((1, 2))
        spec = LatticeSpec(Model.COLORED_SIGNED, 2, 4, Partition((2, 1)), pt2, sig,
                           SignedPermutation((1, 2)))
        ok = fn.check_dl_recursion(spec, 1) and fn.check_dl_recursion(spec, 2) \
            and fn.u_coefficient_identities(pt2)
        return _functional_report(relation, pt2, ok, "ztilde recursion")
    raise UsageError(f"unknown relation {relation!r}")


RELATION_IDS = (
    ["ybe-gg", "ybe-gd", "ybe-dg", "ybe-dd", "ybe-lemma",
     "caduceus-reflecting", "caduceus-absorbing",
     "fish-reflecting", "fish-absorbing"]
    + [f"ybe-colored-{m}-{p}" for m in ("signed", "positive") for p in ("dg", "gg", "dd")]
    + ["reflection-signed", "reflection-positive",
       "weyl-reflecting", "weyl-absorbing",
       "interchange-reflecting", "interchange-absorbing",
       "closed-form", "recursion-si-signed", "recursion-sn-signed",
       "recursion-si-positive", "dl-recursion"]
)


def _require_positive(args, *names) -> None:
    """Counts such as --points and --samples must be at least 1."""
    for name in names:
        if getattr(args, name) < 1:
            raise UsageError(f"--{name} must be at least 1, got {getattr(args, name)}")


def cmd_verify(args) -> int:
    _require_positive(args, "points", "jobs")
    config = {"subcommand": "verify", "relation": args.relation, "points": args.points,
              "seed": args.seed, "paranoid": args.paranoid, "jobs": args.jobs}
    report = None
    ks = list(range(args.points))
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            parts = list(pool.map(_verify_one, [args.relation] * len(ks),
                                  [args.seed] * len(ks), ks,
                                  [args.paranoid] * len(ks)))
    else:
        parts = [_verify_one(args.relation, args.seed, k, args.paranoid) for k in ks]
    for part in parts:
        report = part if report is None else report.merge(part)
    payload = {
        "relation": report.relation,
        "points_tested": report.points_tested,
        "combos_tested": report.combos_tested,
        "passed": report.passed,
        "failures": [
            {"point": repr(point), "boundary": list(boundary) if isinstance(boundary, tuple) else [],
             "lhs": fmt_rat(lhs) if isinstance(lhs, Fraction) else str(lhs),
             "rhs": fmt_rat(rhs) if isinstance(rhs, Fraction) else str(rhs)}
            for point, boundary, lhs, rhs in report.failures[:10]
        ],
    }
    if args.json:
        print(json.dumps({"config": config, **payload}, indent=2, sort_keys=True))
    else:
        print(f"# config: {json.dumps(config)}")
        print(f"{report.relation}: {'PASS' if report.passed else 'FAIL'} "
              f"({report.points_tested} points, {report.combos_tested} combos)")
        for f in payload["failures"]:
            print(f"  counterexample: boundary={f['boundary']} lhs={f['lhs']} "
                  f"rhs={f['rhs']} at {f['point']}")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# partition / sample / render
# ---------------------------------------------------------------------------

def _build_spec(args, lam=None) -> LatticeSpec:
    model = MODEL_NAMES[args.model]
    point = ParamPoint(parse_rat_list(args.z), parse_rat(args.q))
    sigma = SignedPermutation(parse_int_list(args.sigma)) if args.sigma else None
    tau = SignedPermutation(parse_int_list(args.tau)) if getattr(args, "tau", None) else None
    if model.colored and tau is None and sigma is not None:
        tau = SignedPermutation.identity(point.n)
    if lam is None:
        lam = Partition(parse_int_list(args.lam))
    return LatticeSpec(model, args.n, args.L, lam, point, sigma, tau)


def cmd_partition(args) -> int:
    spec = _build_spec(args)
    config = {"subcommand": "partition", "model": args.model, "n": args.n, "L": args.L,
              "lambda": list(spec.lam.parts), "z": [fmt_rat(z) for z in spec.point.z],
              "q": fmt_rat(spec.point.q), "method": args.method,
              "sigma": list(spec.sigma.images) if spec.sigma else None,
              "tau": list(spec.tau.images) if spec.tau else None}
    if args.method == "transfer":
        value = partition_function(spec)
        num_states = None
    else:
        states = list(enumerate_states(spec))
        value = sum((w for _, w in states), Fraction(0))
        num_states = len(states)
    payload = {
        "model": spec.model.value, "n": spec.n, "L": spec.L,
        "lambda": list(spec.lam.parts),
        "sigma": list(spec.sigma.images) if spec.sigma else None,
        "tau": list(spec.tau.images) if spec.tau else None,
        "z": [fmt_rat(z) for z in spec.point.z], "q": fmt_rat(spec.point.q),
        "partition_function": fmt_rat(value),
        "num_states": num_states,
        "method": args.method,
    }
    if args.json:
        print(json.dumps({"config": config, **payload}, indent=2, sort_keys=True))
    else:
        print(f"# config: {json.dumps(config)}")
        print(fmt_rat(value))
    return 0


def _trajectory_writer(fh):
    """Per-sample hook writing JSON lines: one record per sample, stable key order."""
    def write(index, out):
        record = {
            "escaped": out.escaped,
            "index": index,
            "outcome": outcome_str(out.key),
            "trajectory": [[[c, l] for c, l in step]
                           for step in trajectory_from_configuration(out.config)],
        }
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    return write


def cmd_sample(args) -> int:
    _require_positive(args, "samples")
    spec = _build_spec(args, lam=Partition((0,) * (args.n if args.model != "absorbing" else 0)))
    config = {"subcommand": "sample", "model": args.model, "n": args.n, "L": args.L,
              "z": [fmt_rat(z) for z in spec.point.z], "q": fmt_rat(spec.point.q),
              "sigma": list(spec.sigma.images) if spec.sigma else None,
              "samples": args.samples, "seed": args.seed,
              "trajectories": args.trajectories}
    sampler_config = SamplerConfig(spec, args.seed, args.samples)
    if args.trajectories:
        with open(args.trajectories, "w") as fh:
            summary = run_sampler(sampler_config, _trajectory_writer(fh))
    else:
        summary = run_sampler(sampler_config)
    exact = exact_outcome_probabilities(spec)
    try:
        stats = compare_empirical_to_exact(summary, exact)
        sound = True
    except SamplerSoundnessError as exc:
        print(f"SOUNDNESS FAILURE: {exc}", file=sys.stderr)
        return 1
    passed = stats.within(5.0)
    payload = {
        "model": spec.model.value, "n": spec.n, "L": spec.L,
        "sigma": list(spec.sigma.images) if spec.sigma else None,
        "z": [fmt_rat(z) for z in spec.point.z], "q": fmt_rat(spec.point.q),
        "seed": args.seed, "num_samples": summary.num_samples,
        "histogram": {outcome_str(k): v for k, v in sorted(summary.histogram.items(), key=repr)},
        "escape_count": summary.escape_count,
        "statistics": {
            "rows": [{"outcome": outcome_str(r.key), "count": r.count,
                      "probability": fmt_rat(r.probability),
                      "z_score": fmt_stat(r.z_score)} for r in stats.rows],
            "chi2_stat": fmt_stat(stats.chi2_stat),
            "dof": stats.dof,
            "chi2_quantile": fmt_stat(stats.chi2_quantile),
            "max_z": fmt_stat(stats.max_z),
            "passed": passed,
        },
    }
    if args.json:
        print(json.dumps({"config": config, **payload}, indent=2, sort_keys=True))
    else:
        print(f"# config: {json.dumps(config)}")
        for row in payload["statistics"]["rows"]:
            print(f"  {row['outcome']:<40} count={row['count']:<8} "
                  f"p={row['probability']:<22} z={row['z_score']}")
        print(f"escapes: {summary.escape_count}  chi2: {payload['statistics']['chi2_stat']} "
              f"(dof {stats.dof}, 0.999 quantile {payload['statistics']['chi2_quantile']})  "
              f"max z: {payload['statistics']['max_z']}  -> {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


def cmd_render(args) -> int:
    spec = _build_spec(args)
    states = list(enumerate_states(spec))
    if not states:
        print("no admissible states for this boundary", file=sys.stderr)
        return 2
    if not 0 <= args.state_index < len(states):
        print(f"state index out of range (have {len(states)} states)", file=sys.stderr)
        return 2
    config, _ = states[args.state_index]
    sys.stdout.write(render_state(config, args.format))
    return 0


def cmd_suite(args) -> int:
    print(f"# config: {json.dumps({'subcommand': 'suite', 'seed': args.seed, 'quick': args.quick})}")
    results = acceptance.run_suite(seed=args.seed, quick=args.quick)
    ok = all(r.passed for r in results)
    print(f"suite: {'PASS' if ok else 'FAIL'} ({sum(r.passed for r in results)}/{len(results)} criteria)")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _load_config_flags(path: str) -> list:
    """Flat 'name = value' lines -> CLI tokens (prepended, so flags win)."""
    tokens = []
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"bad config line (want 'name = value'): {line!r}")
            name, value = (part.strip() for part in line.split("=", 1))
            tokens += [f"--{name}", value]
    return tokens


def _spec_flags(p, need_lambda=True):
    p.add_argument("--model", required=True, choices=sorted(MODEL_NAMES))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    if need_lambda:
        p.add_argument("--lambda", dest="lam", default="", metavar="PARTS",
                       help="comma-separated partition parts, e.g. 2,1 (empty allowed)")
    p.add_argument("--sigma", default="", help="signed permutation images, e.g. 1,-2")
    p.add_argument("--tau", default="", help="signed permutation images")
    p.add_argument("--z", required=True, help="spectral parameters, e.g. 1/2,1/3")
    p.add_argument("--q", required=True, help="deformation parameter, e.g. 2 or 1/2")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="symplectic-ice",
                                 description="Exact verification and sampling for "
                                             "stochastic symplectic ice models")
    ap.add_argument("--config", help="flat key = value config file (flags win)")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("verify", help="verify a local or global identity at random points")
    p.add_argument("--relation", required=True, choices=RELATION_IDS)
    p.add_argument("--points", type=int, default=20)
    p.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED)
    p.add_argument("--paranoid", action="store_true",
                   help="widen the color-reduction alphabet by one label")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("partition", help="exact partition function of one spec")
    _spec_flags(p)
    p.add_argument("--method", choices=["enumeration", "transfer"], default="enumeration")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("sample", help="Monte Carlo sampling plus exact statistics")
    _spec_flags(p, need_lambda=False)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED)
    p.add_argument("--trajectories", metavar="PATH",
                   help="write per-sample trajectories as JSON lines")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("render", help="draw one admissible state")
    _spec_flags(p)
    p.add_argument("--format", choices=["ascii", "svg"], default="ascii")
    p.add_argument("--state-index", type=int, default=0)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("suite", help="run the full acceptance battery")
    p.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED)
    p.add_argument("--quick", action="store_true",
                   help="reduced point counts (not the acceptance configuration)")
    p.set_defaults(func=cmd_suite)
    return ap


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--config" in argv:
        at = argv.index("--config")
        if at + 1 == len(argv):
            print("error: --config needs a path", file=sys.stderr)
            return 2
        path = argv[at + 1]
        head, tail = argv[:at], argv[at + 2:]
        try:
            injected = _load_config_flags(path)
        except (OSError, UsageError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        # config flags go right after the subcommand; explicit flags override
        argv = head[:1] + injected + head[1:] + tail
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (SpecError, UsageError, DomainError, SamplingError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
