"""Command-line front end: verification sweeps, partition functions,
sampling, rendering, and the full acceptance suite.

Exit codes: 0 = pass, 1 = an identity or statistical check failed (a
counterexample is printed), 2 = invalid flags or specification, 3 = an
internal error (any other exception, printed as one 'internal error:'
line).

``verify`` holds no relation or loop of its own: its ``--relation``
choices are the ids of ``acceptance.RELATIONS``, and it prints the report
of ``acceptance.verify_relation`` (point k checked at seed + k, over
``--jobs`` processes).  ``suite`` prints ``acceptance.run_suite``, where
criteria are timed and held to their budgets.

Every run starts by printing its effective configuration (as a comment
line, or under the "config" key in JSON mode), so any output can be
reproduced from the output itself.  Exact rationals are always printed as
'p/q' strings; statistics are printed as decimals with 6 significant
digits.

A flat key = value config file (lines 'name = value', '#' comments, names
matching the long flag names, 'name = true' for a switch) can be passed
with --config; explicit flags win over config values.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from fractions import Fraction
from functools import cache

import numpy as np

from . import acceptance
from .dynamics import (ESCAPE, POOLED, SamplerConfig, SamplerSoundnessError,
                       compare_empirical_to_exact, exact_outcome_probabilities,
                       group_rows, run_sampler, trajectory_from_rows)
from .lattice import (LatticeSpec, Partition, SignedPermutation, SpecError, bottom_row_outcome,
                      count_states, enumerate_states, partition_and_count)
from .rationals import DomainError, ParamPoint, SamplingError
from .render import render_state
from .weights import Model, UsageError

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
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"not a rational number: {s!r}") from None


def parse_rat_list(s: str) -> tuple:
    s = s.strip()
    if not s:
        return ()
    return tuple(parse_rat(tok) for tok in s.split(","))


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

#: Every relation id, in registry order (see ``acceptance.RELATIONS``).
RELATION_IDS = tuple(acceptance.RELATIONS)


def _require_positive(args, *names) -> None:
    """Counts such as --points and --samples must be at least 1."""
    for name in names:
        if getattr(args, name) < 1:
            raise UsageError(f"--{name} must be at least 1, got {getattr(args, name)}")


def _failure_json(point, where, lhs, rhs) -> dict:
    """One failure of a RelationReport: ``where`` is the boundary tuple of a
    local identity or the case string of a global law."""
    out = {"point": repr(point), "boundary": list(where) if isinstance(where, tuple) else [],
           "lhs": fmt_rat(lhs) if isinstance(lhs, Fraction) else str(lhs),
           "rhs": fmt_rat(rhs) if isinstance(rhs, Fraction) else str(rhs)}
    if isinstance(where, str):
        out["case"] = where
    return out


def cmd_verify(args) -> int:
    _require_positive(args, "points", "jobs")
    config = {"subcommand": "verify", "relation": args.relation, "points": args.points,
              "seed": args.seed, "paranoid": args.paranoid, "jobs": args.jobs}
    report = acceptance.verify_relation(args.relation, args.seed, args.points,
                                        paranoid=args.paranoid, jobs=args.jobs)
    payload = {
        "relation": report.relation,
        "points_tested": report.points_tested,
        "combos_tested": report.combos_tested,
        "passed": report.passed,
        "failures": [_failure_json(*failure) for failure in report.failures[:10]],
    }
    if args.json:
        print(json.dumps({"config": config, **payload}, indent=2, sort_keys=True))
    else:
        print(f"# config: {json.dumps(config)}")
        print(f"{report.relation}: {'PASS' if report.passed else 'FAIL'} "
              f"({report.points_tested} points, {report.combos_tested} combos)")
        for f in payload["failures"]:
            where = f"case={f['case']}" if "case" in f else f"boundary={f['boundary']}"
            print(f"  counterexample: {where} lhs={f['lhs']} rhs={f['rhs']} at {f['point']}")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# partition / sample / render
# ---------------------------------------------------------------------------

def _build_spec(args, lam=None) -> LatticeSpec:
    model = MODEL_NAMES[args.model]
    point = ParamPoint(parse_rat_list(args.z), parse_rat(args.q))
    if model.colored and not args.sigma:
        raise UsageError("--sigma is required for the signed and positive models")
    sigma = SignedPermutation(parse_int_list(args.sigma)) if args.sigma else None
    tau = SignedPermutation(parse_int_list(args.tau)) if getattr(args, "tau", None) else None
    if model.colored and tau is None:
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
        value, num_states = partition_and_count(spec)
    else:
        value, num_states = Fraction(0), 0
        for _, weight in enumerate_states(spec):
            value, num_states = value + weight, num_states + 1
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


def _trajectory_writer(fh, model):
    """Per-chunk ``run_sampler`` hook writing one JSON line per sample, keys
    sorted; samples alike within a chunk share all of the line but the index."""
    def write(first, labels, escaped):
        rows, L, m = labels.shape
        table = np.column_stack((labels.reshape(-1, m).T, escaped))
        groups, inverse, _ = group_rows(table)
        heads, tails = [], []
        for *flat, escape in table[groups].tolist():
            vert = [flat[r * L:(r + 1) * L] for r in range(rows)]
            key = ESCAPE if escape else bottom_row_outcome(model, vert[0])
            heads.append('{"escaped": ' + json.dumps(bool(escape)) + ', "index": ')
            tails.append(', "outcome": ' + json.dumps(outcome_str(key)) + ', "trajectory": '
                         + json.dumps(trajectory_from_rows(vert)) + "}\n")
        fh.writelines(heads[k] + str(index) + tails[k]
                      for index, k in enumerate(inverse.tolist(), first))
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
    if args.trajectories is not None:
        try:
            fh = open(args.trajectories, "w")
        except OSError as exc:
            raise UsageError(f"cannot write --trajectories: {exc}") from None
        with fh:
            summary = run_sampler(sampler_config, _trajectory_writer(fh, spec.model))
    else:
        summary = run_sampler(sampler_config)
    exact = exact_outcome_probabilities(spec)
    try:
        stats = compare_empirical_to_exact(summary, exact)
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
    k = args.state_index
    state = next(itertools.islice(enumerate_states(spec), k, None), None) if k >= 0 else None
    if state is None:
        total = count_states(spec)
        if not total:
            raise UsageError("no admissible states for this boundary")
        raise UsageError(f"--state-index {k} out of range (have {total} states)")
    config, _ = state
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
    """Flat 'name = value' lines -> CLI tokens (prepended, so flags win).

    A value becomes one '--name=value' token, so that a value starting
    with '-' (such as 'sigma = -2,1') stays a value.  A switch such as
    --json is set by 'json = true'; 'name = false' adds nothing."""
    tokens = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"bad config line (want 'name = value'): {line!r}")
            name, value = (part.strip() for part in line.split("=", 1))
            if value == "true":
                tokens.append(f"--{name}")
            elif value != "false":
                tokens.append(f"--{name}={value}")
    return tokens


def _spec_flags(p, fixed_bottom=True):
    """Spec flags; the bottom boundary (--lambda, --tau) only where it is fixed."""
    p.add_argument("--model", required=True, choices=sorted(MODEL_NAMES))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--sigma", default="", help="signed permutation images, e.g. 1,-2")
    if fixed_bottom:
        p.add_argument("--lambda", dest="lam", default="", metavar="PARTS",
                       help="comma-separated partition parts, e.g. 2,1 (empty allowed)")
        p.add_argument("--tau", default="", help="signed permutation images")
    p.add_argument("--z", required=True, help="spectral parameters, e.g. 1/2,1/3")
    p.add_argument("--q", required=True, help="deformation parameter, e.g. 2 or 1/2")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: it reads only constants, and parsing
    leaves it unchanged (``--config`` values go into argv, not into it).
    """
    # no abbreviations at the top level: main reads --config itself, so
    # --conf must be an unknown flag rather than an unread --config
    ap = argparse.ArgumentParser(prog="symplectic-ice",
                                 description="Exact verification and sampling for "
                                             "stochastic symplectic ice models",
                                 allow_abbrev=False)
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
    p.add_argument("--method", choices=["enumeration", "transfer"], default="transfer",
                   help="transfer (default): Z and the state count from one column "
                        "transfer; enumeration: walk every state once, summing the weights")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("sample", help="Monte Carlo sampling plus exact statistics")
    _spec_flags(p, fixed_bottom=False)
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
    at = next((k for k, token in enumerate(argv) if token.partition("=")[0] == "--config"),
              None)
    if at is not None:
        _, inline, path = argv[at].partition("=")
        if not inline:
            if at + 1 == len(argv):
                print("error: --config needs a path", file=sys.stderr)
                return 2
            path = argv.pop(at + 1)
        del argv[at]
        try:
            injected = _load_config_flags(path)
        except (OSError, UnicodeDecodeError, UsageError) as exc:
            print(f"error: --config {path}: {exc}", file=sys.stderr)
            return 2
        # config flags go right after the subcommand, the first token once
        # --config and its path are out, so that explicit flags override them
        argv = argv[:1] + injected + argv[1:]
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (SpecError, UsageError, DomainError, SamplingError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
