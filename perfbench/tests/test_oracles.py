"""Tests of the benchmark's own checks: each accepts a right output and
rejects a deliberately wrong one.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))
sys.path.insert(0, str(HERE.parent))

import oracles  # noqa: E402
import workloads  # noqa: E402
from symplectic_ice import relations  # noqa: E402
from symplectic_ice.rationals import sample_point  # noqa: E402
from symplectic_ice.weights import Family, Model  # noqa: E402


def test_brute_force_matches_readme_partition_example():
    argv = ["partition", "--model", "reflecting", "--n", "1", "--L", "1",
            "--lambda", "0", "--z", "1/2", "--q", "2", "--json"]
    _, payload = workloads.run_cli(argv)
    brute = oracles.brute_partition_function(Model.UNCOLORED_REFLECTING, 1, 1, (0,),
                                             (Fraction(1, 2),), Fraction(2))
    assert Fraction(payload["partition_function"]) == brute


def test_brute_force_matches_colored_and_two_row_pair_specs():
    for model, n, L, parts, sig, tau in workloads.GlobalLaws.SMALL:
        point = sample_point(n, 11)
        argv = workloads.partition_argv(model, n, L, parts, point, sig, tau)
        value = workloads.cli_partition(argv)
        brute = oracles.brute_partition_function(model, n, L, parts, point.z, point.q, sig, tau)
        assert value == brute, (model, n, L, parts)


def test_partition_check_rejects_perturbed_value():
    z = oracles.brute_partition_function(Model.UNCOLORED_ABSORBING, 1, 2, (0, 0),
                                         (Fraction(3, 4),), Fraction(9, 10))
    assert oracles.check_partition_value(z, z, regime=True) == []
    assert oracles.check_partition_value(z + Fraction(1, 10**9), z, regime=False)
    assert oracles.check_partition_value(Fraction(11, 10), None, regime=True)


def _law():
    return {"a": Fraction(1, 2), "b": Fraction(3, 10), "c": Fraction(1, 5)}


def test_histogram_check_accepts_expected_counts():
    exact = _law()
    N = 100000
    hist = {k: int(p * N) for k, p in exact.items()}
    assert oracles.check_exact_law(exact) == []
    assert oracles.check_histogram(hist, exact) == []


def test_histogram_check_rejects_shifted_count():
    exact = _law()
    hist = {"a": 50000 + 1500, "b": 30000 - 1500, "c": 20000}
    assert any("sigma" in e or "chi-square" in e for e in oracles.check_histogram(hist, exact))


def test_histogram_check_rejects_impossible_outcome_and_bad_law():
    exact = _law()
    hist = {"a": 50000, "b": 30000, "c": 20000, "d": 1}
    assert any("probability 0" in e for e in oracles.check_histogram(hist, exact))
    assert oracles.check_exact_law({"a": Fraction(1, 2), "b": Fraction(1, 3)})
    assert oracles.check_exact_law({"a": Fraction(3, 2), "b": Fraction(-1, 2)})


def _trajectory_job(tmp_path, model="signed"):
    path = tmp_path / "traj.jsonl"
    argv = ["sample", "--model", model, "--n", "1", "--L", "4", "--z", "4/5", "--q", "9/10",
            "--samples", "200", "--seed", "3", "--trajectories", str(path), "--json"]
    if model in ("signed", "positive"):
        argv.append("--sigma=1")
    _, payload = workloads.run_cli(argv)
    return path, payload


def test_trajectory_check_accepts_cli_output(tmp_path):
    for model in ("reflecting", "absorbing", "signed", "positive"):
        path, payload = _trajectory_job(tmp_path, model)
        colored = model in ("signed", "positive")
        lines = path.read_text().splitlines()
        assert oracles.check_trajectories(lines, payload, 1, colored, model != "absorbing") == []


def test_trajectory_check_rejects_wrong_outcome(tmp_path):
    path, payload = _trajectory_job(tmp_path)
    lines = path.read_text().splitlines()
    records = [json.loads(line) for line in lines]
    k = next(i for i, r in enumerate(records) if not r["escaped"])
    records[k]["outcome"] = "lambda=(3);tau=(1)" if records[k]["outcome"] != "lambda=(3);tau=(1)" \
        else "lambda=(0);tau=(1)"
    bad = [json.dumps(r, sort_keys=True) for r in records]
    errors = oracles.check_trajectories(bad, payload, 1, True, True)
    assert any(f"record {k}" in e for e in errors)
    assert any("printed histogram" in e for e in errors)


def test_trajectory_check_rejects_missing_record(tmp_path):
    path, payload = _trajectory_job(tmp_path)
    lines = path.read_text().splitlines()
    assert any("indices" in e for e in oracles.check_trajectories(lines[:-1], payload, 1, True, True))


def test_relation_checks_reject_wrong_combos_and_wrong_scale(tmp_path):
    point = sample_point(2, 5)
    report = relations.verify_caduceus(point, "reflecting")
    assert oracles.check_relation_report(report, "caduceus-reflecting", 16) == []
    assert oracles.check_relation_report(report, "caduceus-reflecting", 64)
    li = workloads.make("local-identities", str(tmp_path))
    op = workloads.Op("caduceus-reflecting", None,
                      dict(shape="caduceus", point=point, cap="reflecting"))
    lhs, rhs, scale, letters, internal, q = li.sides(op)
    boundary = [(-1, -1, 0, 0), (0, 0, -1, -1), (-1, 0, 0, -1)]
    assert oracles.check_identity_at(lhs, rhs, scale, q, boundary, internal, op.kind) == []
    assert oracles.check_identity_at(lhs, rhs, scale + 1, q, boundary, internal, op.kind)


def test_colored_identity_brute_force_over_full_alphabet(tmp_path):
    point = sample_point(2, 9)
    op = workloads.Op("ybe-colored-signed-dg", None,
                      dict(shape="ybe", point=point, X=Family.DELTA, Y=Family.GAMMA,
                           colored="signed"))
    lhs, rhs, scale, letters, internal, q = workloads.make("local-identities", str(tmp_path)).sides(op)
    assert letters == (-1, 0, 1, 2) and internal == (-2, -1, 0, 1, 2)
    boundary = [(1, 2, 2, 1, 1, 2), (-1, 0, 0, -1, -1, 0), (2, 1, 1, 2, 1, 2)]
    assert oracles.check_identity_at(lhs, rhs, scale, q, boundary, internal, op.kind) == []
