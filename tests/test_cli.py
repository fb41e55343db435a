import contextlib
import hashlib
import io
import json
from fractions import Fraction as F
from importlib import resources

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symplectic_ice import acceptance, cli
from symplectic_ice import diagram as dg
from symplectic_ice import relations as rel
from symplectic_ice import dynamics, weights
from symplectic_ice import functional as fn
from symplectic_ice.lattice import (LatticeSpec, Partition, SignedPermutation,
                                    all_signed_permutations, enumerate_states,
                                    partition_function)
from symplectic_ice.rationals import ParamPoint
from symplectic_ice.render import render_state
from symplectic_ice.weights import Family, Model

from scalar_sampler import ScalarSampler, scalar_run


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def load_schema(name):
    path = resources.files("symplectic_ice") / "schemas" / name
    return json.loads(path.read_text())


def test_partition_example(capsys):
    code, out, _ = run(capsys, "partition", "--model", "reflecting", "--n", "1",
                       "--L", "1", "--lambda", "0", "--z", "1/2", "--q", "2")
    assert code == 0
    assert out.strip().splitlines()[-1] == "1/2"


def test_partition_json_schema(capsys):
    code, out, _ = run(capsys, "partition", "--model", "signed", "--n", "2",
                       "--L", "4", "--lambda", "1,0", "--sigma=-1,-2",
                       "--tau", "1,2", "--z", "1/2,1/3", "--q", "5", "--json")
    assert code == 0
    payload = json.loads(out)
    config = payload.pop("config")
    assert config["subcommand"] == "partition"
    jsonschema.validate(payload, load_schema("partition_result.schema.json"))
    assert payload["num_states"] == 1


def test_partition_transfer_method_agrees(capsys):
    args = ["partition", "--model", "absorbing", "--n", "2", "--L", "4",
            "--lambda", "2,0", "--z", "2/7,3/11", "--q", "5/3"]
    _, out_enum, _ = run(capsys, *args, "--method", "enumeration")
    _, out_tr, _ = run(capsys, *args, "--method", "transfer")
    assert out_enum.strip().splitlines()[-1] == out_tr.strip().splitlines()[-1]


@pytest.mark.parametrize("z,q", [("2/7,3/11", "5/3"), ("1/2,1/3", "2")])
def test_partition_defaults_to_transfer_and_counts_states(capsys, z, q):
    # at z = 1/2,1/3, q = 2 (q z_1 = 1) 28 of the 30 states weigh 0
    args = ["partition", "--model", "reflecting", "--n", "2", "--L", "4",
            "--lambda", "1,0", "--z", z, "--q", q, "--json"]
    payloads = {}
    for method in (None, "transfer", "enumeration"):
        code, out, _ = run(capsys, *args, *(["--method", method] if method else []))
        assert code == 0
        payloads[method] = json.loads(out)
        payloads[method].pop("config")
    assert payloads[None] == payloads["transfer"]
    assert payloads["transfer"]["method"] == "transfer"
    assert payloads["transfer"]["num_states"] == payloads["enumeration"]["num_states"] == 30
    assert (payloads["transfer"]["partition_function"]
            == payloads["enumeration"]["partition_function"])


def test_verify_pass_and_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--relation", "ybe-gg", "--points", "3",
                       "--seed", "5")
    assert code == 0
    assert "PASS" in out


def test_verify_json_schema(capsys):
    code, out, _ = run(capsys, "verify", "--relation", "fish-reflecting",
                       "--points", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    payload.pop("config")
    jsonschema.validate(payload, load_schema("relation_report.schema.json"))
    assert payload["passed"] is True


@pytest.mark.parametrize("relation", cli.RELATION_IDS)
def test_verify_every_relation_json_schema(capsys, relation):
    code, out, _ = run(capsys, "verify", "--relation", relation, "--points", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    payload.pop("config")
    jsonschema.validate(payload, load_schema("relation_report.schema.json"))
    assert payload["relation"] == relation and payload["combos_tested"] > 0


def test_criterion_1_is_verify_of_the_crossing_relations(capsys):
    result = acceptance.criterion_1_ybe_uncolored(seed=9, points=3)
    combos = 0
    for relation in ("ybe-gg", "ybe-gd", "ybe-dg", "ybe-dd"):
        code, out, _ = run(capsys, "verify", "--relation", relation, "--points", "3",
                           "--seed", "9", "--json")
        assert code == 0
        combos += json.loads(out)["combos_tested"]
    assert result.detail.startswith(f"{combos} boundary combos")


def test_verify_corrupted_preset_exits_one(capsys, monkeypatch):
    # corrupt the class of (0, -1, 0, -1): straight through, first label lower
    rule, arity, d_type = weights._RULES[Family.R_GAMMA_GAMMA]

    def corrupted(*args):
        nums, den = rule(*args)
        return (nums[0] + F(1, 7) * den,) + nums[1:], den

    monkeypatch.setitem(weights._RULES, Family.R_GAMMA_GAMMA, (corrupted, arity, d_type))
    code, out, _ = run(capsys, "verify", "--relation", "ybe-gg", "--points", "2")
    assert code == 1
    assert "FAIL" in out and "counterexample" in out


def _double_caduceus_scalar(monkeypatch):
    true_scalar = dg.caduceus_scalar
    monkeypatch.setattr(dg, "caduceus_scalar", lambda zi, zj, q: 2 * true_scalar(zi, zj, q))


def _bump_crossing_entry(monkeypatch):
    # one Gamma-Gamma crossing entry of the braid side, with a new denominator
    true_table = dg.integer_table

    def bumped(model, family, params, q, letters):
        table, den = true_table(model, family, params, q, letters)
        if family is Family.R_GAMMA_GAMMA:
            # entry / den + 1/7 on the denominator 7 * den
            table = {edges: 7 * w for edges, w in table.items()}
            table[(0, -1, -1, 0)] += den
            den *= 7
        return table, den

    monkeypatch.setattr(dg, "integer_table", bumped)


@pytest.mark.parametrize("corrupt", [_double_caduceus_scalar, _bump_crossing_entry])
def test_failing_sweep_records_exact_sides(capsys, monkeypatch, corrupt):
    # the sweep compares integer numerators; a failing boundary still
    # records lhs and scale * rhs as the exact Fraction values of its sides
    corrupt(monkeypatch)
    pt = acceptance.RELATIONS["caduceus-reflecting"].draw(acceptance.DEFAULT_SEED)
    zi, zj, q = pt.z[0], pt.z[1], pt.q
    report = rel.verify_caduceus(pt, "reflecting")
    lhs = dg.caduceus_lhs(Model.UNCOLORED_REFLECTING, zi, zj).evaluate_all(q)
    rhs = dg.caduceus_rhs(Model.UNCOLORED_REFLECTING).evaluate_all(q)
    scale = dg.caduceus_scalar(zi, zj, q)
    assert report.failures
    for point, key, a, b in report.failures:
        assert point == pt and type(a) is F and type(b) is F
        assert a == lhs.get(key, F(0)) and b == scale * rhs.get(key, F(0)) and a != b
    code, out, _ = run(capsys, "verify", "--relation", "caduceus-reflecting",
                       "--points", "1", "--json")
    assert code == 1
    payload = json.loads(out)
    payload.pop("config")
    jsonschema.validate(payload, load_schema("relation_report.schema.json"))
    assert [(f["boundary"], f["lhs"], f["rhs"]) for f in payload["failures"]] == [
        (list(key), cli.fmt_rat(a), cli.fmt_rat(b)) for _, key, a, b in report.failures[:10]]


def test_verify_false_global_law_reports_case_and_sides(capsys, monkeypatch):
    monkeypatch.setattr(fn, "interchange_sides", lambda spec: (F(1, 3), F(-2)))
    code, out, _ = run(capsys, "verify", "--relation", "interchange-absorbing",
                       "--points", "1", "--json")
    assert code == 1
    payload = json.loads(out)
    payload.pop("config")
    jsonschema.validate(payload, load_schema("relation_report.schema.json"))
    failure, = payload["failures"]
    assert failure["case"] == "lambda=(2, 0)"
    assert (failure["lhs"], failure["rhs"]) == ("1/3", "-2")
    code, out, _ = run(capsys, "verify", "--relation", "interchange-absorbing", "--points", "1")
    assert code == 1 and "counterexample: case=lambda=(2, 0) lhs=1/3 rhs=-2" in out


def test_verify_parallel_jobs_match_serial(capsys):
    code1, out1, _ = run(capsys, "verify", "--relation", "ybe-dg", "--points", "4",
                         "--seed", "3", "--json")
    code2, out2, _ = run(capsys, "verify", "--relation", "ybe-dg", "--points", "4",
                         "--seed", "3", "--jobs", "2", "--json")
    assert code1 == code2 == 0
    a, b = json.loads(out1), json.loads(out2)
    a.pop("config"); b.pop("config")
    assert a == b


def test_verify_jobs_start_at_most_one_worker_per_point(capsys, monkeypatch):
    class SerialPool:
        """Stands in for the process pool: records its size, maps in process."""
        sizes = []

        def __init__(self, max_workers):
            self.sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            return map(fn, iterable)

    monkeypatch.setattr(acceptance, "ProcessPoolExecutor", SerialPool)
    argv = ("verify", "--relation", "ybe-gg", "--seed", "3", "--json")
    serial = json.loads(run(capsys, *argv, "--points", "2")[1])
    pooled = json.loads(run(capsys, *argv, "--points", "2", "--jobs", "64")[1])
    assert SerialPool.sizes == [2]
    serial.pop("config"); pooled.pop("config")
    assert pooled == serial
    assert run(capsys, *argv, "--points", "1", "--jobs", "64")[0] == 0
    assert SerialPool.sizes == [2]


def test_sample_json_schema(capsys):
    code, out, _ = run(capsys, "sample", "--model", "reflecting", "--n", "1",
                       "--L", "2", "--z", "3/4", "--q", "1/2",
                       "--samples", "3000", "--seed", "5", "--json")
    assert code == 0
    payload = json.loads(out)
    payload.pop("config")
    jsonschema.validate(payload, load_schema("sample_summary.schema.json"))
    assert payload["statistics"]["passed"] is True
    assert sum(payload["histogram"].values()) == 3000


def test_sample_deterministic(capsys):
    args = ("sample", "--model", "positive", "--n", "1", "--L", "2", "--z", "3/4",
            "--q", "1/2", "--sigma", "1", "--samples", "500", "--seed", "9", "--json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_sample_trajectories_jsonl(tmp_path, capsys):
    path = tmp_path / "traj.jsonl"
    code, _, _ = run(capsys, "sample", "--model", "signed", "--n", "1", "--L", "2",
                     "--z", "3/4", "--q", "1/2", "--sigma", "1",
                     "--samples", "40", "--seed", "4", "--trajectories", str(path))
    assert code == 0
    lines = path.read_text().splitlines()
    assert len(lines) == 40
    for i, line in enumerate(lines):
        record = json.loads(line)
        assert record["index"] == i
        assert len(record["trajectory"]) == 3    # times t = 0, 1, 2
        assert record["trajectory"][0] == []


def test_sample_trajectories_draw_each_sample_once(tmp_path, capsys, monkeypatch):
    covered = []
    true_sweep = dynamics.Sampler.sweep

    def recorded(self, start, stop):
        for first, vert, hor in true_sweep(self, start, stop):
            covered.extend(range(first, first + vert.shape[-1]))
            yield first, vert, hor

    monkeypatch.setattr(dynamics.Sampler, "sweep", recorded)
    path = tmp_path / "traj.jsonl"
    code, out, _ = run(capsys, "sample", "--model", "signed", "--n", "1", "--L", "2",
                       "--z", "3/4", "--q", "1/2", "--sigma", "1", "--samples", "40",
                       "--seed", "4", "--trajectories", str(path), "--json")
    assert code == 0
    assert covered == list(range(40))
    # the file and the histogram are those of the scalar sampler at this seed
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "f4df23be6188fbc26111986e7861bfa48f4dc2dcee82702363839b5713f7777a"
    histogram = json.loads(out)["histogram"]
    outcomes = [json.loads(line)["outcome"] for line in path.read_text().splitlines()]
    assert histogram == {k: outcomes.count(k) for k in set(outcomes)}


SAMPLE_Z = ("3/4", "4/5", "5/6")
SAMPLE_SIGMA = {"signed": ("-1", "2,-1", "3,-1,2"), "positive": ("1", "2,1", "3,1,2")}


def check_export_against_scalar_oracle(tmp_path, capsys, monkeypatch, model, n, L):
    """40 samples in chunks of 16: the trajectory file holds, byte for byte,
    the records of the scalar oracle's samples, and the histogram is the
    scalar oracle's.  Returns the expected file's text."""
    monkeypatch.setattr(dynamics, "_CHUNK", 16)
    path = tmp_path / "traj.jsonl"
    argv = ["sample", "--model", model, "--n", str(n), "--L", str(L),
            "--z", ",".join(SAMPLE_Z[:n]), "--q", "1/2", "--samples", "40",
            "--seed", "6", "--trajectories", str(path), "--json"]
    sigma = None
    if model in SAMPLE_SIGMA:
        argv.append(f"--sigma={SAMPLE_SIGMA[model][n - 1]}")
        sigma = SignedPermutation(tuple(map(int, SAMPLE_SIGMA[model][n - 1].split(","))))
    code, out, _ = run(capsys, *argv)
    assert code in (0, 1)
    spec = LatticeSpec(cli.MODEL_NAMES[model], n, L,
                       Partition(() if model == "absorbing" else (0,) * n),
                       ParamPoint(tuple(F(z) for z in SAMPLE_Z[:n]), F(1, 2)),
                       sigma, SignedPermutation.identity(n) if sigma else None)
    config = dynamics.SamplerConfig(spec, 6, 40)
    oracle = ScalarSampler(config)
    expected = ""
    for index in range(40):
        outcome = oracle.sample(index)
        record = {"escaped": outcome.escaped, "index": index,
                  "outcome": cli.outcome_str(outcome.key),
                  "trajectory": dynamics.trajectory_from_configuration(outcome.config)}
        expected += json.dumps(record, sort_keys=True) + "\n"
    assert path.read_bytes() == expected.encode()
    histogram = scalar_run(config).histogram
    assert json.loads(out)["histogram"] == {cli.outcome_str(k): v for k, v in histogram.items()}
    return expected


@pytest.mark.parametrize("model", sorted(cli.MODEL_NAMES))
@pytest.mark.parametrize("n", [1, 2])
def test_sample_exports_equal_scalar_oracle(tmp_path, capsys, monkeypatch, model, n):
    check_export_against_scalar_oracle(tmp_path, capsys, monkeypatch, model, n, n + 2)


@pytest.mark.parametrize("model, n, L", [
    ("absorbing", 1, 0),      # no columns: every trajectory is empty
    ("signed", 3, 4),
    ("reflecting", 1, 1),     # escaped and kept samples
])
def test_sample_export_edge_cases_equal_scalar_oracle(tmp_path, capsys, monkeypatch,
                                                      model, n, L):
    expected = check_export_against_scalar_oracle(tmp_path, capsys, monkeypatch, model, n, L)
    if L == 1:
        assert '"escaped": true' in expected and '"escaped": false' in expected


def test_sample_rejects_tau():
    # the sampler's bottom boundary is free, so a --tau would be ignored
    code, err = exit_code_and_stderr(["sample", "--model", "signed", "--n", "1", "--L", "3",
                                      "--sigma", "1", "--z", "3/4", "--q", "1/2", "--seed", "3",
                                      "--samples", "200", "--tau", "1"])
    assert code == 2 and "--tau" in err


def test_internal_error_exits_three(capsys, monkeypatch):
    def broken(spec):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(cli, "exact_outcome_probabilities", broken)
    code, _, err = run(capsys, "sample", "--model", "reflecting", "--n", "1", "--L", "2",
                       "--z", "3/4", "--q", "1/2", "--samples", "10")
    assert code == 3
    assert err.splitlines() == ["internal error: RuntimeError: injected fault"]
    assert "Traceback" not in err


#: Stands for the path of a config file that is not valid UTF-8.
UNDECODABLE = "<undecodable config>"


@pytest.mark.parametrize("argv", [
    ("verify", "--relation", "ybe-gg", "--points", "0"),
    ("verify", "--relation", "ybe-gg", "--points", "2", "--jobs", "0"),
    ("sample", "--model", "reflecting", "--n", "1", "--L", "2", "--z", "3/4",
     "--q", "1/2", "--samples", "0"),
    ("sample", "--model", "reflecting", "--n", "1", "--L", "2", "--z", "3/4",
     "--q", "1/2", "--samples", "-5"),
    ("partition", "--config"),
    ("--config",),
    ("sample", "--model", "reflecting", "--n", "1", "--L", "2", "--z", "3/4",
     "--q", "1/2", "--samples", "10", "--trajectories", "/nonexistent/dir/t.jsonl"),
    ("partition", "--model", "reflecting", "--n", "1", "--L", "1", "--lambda", "0",
     "--z", "1/0", "--q", "2"),
    ("partition", "--model", "reflecting", "--n", "1", "--L", "1", "--lambda", "0",
     "--z", "1/2", "--q", "1/0"),
    ("render", "--model", "reflecting", "--n", "1", "--L", "1", "--lambda", "0",
     "--z", "1/2", "--q", "2", "--state-index", "-1"),
    ("render", "--model", "reflecting", "--n", "1", "--L", "1", "--lambda", "0",
     "--z", "1/2", "--q", "2", "--state-index", "5"),
    ("render", "--model", "absorbing", "--n", "1", "--L", "1", "--lambda", "0",
     "--z", "1/2", "--q", "5"),
    ("partition", "--model", "reflecting", "--n", "0", "--L", "1", "--lambda=", "--z=",
     "--q", "2"),
    ("partition", "--model", "reflecting", "--n", "0", "--L", "1", "--lambda=", "--z=",
     "--q", "2", "--method", "enumeration"),
    ("render", "--model", "reflecting", "--n", "0", "--L", "1", "--lambda=", "--z=",
     "--q", "2"),
    ("sample", "--model", "reflecting", "--n", "0", "--L", "1", "--z=", "--q", "1/2",
     "--samples", "10"),
    ("--config", UNDECODABLE, "partition"),
    ("--config=/nonexistent/dir/p.cfg", "partition"),
    ("partition", "--config=/nonexistent/dir/p.cfg"),
    ("--config", "/nonexistent/dir/p.cfg", "partition"),
    ("sample", "--model", "reflecting", "--n", "1", "--L", "2", "--z", "3/4",
     "--q", "1/2", "--samples", "10", "--trajectories", ""),
])
def test_invalid_counts_and_flags_exit_two(capsys, tmp_path, argv):
    if UNDECODABLE in argv:
        path = tmp_path / "latin1.cfg"
        path.write_bytes("# r\xe9glage\nq = 2\n".encode("latin-1"))
        argv = tuple(str(path) if arg == UNDECODABLE else arg for arg in argv)
    code, _, err = run(capsys, *argv)
    assert code == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("config", [("--conf=/nonexistent/dir/p.cfg",), ("--conf", "FULL")])
def test_abbreviated_top_level_config_exits_two(tmp_path, config):
    # the top-level parser takes no abbreviations: main reads --config
    # itself, so an abbreviated --conf must not run with its file unread
    cfg = tmp_path / "full.cfg"
    cfg.write_text("model = reflecting\nn = 1\nL = 1\nlambda = 0\nz = 1/2\nq = 2\n")
    argv = [str(cfg) if arg == "FULL" else arg for arg in config] + [
        "partition", "--model", "reflecting", "--n", "1", "--L", "1", "--lambda", "0",
        "--z", "1/2", "--q", "2"]
    code, err = exit_code_and_stderr(argv)
    assert code == 2 and "error:" in err and "Traceback" not in err


def test_one_parser_serves_every_call(capsys):
    # main builds its parser once per process: failed parses and other
    # subcommands in between leave a repeated call's output unchanged
    sample = ("sample", "--model", "signed", "--n", "2", "--L", "4", "--z", "3/4,4/5",
              "--q", "1/2", "--sigma=2,-1", "--samples", "300", "--json")
    partition = ("partition", "--model", "reflecting", "--n", "1", "--L", "1",
                 "--lambda", "0", "--z", "1/2", "--q", "2")
    first = run(capsys, *sample)
    assert first[0] in (0, 1)
    assert run(capsys, "sample", "--model", "reflecting", "--n", "0", "--L", "1", "--z=",
               "--q", "1/2")[0] == 2
    assert exit_code_and_stderr(["--conf=/no/such", *partition])[0] == 2
    assert run(capsys, *partition)[0] == 0
    assert run(capsys, *sample) == first
    assert cli.build_parser() is cli.build_parser()
    for argv in (["--help"], ["sample", "--help"]):
        texts = []
        for parser in (cli.build_parser(), cli.build_parser.__wrapped__()):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv)
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
        with pytest.raises(SystemExit):
            cli.main(argv)
        assert capsys.readouterr().out == texts[0] == texts[1] != ""


def test_render_ascii_and_svg(capsys):
    base = ("render", "--model", "signed", "--n", "2", "--L", "4",
            "--lambda", "1,0", "--sigma=-1,-2", "--tau", "1,2",
            "--z", "1/2,1/3", "--q", "5")
    code, out, _ = run(capsys, *base)
    assert code == 0
    assert "strands: 2" in out
    code, out, _ = run(capsys, *base, "--format", "svg")
    assert code == 0
    assert out.count('class="strand"') == 2


@pytest.mark.parametrize("fmt", ["ascii", "svg"])
def test_render_draws_the_indexed_state_of_the_enumeration(capsys, fmt):
    spec = LatticeSpec(Model.UNCOLORED_REFLECTING, 2, 4, Partition((1, 0)),
                       ParamPoint((F(1, 2), F(1, 3)), F(2)))
    states = list(enumerate_states(spec))
    for k in range(3):
        code, out, _ = run(capsys, "render", "--model", "reflecting", "--n", "2", "--L", "4",
                           "--lambda", "1,0", "--z", "1/2,1/3", "--q", "2",
                           "--state-index", str(k), "--format", fmt)
        assert code == 0 and out == render_state(states[k][0], fmt)


@pytest.mark.parametrize("subcommand, model", [
    ("sample", "signed"), ("sample", "positive"), ("partition", "signed"),
    ("partition", "positive"), ("render", "signed"), ("render", "positive")])
def test_colored_spec_without_sigma_names_the_sigma_flag(capsys, subcommand, model):
    argv = [subcommand, "--model", model, "--n", "1", "--L", "2", "--z", "3/4", "--q", "1/2"]
    if subcommand != "sample":
        argv += ["--lambda", "0", "--tau", "1"]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err == "error: --sigma is required for the signed and positive models\n"


def test_render_bad_index(capsys):
    code, _, err = run(capsys, "render", "--model", "reflecting", "--n", "1",
                       "--L", "1", "--lambda", "0", "--z", "1/2", "--q", "2",
                       "--state-index", "5")
    assert code == 2
    assert "out of range" in err


def test_bad_spec_exits_two(capsys):
    code, _, err = run(capsys, "partition", "--model", "reflecting", "--n", "2",
                       "--L", "2", "--lambda", "2,1", "--z", "1/2,1/3", "--q", "5")
    assert code == 2
    assert "error" in err


def test_config_file_flags_win(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("points = 2\nseed = 11\n# comment\n")
    code, out, _ = run(capsys, "verify", "--config", str(cfg),
                       "--relation", "ybe-dd")
    assert code == 0
    assert '"points": 2' in out and '"seed": 11' in out
    # explicit flag overrides the config value
    code, out, _ = run(capsys, "verify", "--config", str(cfg),
                       "--relation", "ybe-dd", "--points", "1")
    assert '"points": 1' in out


def test_config_before_or_after_subcommand(tmp_path, capsys):
    # the file's flags follow the subcommand wherever --config stands, and
    # explicit flags still win
    cfg = tmp_path / "p.cfg"
    cfg.write_text("model = reflecting\nn = 2\nL = 4\nlambda = 1,0\nz = 2/7,3/11\nq = 5/3\n")
    before = run(capsys, "--config", str(cfg), "partition", "--json")
    assert before[0] == 0 and json.loads(before[1])["num_states"] == 30
    assert run(capsys, "partition", "--config", str(cfg), "--json") == before
    assert run(capsys, f"--config={cfg}", "partition", "--json") == before
    assert run(capsys, "partition", f"--config={cfg}", "--json") == before
    code, out, _ = run(capsys, "--config", str(cfg), "partition", "--json", "--q", "2")
    assert code == 0 and json.loads(out)["q"] == "2"


@pytest.mark.parametrize("line, flag, rest, value", [
    ("sigma = -2,1", "--sigma=-2,1", ("--q", "1/2"), "-35/1728"),
    ("q = -1/2", "--q=-1/2", ("--sigma", "1,2"), "665/55296"),
])
def test_config_values_may_start_with_a_dash(tmp_path, capsys, line, flag, rest, value):
    # a config value is one '--name=value' token, so '-2,1' is not a flag
    flags = ("partition", "--model", "signed", "--n", "2", "--L", "3", "--lambda", "0,0",
             "--tau", "1,2", "--z", "1/2,1/3", *rest)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(line + "\n")
    from_config = run(capsys, "--config", str(cfg), *flags)
    assert from_config == run(capsys, *flags, flag)
    assert from_config[0] == 0 and from_config[1].splitlines()[-1] == value


def test_config_sets_switches(tmp_path, capsys):
    # 'json = true' is --json, 'json = false' leaves the switch off
    flags = ("partition", "--model", "reflecting", "--n", "1", "--L", "2", "--lambda", "0",
             "--z", "2/7", "--q", "5/3")
    cfg = tmp_path / "p.cfg"
    cfg.write_text("json = true\n")
    on = run(capsys, "--config", str(cfg), *flags)
    assert on == run(capsys, *flags, "--json")
    assert on[0] == 0 and json.loads(on[1])["num_states"] == 2
    cfg.write_text("json = false\n")
    assert run(capsys, "--config", str(cfg), *flags) == run(capsys, *flags)


def test_partition_evaluates_each_weight_once(capsys, monkeypatch):
    # the state count comes from the same transfer as Z, so the command
    # evaluates each row's rule exactly as often as partition_function does
    calls = []
    for family in (Family.GAMMA, Family.DELTA):
        rule, arity, d_type = weights._RULES[family]

        def counted(*args, rule=rule):
            calls.append(args)
            return rule(*args)

        monkeypatch.setitem(weights._RULES, family, (counted, arity, d_type))
    code, _, _ = run(capsys, "partition", "--model", "signed", "--n", "2", "--L", "4",
                     "--lambda", "1,0", "--sigma", "1,-2", "--tau=-2,1",
                     "--z", "2/7,3/11", "--q", "5/3")
    assert code == 0
    through_cli = len(calls)
    calls.clear()
    spec = LatticeSpec(Model.COLORED_SIGNED, 2, 4, Partition((1, 0)),
                       ParamPoint((F(2, 7), F(3, 11)), F(5, 3)),
                       SignedPermutation((1, -2)), SignedPermutation((-2, 1)))
    partition_function(spec)
    assert through_cli == len(calls) > 0


def test_suite_quick(capsys):
    code, out, _ = run(capsys, "suite", "--quick")
    assert code == 0
    assert out.count("PASS") >= 12


# Small flag values, degenerate and malformed ones included: whatever the
# input, the exit code keeps its meaning and no traceback escapes.
RATIONAL = st.sampled_from(["3/4", "4/5", "1/2", "2", "1", "0", "-1", "1/0", "x"])
BAD_VALUE = st.sampled_from(["-1", "0", "1/0", "x", "", "1,1", "3"])


@st.composite
def spec_flags(draw):
    """A well-formed spec with n, L <= 2, then maybe one flag replaced."""
    model = draw(st.sampled_from(sorted(cli.MODEL_NAMES)))
    n = draw(st.sampled_from([1, 2]))
    flags = {"--model": model, "--n": str(n), "--L": draw(st.sampled_from(["0", "1", "2"])),
             "--z": ",".join(draw(st.lists(RATIONAL, min_size=n, max_size=n))),
             "--q": draw(RATIONAL), "--sigma": ""}
    if cli.MODEL_NAMES[model].colored:
        sigmas = [s for s in all_signed_permutations(n) if model == "signed" or s.all_positive]
        flags["--sigma"] = ",".join(map(str, draw(st.sampled_from(sigmas)).images))
    if draw(st.booleans()):
        flags[draw(st.sampled_from(sorted(flags)))] = draw(BAD_VALUE)
    return [f"{name}={value}" for name, value in flags.items()]


def exit_code_and_stderr(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:       # argparse rejecting a flag
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=50, deadline=None)
@given(relation=st.sampled_from(cli.RELATION_IDS + ("no-such-relation",)),
       points=st.sampled_from(["-1", "0", "1"]), seed=st.integers(-3, 3),
       jobs=st.sampled_from(["-1", "0", "1"]))
def test_verify_small_flags_keep_exit_contract(relation, points, seed, jobs):
    code, err = exit_code_and_stderr(["verify", "--relation", relation, "--points", points,
                                      "--seed", str(seed), "--jobs", jobs])
    assert code in (0, 1, 2) and "Traceback" not in err


@settings(max_examples=100, deadline=None)
@given(spec=spec_flags(), lam=st.sampled_from(["", "0", "1", "0,0", "1,0", "2,1", "0,1", "-1"]),
       method=st.sampled_from(["enumeration", "transfer"]))
def test_partition_small_flags_keep_exit_contract(spec, lam, method):
    code, err = exit_code_and_stderr(["partition", *spec, f"--lambda={lam}", "--method", method])
    assert code in (0, 1, 2) and "Traceback" not in err


@settings(max_examples=100, deadline=None)
@given(spec=spec_flags(), samples=st.sampled_from(["-1", "0", "1", "50"]),
       seed=st.integers(-3, 3))
def test_sample_small_flags_keep_exit_contract(spec, samples, seed):
    code, err = exit_code_and_stderr(["sample", *spec, "--samples", samples, "--seed", str(seed)])
    assert code in (0, 1, 2) and "Traceback" not in err
