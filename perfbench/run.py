"""Benchmark of symplectic-ice: identity checks, functional laws and sampling.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from ``src/``
of that checkout.  One process, one thread: the timed loop repeats the
workload's round of operations until the operations have taken
``--seconds`` seconds in total (and at least MIN_OPS have run).  Each
operation is timed on its own and its time scaled by a yardstick loop
timed around it (see ``yardstick``); checks run outside the timed
operations.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced rounds with rounds in which every layer is wrapped by
``layertrace`` (at least two of each, and half of ``--seconds`` of
untraced operations), and prints the per-layer metrics per round plus the
tracing overhead (traced round minus untraced round, from the
operations' mean times).  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

T_START = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
MIN_OPS = 100
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 60
YARDSTICK_S = 0.001     # nominal duration of one yardstick() call

# Per-layer metrics: name -> (span patterns, field).  Fields: calls, self_s
# (self time), items (states yielded), rate (items per second of span).
LAYERS = {
    "relations.verify.self_s": (["relations.verify_*"], "self_s"),
    "diagram.evaluate_all.calls": (["diagram.WiringDiagram.evaluate_all"], "calls"),
    "diagram.evaluate_all.self_s": (["diagram.WiringDiagram.evaluate_all"], "self_s"),
    "weights.vertex_weight.calls": (["weights.vertex_weight"], "calls"),
    "weights.vertex_weight.self_s": (["weights.vertex_weight"], "self_s"),
    "lattice.partition_function.calls": (["lattice.partition_function"], "calls"),
    "lattice.partition_function.self_s": (["lattice.partition_function",
                                           "lattice.enumerate_states"], "self_s"),
    "lattice.enumerate_states.states": (["lattice.enumerate_states"], "items"),
    "lattice.partition_function_transfer.calls": (["lattice.partition_function_transfer"], "calls"),
    "lattice.partition_function_transfer.self_s": (["lattice.partition_function_transfer",
                                                    "lattice.transfer_right_edge_weights"], "self_s"),
    "functional.check.self_s": (["functional.*"], "self_s"),
    "dynamics.mix64.calls": (["dynamics.mix64"], "calls"),
    "dynamics.mix64.self_s": (["dynamics.mix64"], "self_s"),
    "dynamics.Sampler.sample.calls": (["dynamics.Sampler.sample"], "calls"),
    "dynamics.run_sampler.self_s": (["dynamics.run_sampler"], "self_s"),
    "dynamics.run_sampler.samples_per_s": (["dynamics.run_sampler"], "rate"),
    "dynamics.exact_outcome_probabilities.self_s": (["dynamics.exact_outcome_probabilities"], "self_s"),
    "dynamics.compare_empirical_to_exact.self_s": (["dynamics.compare_empirical_to_exact"], "self_s"),
    "dynamics.trajectory_from_configuration.self_s": (["dynamics.trajectory_from_configuration"], "self_s"),
    "cli.main.self_s": (["cli.*"], "self_s"),
}
UNITS = {"calls": "count", "self_s": "s", "items": "count", "rate": "1/s"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["local-identities", "global-laws", "monte-carlo", "trajectories"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--probe-setup", action="store_true",
                    help="import and build the inputs, print 'ready', exit (used to time set-up)")
    return ap.parse_args(argv)


def yardstick() -> float:
    """Seconds taken by a fixed loop of Fraction and 64-bit integer arithmetic.

    The machine's speed switches between two levels about 1.7x apart, for
    spans of a fraction of a second to tens of minutes, under load from
    other tenants: on a 2-core x86 virtual machine the same run of a
    workload took from 6 to 10 s.  The
    package's hot code is pure Python of the same kinds (rational vertex
    weights, the ``mix64`` hash), so every timing is divided by the
    yardstick measured right before and after it and reported at the
    speed where the yardstick takes YARDSTICK_S.  Over nine rounds of one
    workload the raw round time moved by 24%, the scaled one by 5%.  The
    collector is paused so that garbage left by the package does not
    land in the yardstick.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        x, h = Fraction(1, 3), 12345
        for i in range(60):
            x = (x * Fraction(7, 5) + Fraction(i, 11)) / Fraction(13, 9)
            for _ in range(8):
                h = (h * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        return time.perf_counter() - t0
    finally:
        gc.enable()


def scaled(seconds, before, after) -> float:
    """``seconds`` at the speed where the yardstick takes YARDSTICK_S."""
    return seconds * YARDSTICK_S * 2 / (before + after)


def probe_setup(args) -> float:
    """Scaled seconds from starting a fresh interpreter to the first timed operation.

    Right after a process starts or ends a single yardstick reads anywhere
    from 0.5 to 3 times its usual time, so each side takes a median of 30.
    """
    before = statistics.median(yardstick() for _ in range(30))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--probe-setup"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return scaled(elapsed, before, statistics.median(yardstick() for _ in range(30)))


class Runner:
    """Repeats a workload's round, keeping each operation's mean scaled time.

    Every round runs the same operations on the same inputs.  Each
    operation is timed between two yardsticks and its time scaled by
    them; a switch of the machine's speed inside an operation still
    shifts that one time, so an operation's time is its mean over the
    run's rounds and percentiles are taken over operations.
    """

    def __init__(self, workload, ops, seed):
        self.workload, self.ops, self.seed = workload, ops, seed
        self.times = {}      # (traced, op index) -> scaled times of the op's runs
        self.units = {}      # op index -> units of work of one run of the op
        self.attempted = self.failed = 0
        self.rounds = 0
        self.errors = []
        self.reference = None   # first round's fingerprints

    def round(self, trace=None) -> float:
        results, elapsed = [], 0.0
        for i, op in enumerate(self.ops):
            self.attempted += 1
            before = yardstick()
            if trace is not None:
                trace.active = True
            t0 = time.perf_counter()
            try:
                res = op.call()
            except Exception as exc:
                # a raising operation is a wrong output, not a faster one
                self.failed += 1
                self.errors.append(f"round {self.rounds + 1}: {op.kind} (operation {i}) "
                                   f"raised {type(exc).__name__}: {exc}")
                if self.failed <= 3:
                    traceback.print_exc(file=sys.stderr)
                res = None
            finally:
                dt = time.perf_counter() - t0
                if trace is not None:
                    trace.active = False
            elapsed += dt
            results.append(res)
            if res is not None:
                self.times.setdefault((trace is not None, i), []).append(
                    scaled(dt, before, yardstick()))
                self.units.setdefault(i, self.workload.units(op, res))
        self.rounds += 1
        self.verify(results)
        return elapsed

    def verify(self, results):
        try:
            prints = [None if r is None else self.workload.fingerprint(op, r)
                      for op, r in zip(self.ops, results)]
            if self.reference is None:
                self.reference = prints
                good = [(op, r) for op, r in zip(self.ops, results) if r is not None]
                self.errors += self.workload.check([o for o, _ in good], [r for _, r in good],
                                                   self.seed)
            else:
                self.errors += [f"round {self.rounds}: {op.kind} output differs from round 1"
                                for op, a, b in zip(self.ops, prints, self.reference) if a != b]
        finally:
            self.workload.cleanup()

    def op_times(self, traced=False) -> list:
        """Mean scaled time of each operation that never failed."""
        return [statistics.fmean(ts) for (tr, _), ts in sorted(self.times.items()) if tr == traced]

    def run(self, seconds):
        """Whole rounds until ``seconds`` of operations and MIN_OPS operations."""
        spent = 0.0
        while spent < seconds or self.attempted < MIN_OPS:
            spent += self.round()
        return spent


def layer_metrics(trace, rounds, overhead_s, import_s):
    """Per-layer figures per round; overhead_s is already per round."""
    metrics = {"import.s": {"value": import_s, "unit": "s"}}
    for name, (patterns, field) in LAYERS.items():
        g = trace.group(patterns)
        value = {"calls": g.calls, "self_s": g.self_time, "items": g.items,
                 "rate": g.items / g.total if g.total else 0.0}[field]
        if field != "rate":
            value /= rounds
        metrics[name] = {"value": value, "unit": UNITS[field]}
    metrics["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    return metrics


def layer_shares(trace, traced_s):
    """Share of the traced operation time spent in each span (self time)."""
    rows = sorted(trace.snapshot().items(), key=lambda kv: -kv[1]["self_s"])
    return {name: {**s, "share": s["self_s"] / traced_s} for name, s in rows}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "symplectic_ice" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)

    if args.probe_setup:
        import workloads
        workloads.make(args.workload, str(OUT)).build(args.seed)
        print("ready", flush=True)
        return 0

    setup = [] if args.trace else [probe_setup(args) for _ in range(SETUP_REPEATS)]
    t0 = time.perf_counter()
    import symplectic_ice.cli  # noqa: F401  (the import a user of the command pays)
    import_s = time.perf_counter() - t0
    import workloads
    from layertrace import LayerTrace

    wl = workloads.make(args.workload, str(OUT))
    runner = Runner(wl, wl.build(args.seed), args.seed)
    if args.trace:
        # untraced and traced rounds alternate, so that changes in the
        # machine's speed fall on both alike
        trace = LayerTrace()
        untraced = traced = 0.0
        while untraced < args.seconds / 2 or runner.attempted < MIN_OPS or runner.rounds < 4:
            untraced += runner.round()
            trace.install()
            try:
                traced += runner.round(trace)
            finally:
                trace.uninstall()
        rounds = runner.rounds // 2
        overhead = sum(runner.op_times(True)) - sum(runner.op_times())
        metrics = layer_metrics(trace, rounds, overhead, import_s)
        dump = {"workload": args.workload, "seed": args.seed, "traced_rounds": rounds,
                "untraced_round_s": sum(runner.op_times()),
                "traced_round_s": sum(runner.op_times(True)),
                "traced_s": traced, "spans": layer_shares(trace, traced)}
        (OUT / f"trace-{args.workload}-{args.seed}.json").write_text(json.dumps(dump, indent=1))
    else:
        runner.run(args.seconds)
        times = runner.op_times()
        wall = sum(times)
        # with fewer than two operations that did not raise, the run is not
        # correct and there is nothing to time
        metrics = {} if len(times) < 2 else {
            "work_per_s": {"value": sum(runner.units.values()) / wall, "unit": "1/s"},
            "wall_s": {"value": wall, "unit": "s"},
            "op_p50_ms": {"value": 1000 * statistics.median(times), "unit": "ms"},
            "op_p90_ms": {"value": 1000 * statistics.quantiles(times, n=10, method="inclusive")[8],
                          "unit": "ms"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    for e in runner.errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    correct = not runner.errors and runner.failed == 0
    result = {"correct": correct, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(line + "\n")
    print(f"# {args.workload} seed {args.seed}: {runner.rounds} rounds of {len(runner.ops)} operations, "
          f"{time.perf_counter() - T_START:.1f}s in total")
    print(line)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
