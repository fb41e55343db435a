"""Invariant guards raise explicit exceptions, so they survive ``python -O``."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
from fractions import Fraction

from symplectic_ice import weights
from symplectic_ice.dynamics import (SampleSummary, Sampler, SamplerConfig,
                                     SamplerSoundnessError, exact_outcome_probabilities)
from symplectic_ice.lattice import LatticeSpec, Partition
from symplectic_ice.rationals import DomainError, ParamPoint
from symplectic_ice.relations import RelationReport
from symplectic_ice.weights import Family, Model, pattern_table

assert False, "this script must run with assertions stripped"
try:
    RelationReport("ybe-gg").merge(RelationReport("ybe-dd"))
except ValueError:
    pass
else:
    raise SystemExit("merging reports of different relations did not raise")
summary = SampleSummary(num_samples=3)
summary.histogram = {"escape": 2}
try:
    summary.check()
except SamplerSoundnessError:
    pass
else:
    raise SystemExit("a histogram missing a sample did not raise")
try:
    # 1 - z_i' z_j = 0 with z_i' = 5/6 at z_i = 2/5, q = 7/3
    pattern_table(Model.UNCOLORED_REFLECTING, Family.R_DELTA_GAMMA,
                  (Fraction(2, 5), Fraction(6, 5)), Fraction(7, 3), (-1, 0))
except DomainError:
    pass
else:
    raise SystemExit("a singular crossing table did not raise")
# lower one Gamma class by 1/7: row 2's inputs (0, -1) sum to 6/7
rule, arity, d_type = weights._RULES[Family.GAMMA]
def lowered(*args):
    nums, den = rule(*args)
    return (nums[0] - Fraction(den) / 7,) + nums[1:], den
weights._RULES[Family.GAMMA] = (lowered, arity, d_type)
spec = LatticeSpec(Model.UNCOLORED_REFLECTING, 1, 3, Partition((0,)),
                   ParamPoint((Fraction(3, 4),), Fraction(1, 2)))
for law in (lambda: Sampler(SamplerConfig(spec, 1, 10)),
            lambda: exact_outcome_probabilities(spec)):
    try:
        law()
    except SamplerSoundnessError as err:
        if str(err) != "row 2 inputs (0, -1) sum to 6/7, not 1":
            raise SystemExit(f"wrong message for a row not summing to 1: {err}")
    else:
        raise SystemExit("a row that does not sum to 1 did not raise")
weights._RULES[Family.GAMMA] = (rule, arity, d_type)
# z = 3/4 > 1/q: rows sum to 1, but the masses would be -7/16, -7/8 and escape 37/16
try:
    exact_outcome_probabilities(LatticeSpec(Model.UNCOLORED_REFLECTING, 1, 2, Partition((0,)),
                                            ParamPoint((Fraction(3, 4),), Fraction(2))))
except ValueError:
    pass
else:
    raise SystemExit("the exact law outside the stochastic regime did not raise")
print("guards raised")
"""


def test_guards_raise_under_python_O():
    done = subprocess.run([sys.executable, "-O", "-c", SCRIPT], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "guards raised"
