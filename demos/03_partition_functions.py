"""Partition functions: transfer, enumeration, closed forms, global laws.

The lattice has 2n rows (Delta below Gamma in each pair, caps on the
right) and L columns numbered right to left.  The partition function with
bottom boundary lambda is computed by a sparse column transfer sweep; the
stream of all admissible states, summed, gives the same value
independently.  Z obeys exact functional equations in the spectral
parameters.
"""

from fractions import Fraction as F

from symplectic_ice import (LatticeSpec, Model, Partition, SignedPermutation,
                            ParamPoint, check_interchange,
                            check_permutation_invariance, check_weyl_invariance,
                            closed_form_opposite, enumerate_states,
                            partition_function, render_state, sample_point)

# ------------------------------------------------------------------
# the smallest reflecting lattice: two admissible states
# ------------------------------------------------------------------
pt = ParamPoint((F(1, 2),), F(2))
spec = LatticeSpec(Model.UNCOLORED_REFLECTING, 1, 1, Partition((0,)), pt)
states = list(enumerate_states(spec))
print(f"reflecting n=1, L=1, lambda=(0) at z=1/2, q=2: "
      f"{len(states)} states, Z = {partition_function(spec)}")
for config, w in states:
    print(f"  state weight {w}")
print()

# ------------------------------------------------------------------
# transfer and the sum over enumerated states agree on every family
# ------------------------------------------------------------------
pt = sample_point(2, 23)
examples = [
    LatticeSpec(Model.UNCOLORED_REFLECTING, 2, 4, Partition((2, 1)), pt),
    LatticeSpec(Model.UNCOLORED_ABSORBING, 2, 4, Partition((2, 0)), pt),
    LatticeSpec(Model.COLORED_SIGNED, 2, 5, Partition((2, 1)), pt,
                SignedPermutation((-2, 1)), SignedPermutation((1, 2))),
    LatticeSpec(Model.COLORED_POSITIVE, 2, 5, Partition((1, 1)), pt,
                SignedPermutation((2, 1)), SignedPermutation((1, 2))),
]
for spec in examples:
    a = partition_function(spec)
    b = sum((w for _, w in enumerate_states(spec)), F(0))
    assert a == b
    print(f"{spec.model.value:<22} n={spec.n} L={spec.L} lambda={spec.lam.parts}: "
          f"transfer == enumeration ({str(a)[:40]}...)")
print()

# ------------------------------------------------------------------
# opposite boundary colors force a unique state with a product formula
# ------------------------------------------------------------------
spec = LatticeSpec(Model.COLORED_SIGNED, 2, 4, Partition((1, 0)), pt,
                   SignedPermutation((-1, -2)), SignedPermutation((1, 2)))
states = list(enumerate_states(spec))
print(f"opposite-boundary signed model: {len(states)} admissible state")
assert closed_form_opposite(spec) == partition_function(spec)
print("closed form == Z:", closed_form_opposite(spec))
print()
print(render_state(states[0][0], "ascii"))

# ------------------------------------------------------------------
# global laws: Z is symmetric in the z_i, and Z normalized by
#   D1 = prod z_i^L (1 - (q+1) z_i + q z_i / z_i')   (reflecting)
#   D2 = prod z_i^L                                  (absorbing)
# is invariant under z_n -> 1/z_n' as well
# ------------------------------------------------------------------
for model, lam in [(Model.UNCOLORED_REFLECTING, (2, 1)),
                   (Model.UNCOLORED_ABSORBING, (2, 0))]:
    spec = LatticeSpec(model, 2, 4, Partition(lam), pt)
    assert check_permutation_invariance(spec, 1)
    assert check_interchange(spec)
    for word in [(1,), (2,), (1, 2)]:
        assert check_weyl_invariance(spec, word)
    print(f"{model.value}: symmetric in z, and Z/D invariant under the full"
          " Weyl action (checked s_1, s_2, s_1 s_2)")
