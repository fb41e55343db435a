"""Exact rational parameter points and singularity-avoiding random sampling.

All numerics in this package are exact: every weight, partition function
and identity check is a value in Q, represented by ``fractions.Fraction``
(always in canonical form: reduced, positive denominator).  Identities are
verified by evaluation at random rational points drawn from a large range;
since everything in sight is a rational function of bounded degree,
agreement at a handful of non-singular points is decisive, and exact
equality removes any tolerance question.

A :class:`ParamPoint` bundles the spectral parameters ``z_1..z_n`` with the
deformation parameter ``q``.  The companion parameters obey

    z_i' = q + 1 - 1/z_i,   equivalently   1/z_i + z_i' = q + 1,

and are always recomputed from ``z_i`` and ``q``, never stored.

``sample_point`` reads the crossings' singular loci from their weight
rules (``weights.denominator``; ``DomainError`` is re-exported from there)
and keeps here only those no rule has: z = 0, z' = 0, equal z,
q z_i + z_j' - (q+1), 1 - z_n z_n' and the u-singular test.

Everything here is immutable and safe to share across workers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .weights import R_FAMILIES, DomainError, Family, denominator

#: Default magnitude bound for numerators/denominators drawn by sample_point.
SAMPLE_RANGE = 10**6

#: Draw budget before sample_point gives up on a predicate set.
REJECTION_BUDGET = 1000


class SamplingError(RuntimeError):
    """A random point could not be drawn: sample_point exhausted its
    rejection budget, or a drawn point missed the domain it was drawn for."""


def zprime(z: Fraction, q: Fraction) -> Fraction:
    """Companion parameter z' = q + 1 - 1/z.  Requires z != 0."""
    if z == 0:
        raise DomainError("z' undefined at z = 0")
    return q + 1 - Fraction(1) / z


@dataclass(frozen=True)
class ParamPoint:
    """Spectral parameters z_1..z_n together with the deformation q.

    Invariants: every z_i != 0 (so z_i' exists) and q != 0.
    """

    z: tuple
    q: Fraction

    def __post_init__(self):
        object.__setattr__(self, "z", tuple(Fraction(v) for v in self.z))
        object.__setattr__(self, "q", Fraction(self.q))
        if self.q == 0:
            raise DomainError("q must be nonzero")
        if any(v == 0 for v in self.z):
            raise DomainError("every z_i must be nonzero")

    @property
    def n(self) -> int:
        return len(self.z)

    def zp(self, i: int) -> Fraction:
        """z_i' for 1-based row index i."""
        return zprime(self.z[i - 1], self.q)

    def replace_z(self, i: int, value: Fraction) -> "ParamPoint":
        """New point with z_i (1-based) replaced."""
        z = list(self.z)
        z[i - 1] = Fraction(value)
        return ParamPoint(tuple(z), self.q)

    def swap_z(self, i: int, j: int) -> "ParamPoint":
        """New point with z_i and z_j (1-based) interchanged."""
        z = list(self.z)
        z[i - 1], z[j - 1] = z[j - 1], z[i - 1]
        return ParamPoint(tuple(z), self.q)


def in_stochastic_regime(point: ParamPoint) -> bool:
    """True iff max{0, 1/(q+1)} <= z_i <= min{1/q, 1} for every i.

    The bounds only make sense for q > 0; any other q (except q = -1,
    which is a domain error because 1/(q+1) is undefined) yields False.
    """
    q = point.q
    if q == -1:
        raise DomainError("regime bounds undefined at q = -1")
    if q <= 0:
        return False
    lo = max(Fraction(0), Fraction(1) / (q + 1))
    hi = min(Fraction(1) / q, Fraction(1))
    return all(lo <= v <= hi for v in point.z)


# ---------------------------------------------------------------------------
# Random points avoiding the singular loci of the identities under test.
#
# Each predicate takes a ParamPoint and returns True when the point must be
# rejected; the module docstring says which loci the built-in set covers.
# ---------------------------------------------------------------------------

Predicate = Callable[[ParamPoint], bool]


def _pairs(n):
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]


def _avoid_z_zero(p):
    return any(v == 0 for v in p.z)


def _avoid_zprime_zero(p):
    return any(p.zp(i) == 0 for i in range(1, p.n + 1))


def _avoid_equal_z(p):
    return len(set(p.z)) < p.n


def _avoid_r_denominators(p):
    """The loci read from the weight rules: the four crossings of two spectral
    parameters (R_FAMILIES[:4]) over ordered pairs (i, j) and the fish
    crossing at z_n.  Every other predicate holds a locus no rule has."""
    q, z = p.q, p.z
    return (denominator(Family.R_FISH, z[-1:], q) == 0
            or any(denominator(family, (z[i - 1], z[j - 1]), q) == 0
                   for i, j in _pairs(p.n) for family in R_FAMILIES[:4]))


def _avoid_collapse_denominators(p):
    """Loci no rule has: the collapse relation's q z_i + z_j' - (q+1) over
    ordered pairs (i, j), and the s_n fixed locus 1 - z_n z_n'."""
    q = p.q
    return (1 - p.z[-1] * p.zp(p.n) == 0
            or any(q * p.z[i - 1] + p.zp(j) - (q + 1) == 0 for i, j in _pairs(p.n)))


def _avoid_u_singular(p):
    """u_i undefined (z_i = 1), u_i = u_{i+1}, or u_n^2 = 1."""
    if any(v == 1 for v in p.z):
        return True
    q = p.q
    u = [(1 - q * v) / (1 - v) for v in p.z]
    if any(u[i] == u[i + 1] for i in range(len(u) - 1)):
        return True
    return u[-1] ** 2 == 1


DEFAULT_AVOID: tuple = (
    _avoid_z_zero,
    _avoid_zprime_zero,
    _avoid_equal_z,
    _avoid_r_denominators,
    _avoid_collapse_denominators,
    _avoid_u_singular,
)


def sample_point(
    n: int,
    seed: int,
    avoid: Iterable[Predicate] = DEFAULT_AVOID,
    sample_range: int = SAMPLE_RANGE,
) -> ParamPoint:
    """Deterministic random point with every avoid-predicate False.

    Numerators and denominators are drawn uniformly from 1..sample_range,
    so all coordinates are positive; q is drawn the same way but kept
    away from 0 and 1 (q = 1 degenerates several tables).  Identical
    seeds give bit-identical points.  Raises SamplingError once
    REJECTION_BUDGET candidate points have been rejected.
    """
    if n < 1:
        raise DomainError("need n >= 1")
    rng = random.Random(seed)
    avoid = tuple(avoid)

    def draw():
        return Fraction(rng.randint(1, sample_range), rng.randint(1, sample_range))

    for _ in range(REJECTION_BUDGET):
        q = draw()
        if q == 0 or q == 1:
            continue
        z = tuple(draw() for _ in range(n))
        if any(v == 0 for v in z):
            continue
        point = ParamPoint(z, q)
        if any(pred(point) for pred in avoid):
            continue
        return point
    raise SamplingError(f"no admissible point after {REJECTION_BUDGET} draws")


def sample_regime_point(n: int, seed: int) -> ParamPoint:
    """Random point inside the stochastic regime (all weights in [0, 1]).

    Draws q uniformly from (0, 1] and then z_i inside
    [max{0, 1/(q+1)}, min{1/q, 1}] by a rational convex combination.
    """
    rng = random.Random(seed)
    q = Fraction(rng.randint(1, 1000), 1000)
    lo = max(Fraction(0), Fraction(1) / (q + 1))
    hi = min(Fraction(1) / q, Fraction(1))
    z = []
    for _ in range(n):
        t = Fraction(rng.randint(0, 1000), 1000)
        z.append(lo + (hi - lo) * t)
    point = ParamPoint(tuple(z), q)
    if not in_stochastic_regime(point):
        raise SamplingError(f"drew {point}, which is outside the stochastic regime")
    return point
