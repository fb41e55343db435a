"""Machine verification of the local identities satisfied by the models.

Every verifier sweeps all boundary label combinations of a pair of wiring
diagrams at one exact parameter point and compares the two sides exactly:
each side is an integer total over one common denominator
(``diagram.contract``), and the comparison cross-multiplies integers.
There is no tolerance anywhere in this module.  A report collects the
sweep size and every failing boundary with both values as Fractions, so a
single failure yields a minimal counterexample.

Each verifier builds its two diagrams and returns one sweep.  None holds
a denominator: a point singular for a node the diagrams contract raises
DomainError from ``weights.pattern_table``, or from the relation's scalar
(``diagram.caduceus_scalar``, ``diagram.fish_scalar``), evaluated first.

Color reductions follow the structure of the identities: crossing weights
depend only on the relative order of the labels, and color conservation
bounds how many distinct colors can meet any one configuration, so the
crossing identities are checked over a 4-label alphabet, the cap-braid
identity of the signed family over 5 labels and of the positive family
over 3 labels.  A ``paranoid`` flag widens each alphabet by one label.

Boundary sweeps are embarrassingly parallel across points; reports merge
associatively via ``RelationReport.merge``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import diagram as dg
from .rationals import ParamPoint
from .weights import Family, Model, UsageError


@dataclass
class RelationReport:
    relation: str
    points_tested: int = 0
    combos_tested: int = 0
    failures: list = field(default_factory=list)   # (point, boundary or case, lhs, rhs)

    @property
    def passed(self) -> bool:
        return not self.failures

    def merge(self, other: "RelationReport") -> "RelationReport":
        if self.relation != other.relation:
            raise ValueError(f"cannot merge a {other.relation} report into a {self.relation} report")
        return RelationReport(self.relation,
                              self.points_tested + other.points_tested,
                              self.combos_tested + other.combos_tested,
                              self.failures + other.failures)


def _sweep(name, diag_l, diag_r, q, point, scale=1) -> RelationReport:
    """The report of ``lhs == scale * rhs`` at every boundary, one point.

    Both sides come from ``diagram.contract`` as integer totals over one
    denominator each, so ``a/dl == s * b/dr`` is tested as the integer
    equation ``a * dr * s.den == b * dl * s.num``, over the union of the
    two key sets; only the failing boundaries are sorted, and each records
    both values as Fractions.  The nodes both sides share are
    built once, for this sweep only.
    """
    tables: dict = {}
    lhs, dl = dg.contract(diag_l, q, tables=tables)
    rhs, dr = dg.contract(diag_r, q, tables=tables)
    s = Fraction(scale)
    left, right = dr * s.denominator, dl * s.numerator
    report = RelationReport(name, 1, len(diag_l.alphabet) ** len(diag_l.boundary))
    failing = sorted(key for key in lhs.keys() | rhs.keys()
                     if lhs.get(key, 0) * left != rhs.get(key, 0) * right)
    for key in failing:
        report.failures.append((point, key, Fraction(lhs.get(key, 0), dl),
                                s * Fraction(rhs.get(key, 0), dr)))
    return report


def verify_ybe_uncolored(X: Family, Y: Family, point: ParamPoint,
                         model: Model = Model.UNCOLORED_REFLECTING) -> RelationReport:
    """The crossing identity for ordinary vertices X(z_1), Y(z_2): all 64
    boundary spin combinations agree between the left and right braidings."""
    zi, zj = point.z[0], point.z[1]
    return _sweep(f"ybe-{_letter(X)}{_letter(Y)}",
                  dg.ybe_left(model, 1, X, Y, zi, zj), dg.ybe_right(model, 1, X, Y, zi, zj),
                  point.q, point)


def _letter(fam: Family) -> str:
    return {Family.GAMMA: "g", Family.DELTA: "d"}[fam]


def verify_ybe_lemma(t1: Fraction, t2: Fraction, q: Fraction) -> RelationReport:
    """The free-parameter crossing identity: tables S(t1), T(t2) and their
    crossing agree on all 64 boundary combinations."""
    fams = (Family.LEMMA_S, Family.LEMMA_T, Family.R_LEMMA)
    model = Model.UNCOLORED_REFLECTING
    return _sweep("ybe-lemma",
                  dg.ybe_left(model, 1, Family.GAMMA, Family.GAMMA, t1, t2, families=fams),
                  dg.ybe_right(model, 1, Family.GAMMA, Family.GAMMA, t1, t2, families=fams),
                  q, (t1, t2, q))


def verify_caduceus(point: ParamPoint, cap: str) -> RelationReport:
    """Four-crossing braid against two bare caps, proportionality factor

        (q z_i z_j - 1)(1 - (q+1)(z_i+z_j) + (q^2+q+1) z_i z_j)
        -----------------------------------------------------------
                   q (z_i + z_j - (q+1) z_i z_j)^2

    for both cap choices, over all 16 boundary combinations.
    """
    model = _cap_model(cap)
    zi, zj = point.z[0], point.z[1]
    return _sweep(f"caduceus-{cap}", dg.caduceus_lhs(model, zi, zj), dg.caduceus_rhs(model),
                  point.q, point, scale=dg.caduceus_scalar(zi, zj, point.q))


def _cap_model(cap: str) -> Model:
    try:
        return {"reflecting": Model.UNCOLORED_REFLECTING,
                "absorbing": Model.UNCOLORED_ABSORBING}[cap]
    except KeyError:
        raise UsageError(f"cap must be 'reflecting' or 'absorbing', got {cap!r}")


def verify_fish(point: ParamPoint, cap: str) -> RelationReport:
    """One crossing collapsing against the flipped cap.  The reflecting
    factor is -(z_n' - (q+1) z_n z_n' + q z_n)/(z_n' - (q+1) + q z_n); the
    absorbing factor is 1."""
    model = _cap_model(cap)
    z = point.z[-1]
    return _sweep(f"fish-{cap}", dg.fish_lhs(model, z), dg.fish_rhs(model),
                  point.q, point, scale=dg.fish_scalar(model, z, point.q))


def _colored_model(name: str) -> Model:
    try:
        return {"signed": Model.COLORED_SIGNED,
                "positive": Model.COLORED_POSITIVE}[name]
    except KeyError:
        raise UsageError(f"model must be 'signed' or 'positive', got {name!r}")


def _reduction_alphabet(model: Model, size: int) -> tuple:
    """``size`` consecutive labels around 0 (only relative order matters):
    {-1, 0, 1, 2} at size 4 signed, {-2..2} at size 5, {0..size-1} positive."""
    if model is Model.COLORED_POSITIVE:
        return tuple(range(0, size))
    neg = (size - 1) // 2
    return tuple(range(-neg, size - neg))


def verify_ybe_colored(model_name: str, X: Family, Y: Family, point: ParamPoint,
                       paranoid: bool = False) -> RelationReport:
    """Colored crossing identity for (X, Y) in {(Delta,Gamma), (Gamma,Gamma),
    (Delta,Delta)} over a 4-label alphabet (4^6 boundary combinations).
    The colored families have no Gamma-Delta crossing: that pair raises
    UsageError from the weights."""
    model = _colored_model(model_name)
    zi, zj = point.z[0], point.z[1]
    letters = _reduction_alphabet(model, 5 if paranoid else 4)
    n_big = max(abs(l) for l in letters)
    return _sweep(f"ybe-colored-{model_name}-{_letter(X)}{_letter(Y)}",
                  dg.ybe_left(model, n_big, X, Y, zi, zj).restricted(letters),
                  dg.ybe_right(model, n_big, X, Y, zi, zj).restricted(letters),
                  point.q, point)


def verify_reflection(model_name: str, point: ParamPoint,
                      paranoid: bool = False) -> RelationReport:
    """Cap-braid identity: the two double-crossing configurations agree for
    every boundary word (5 labels signed, 3 labels positive).

    The signed alphabet must stay closed under the cap's color negation,
    so the paranoid widening adds a +/- pair there (5 -> 7 labels) and a
    single label for the positive family (3 -> 4).
    """
    model = _colored_model(model_name)
    zi, zj = point.z[0], point.z[1]
    if model is Model.COLORED_SIGNED:
        size = 7 if paranoid else 5
    else:
        size = 4 if paranoid else 3
    letters = _reduction_alphabet(model, size)
    n_big = max(abs(l) for l in letters)
    return _sweep(f"reflection-{model_name}",
                  dg.reflection_lhs(model, n_big, zi, zj).restricted(letters),
                  dg.reflection_rhs(model, n_big, zi, zj).restricted(letters),
                  point.q, point)
