"""Boltzmann weight tables for all four stochastic symplectic ice families.

Labels
------
Edge labels are small integers.  ``0`` is the empty label "+".  The two
colored families use the genuinely ordered alphabets

    signed:    -n < ... < -1 < 0 < 1 < ... < n      (colors c_a, a != 0)
    positive:   0 < 1 < ... < n

and their vertex weights depend only on the *relative order* of the labels
on the four edges.  The uncolored families use {0, -1} with ``-1`` encoding
the occupied label "-"; in the uncolored tables "-" plays the role of the
*larger* of the two labels, so internally the uncolored rank map sends
``0 -> 0, -1 -> 1`` and the same order-based weight rules serve all four
families.  (Restricting either colored table to {c_0, c_1} and reading
``c_1`` as "-" reproduces the uncolored tables entry by entry.)

Vertex geometry
---------------
Ordinary vertices carry four edges given in the slot order
``(left, top, right, bottom)``.  Crossing vertices (R-matrices) carry
``(sw, nw, ne, se)``: the SW-NE strand is the first-parameter strand and the
NW-SE strand the second-parameter strand.

Stochastic orientation (outputs given inputs sum to 1):

    Gamma vertex   inputs (left, top)   -> outputs (right, bottom)
    Delta vertex   inputs (right, top)  -> outputs (left, bottom)
    caps           input top            -> output bottom
    R Gamma-Gamma  inputs (sw, nw)      -> outputs (ne, se)
    R Delta-Gamma  inputs (nw, ne)      -> outputs (sw, se)
    R Delta-Delta  inputs (ne, se)      -> outputs (sw, nw)

The Gamma-Delta crossing is *not* stochastic: with top-pair inputs its two
mixed rows sum to q and 1/q.  It exists only for the uncolored families,
where it completes the set of crossings needed by the braid relations.

Order classes
-------------
A pattern is *listed* if it is all-equal, passes straight through
(a, b, a, b), or is its family's exchange: c-type (a, b, b, a) or d-type
(a, a, c, c); a cap lists (top, cap_map(top)).  Every other pattern has
weight exactly 0.  All-equal patterns and cap pairs weigh 1; any other listed weight depends only on the pattern's
order class: straight through or exchange, with the first label lower or
higher than the other.  So a family at one point takes at most four
further values, and ``_RULES`` maps each family to the one rule that
returns them as numerators over one denominator.  ``listed_patterns``
is the one place that lists patterns and names their classes; it holds no
parameter, so it is memoised on (model, family, letters).
A rule runs on ``_Ratio``s, unreduced (numerator, denominator) pairs of
ints that take no gcd per operation; ``integer_classes`` reduces its
results once, by one gcd, to each used class's weight times ``den`` (the
lcm of the class weights' denominators) and ``den`` itself.
``integer_table`` (diagram nodes; lattice rows fill the same listing) gives
each listed pattern its class's integer, with no ``Fraction`` per entry;
``pattern_table`` divides those integers by ``den`` and serves
``stochastic_row_sums``; ``vertex_weight`` is the same listing restricted
to one pattern; ``denominator`` reads the rule's denominator through the
same unreduced evaluation.

The rules are the one place that knows where a family is undefined:
where its denominator vanishes (``denominator``), ``pattern_table``,
``integer_table`` and ``vertex_weight`` raise ``DomainError`` naming the
family and the point.
Weight-1 and unlisted patterns need no rule and keep their values there.

All tables are pure functions of immutable arguments; share freely across
threads.
"""

from __future__ import annotations

import enum
import functools
import math
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class Model(enum.Enum):
    UNCOLORED_REFLECTING = "uncolored-reflecting"
    UNCOLORED_ABSORBING = "uncolored-absorbing"
    COLORED_SIGNED = "colored-signed"
    COLORED_POSITIVE = "colored-positive"

    @property
    def colored(self) -> bool:
        return self in (Model.COLORED_SIGNED, Model.COLORED_POSITIVE)


class Family(enum.Enum):
    """Vertex families.  R_* are crossings; the rest are 4- or 2-edge nodes."""

    GAMMA = "gamma"
    DELTA = "delta"
    CAP = "cap"                # the model's own U-turn cap
    NEW_CAP = "new-cap"        # the flipped cap used by the fish relation
    R_GAMMA_GAMMA = "r-gg"
    R_DELTA_GAMMA = "r-dg"
    R_DELTA_DELTA = "r-dd"
    R_GAMMA_DELTA = "r-gd"     # uncolored families only
    LEMMA_S = "lemma-s"        # free-parameter tables of the auxiliary
    LEMMA_T = "lemma-t"        # braid relation (parameters t1, t2)
    R_LEMMA = "r-lemma"
    R_FISH = "r-fish"          # = R_LEMMA at t1 = 1/(q z), t2 = z'/q


R_FAMILIES = (
    Family.R_GAMMA_GAMMA,
    Family.R_DELTA_GAMMA,
    Family.R_DELTA_DELTA,
    Family.R_GAMMA_DELTA,
    Family.R_LEMMA,
    Family.R_FISH,
)

#: Families whose rows are stochastic, with their input-slot indices.
#: Slot order is (left, top, right, bottom) for vertices, (sw, nw, ne, se)
#: for crossings and (top, bottom) for caps.
STOCHASTIC_INPUT_SLOTS = {
    Family.GAMMA: (0, 1),
    Family.DELTA: (2, 1),
    Family.CAP: (0,),
    Family.NEW_CAP: (0,),
    Family.R_GAMMA_GAMMA: (0, 1),
    Family.R_DELTA_GAMMA: (1, 2),
    Family.R_DELTA_DELTA: (2, 3),
}


class UsageError(ValueError):
    """Arguments inconsistent with the requested table."""


class DomainError(ValueError):
    """An operation was applied outside its mathematical domain."""


def alphabet(model: Model, n: int) -> tuple:
    """The edge-label alphabet of a model with n row pairs."""
    if model.colored:
        if model is Model.COLORED_SIGNED:
            return tuple(range(-n, n + 1))
        return tuple(range(0, n + 1))
    return (-1, 0)


def rank(model: Model, label: int) -> int:
    """Order of a label inside its model's alphabet (see module docstring)."""
    if model.colored:
        return label
    return 1 if label == -1 else 0


def cap_map(model: Model, top: int) -> int:
    """The label emitted at the bottom of a cap given the top label."""
    if model is Model.UNCOLORED_REFLECTING:
        return top
    if model is Model.UNCOLORED_ABSORBING:
        return -1 - top          # swaps 0 and -1
    if model is Model.COLORED_SIGNED:
        return -top
    return top                   # positive colors bounce back unchanged


def new_cap_map(model: Model, top: int) -> int:
    """Fish-relation cap: the spin flip of the model's own cap."""
    if model is Model.UNCOLORED_REFLECTING:
        return -1 - top
    if model is Model.UNCOLORED_ABSORBING:
        return top
    raise UsageError("the fish relation exists only for the uncolored models")


def cap_weight(model: Model, top: int, bottom: int) -> Fraction:
    """1 on the model's listed (top, bottom) pairs, else 0."""
    return ONE if cap_map(model, top) == bottom else ZERO


# ---------------------------------------------------------------------------
# Order-class weight rules (see the module docstring).  Each returns the
# family's four class numerators and their one denominator, polynomials in
# the parameters and q:
#
#     (straight lower, straight higher, exchange lower, exchange higher), den
#
# where "straight" is (a, b, a, b), "exchange" is (a, b, b, a) or
# (a, a, c, c), and lower/higher compares the rank of a with that of b or c.
# A rule written in z' = q + 1 - 1/z keeps z in its denominator, one dividing
# by q keeps q: the family is singular exactly where den vanishes.  An exchange
# numerator that differs from a straight one by a multiple of den is so written.
# ---------------------------------------------------------------------------

def _gamma(z, q):
    # (left, top, right, bottom)
    return (z, q * z, 1 - z, 1 - q * z), 1


def _delta(z, q):
    # (left, top, right, bottom); z' = p / z
    qz = q * z
    p = qz + z - 1
    qp = q * p
    return (qp, p, qz - p, qz - qp), qz


def _r_gg(zi, zj, q):
    # (sw, nw, ne, se); c-type exchanges
    den = 1 - (q + 1) * zj + q * zi * zj
    num = zi - zj
    qnum = q * num
    return (num, qnum, den - num, den - qnum), den


def _r_dg(zi, zj, q):
    # (sw, nw, ne, se); d-type exchanges; den = q z_i^2 (1 - z_i' z_j)
    den = q * zi * (zi + zj - (q + 1) * zi * zj)
    num = den - zi * (1 - zi) * (1 - zj)
    qnum = q * num
    return (qnum, num, den - num, den - qnum), den


def _r_dd(zi, zj, q):
    # (sw, nw, ne, se); c-type exchanges; den = (z_i z_j)^2 (q - (q+1) z_i' + z_i' z_j')
    zz = zi * zj
    den = zz * (1 - (q + 1) * zi + q * zz)
    num = zz * (zj - zi)
    qnum = q * num
    return (num, qnum, den - qnum, den - num), den


def _r_gd(zi, zj, q):
    # (sw, nw, ne, se); d-type; rows sum to q and 1/q; den = -q z_j^2 (z_i z_j' - 1)
    zjd = zj * (zi + zj - (q + 1) * zi * zj)
    den = q * zjd
    num = zj * (1 - q * zi * zj)
    qnum = q * num
    return (qnum, num, zjd - num, q * den - qnum), den


def _lemma_s(t1, q):
    return (q * t1, t1, t1 - 1, q * t1 - 1), 1


def _lemma_t(t2, q):
    return (q * t2, t2, 1 - t2, 1 - q * t2), 1


def _r_lemma(t1, t2, q):
    den = 1 - (q + 1) * t1 + q * t1 * t2
    num = t2 - t1
    qnum = q * num
    return (num, qnum, qnum - den, num - den), den


def _r_fish(z, q):
    # _r_lemma at t1 = 1/(q z), t2 = z'/q, times q^2 z^3
    qzz = q * z * z
    den = q * z * (qzz - 1)
    num = qzz * ((q + 1) * z - 2)
    qnum = q * num
    return (num, qnum, qnum - den, num - den), den


#: family -> (order-class rule, number of parameters, d-type exchange).
#: d-type exchanges keep the left pair and the right pair equal; the other
#: four-edge families exchange c-type (right pair = left pair read
#: crosswise).  Caps have no rule: their listed patterns weigh 1.
_RULES = {
    Family.GAMMA: (_gamma, 1, False),
    Family.DELTA: (_delta, 1, True),
    Family.CAP: (None, 0, False),
    Family.NEW_CAP: (None, 0, False),
    Family.R_GAMMA_GAMMA: (_r_gg, 2, False),
    Family.R_DELTA_GAMMA: (_r_dg, 2, True),
    Family.R_DELTA_DELTA: (_r_dd, 2, False),
    Family.R_GAMMA_DELTA: (_r_gd, 2, True),
    Family.LEMMA_S: (_lemma_s, 1, True),
    Family.LEMMA_T: (_lemma_t, 1, True),
    Family.R_LEMMA: (_r_lemma, 2, False),
    Family.R_FISH: (_r_fish, 1, False),
}


# ---------------------------------------------------------------------------
# Public lookup
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def listed_patterns(model: Model, family: Family, letters: tuple) -> tuple:
    """``(edges, order class)`` of every listed pattern over ``letters``,
    grouped by its first two labels in letter order.  The class indexes
    the family rule's four weights, or is None for a pattern of weight 1
    (all-equal, or a cap's pair).  Within a group the straight-through
    pattern comes before the exchange; a d-type group with equal first
    labels lists (a, a, c, c) for every c in letter order.  Lattice rows
    keep this order, so the state stream and the sampler's thresholds
    rest on it.  The listing holds no parameter, so it is memoised on its
    structural key."""
    if family in (Family.CAP, Family.NEW_CAP):
        emit = cap_map if family is Family.CAP else new_cap_map
        return tuple(((top, emit(model, top)), None) for top in letters
                     if emit(model, top) in letters)
    d_type = _RULES[family][2]
    ranks = {label: rank(model, label) for label in letters}
    listed = []
    for a in letters:
        for b in letters:
            if a != b:
                higher = ranks[a] > ranks[b]
                listed.append(((a, b, a, b), higher))
                if not d_type:
                    listed.append(((a, b, b, a), 2 + higher))
            elif d_type:
                listed.extend(((a, a, c, c), None if c == a else 2 + (ranks[a] > ranks[c]))
                              for c in letters)
            else:
                listed.append(((a, a, a, a), None))
    return tuple(listed)


def _checked_params(model: Model, family: Family, params) -> tuple:
    """``params`` as a tuple, once checked against the family."""
    params = tuple(params)
    arity = _RULES[family][1]
    if len(params) != arity:
        raise UsageError(f"{family.value} takes {arity} parameter(s), got {len(params)}")
    if family is Family.R_GAMMA_DELTA and model.colored:
        raise UsageError("the colored families have no Gamma-Delta crossing")
    return params


class _Ratio:
    """A rational as an unreduced pair of ints (numerator, denominator > 0).

    The rules run on it: it adds, subtracts and multiplies with ints,
    ``Fraction``s and itself, and never takes a gcd.  ``_class_ints``
    reduces a rule's results once.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int):
        self.num, self.den = num, den

    def __add__(self, other):
        if type(other) is int:
            return _Ratio(self.num + other * self.den, self.den)
        num, den = _pair(other)
        if den == self.den:
            return _Ratio(self.num + num, den)
        return _Ratio(self.num * den + num * self.den, self.den * den)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is int:
            return _Ratio(self.num - other * self.den, self.den)
        num, den = _pair(other)
        if den == self.den:
            return _Ratio(self.num - num, den)
        return _Ratio(self.num * den - num * self.den, self.den * den)

    def __rsub__(self, other):
        if type(other) is int:
            return _Ratio(other * self.den - self.num, self.den)
        num, den = _pair(other)
        if den == self.den:
            return _Ratio(num - self.num, den)
        return _Ratio(num * self.den - self.num * den, self.den * den)

    def __mul__(self, other):
        if type(other) is int:
            return _Ratio(self.num * other, self.den)
        num, den = _pair(other)
        return _Ratio(self.num * num, self.den * den)

    __rmul__ = __mul__


def _pair(value) -> tuple:
    """(numerator, denominator) of an int, a ``Fraction`` or a ``_Ratio``."""
    if type(value) is _Ratio:
        return value.num, value.den
    return value.numerator, value.denominator


def _rule_values(family: Family, params, q) -> tuple:
    """The family rule at ``(params, q)`` on ``_Ratio``s: its four class
    numerators and its denominator, unreduced."""
    return _RULES[family][0](*(_Ratio(p.numerator, p.denominator) for p in params),
                             _Ratio(q.numerator, q.denominator))


def _class_ints(family: Family, params, q, used) -> dict:
    """``{order class: int}`` over the classes ``used``, and None -> den.

    Class k weighs w_k = N_k / D once the rule's values are put over one
    denominator D; with g = gcd(D, N_k over ``used``), den = |D| / g (1 if
    nothing is used) is the lcm of the reduced denominators of the w_k, and
    class k's int is w_k * den = +-N_k / g.  DomainError where the rule's
    denominator vanishes.
    """
    if not used:
        return {None: 1}
    nums, den = _rule_values(family, params, q)
    den_num, den_den = _pair(den)
    if den_num == 0:
        raise DomainError(f"singular point: {family.value} weights undefined at "
                          f"({', '.join(map(str, params))}), q = {q}")
    pairs = {order: _pair(nums[order]) for order in used}
    common = math.prod({d for _, d in pairs.values()})
    shared = common * den_num
    ints = {order: num * (common // d) * den_den for order, (num, d) in pairs.items()}
    g = math.gcd(shared, *ints.values())
    if shared < 0:
        g = -g
    ints = {order: num // g for order, num in ints.items()}
    ints[None] = shared // g
    return ints


@functools.lru_cache(maxsize=None)
def _used_classes(model: Model, family: Family, letters: tuple) -> tuple:
    """The order classes that the listing over ``letters`` uses."""
    return tuple(sorted({order for _, order in listed_patterns(model, family, letters)}
                        - {None}))


def integer_classes(model: Model, family: Family, params, q, letters) -> dict:
    """``{order class: int}`` for the classes that the listing over
    ``letters`` uses, each weight times ``den``, and None -> ``den``, the
    lcm of their denominators (1 if the listing uses none).  The rule is
    evaluated once, unreduced, and reduced by one gcd.  DomainError where
    its denominator vanishes, unless the listing uses no class."""
    params = _checked_params(model, family, params)
    return _class_ints(family, params, q, _used_classes(model, family, tuple(letters)))


def denominator(family: Family, params, q) -> Fraction:
    """The family rule's denominator: the family is singular where it vanishes."""
    den = _rule_values(family, params, q)[1]
    return den if type(den) is int else Fraction(*_pair(den))


def pattern_table(model: Model, family: Family, params, q, letters) -> dict:
    """``{edges: exact weight}`` for every listed pattern over ``letters``.

    A pattern is listed if it is all-equal, passes straight through, or is
    the family's c- or d-type exchange (caps: ``cap_map``/``new_cap_map``);
    every other pattern has weight exactly 0.  The family's order-class
    rule is evaluated at most once per call, and listed patterns whose
    weight is 0 at a degenerate parameter point are kept.  Edge tuples and
    ``params`` are as in ``vertex_weight``.  Raises DomainError where the
    rule's denominator vanishes, unless every listed pattern weighs 1.
    """
    letters = tuple(letters)
    ints = integer_classes(model, family, params, q, letters)
    weights = {order: Fraction(w, ints[None]) for order, w in ints.items()}
    return {edges: weights[order] for edges, order in listed_patterns(model, family, letters)}


def integer_table(model: Model, family: Family, params, q, letters) -> tuple:
    """``(table, den)``: ``pattern_table`` times ``den`` on integer numerators,
    in listing order with zero weights kept.  ``den`` and each class's int
    are ``integer_classes``, and a weight-1 pattern weighs ``den``;
    DomainError as for ``pattern_table``."""
    letters = tuple(letters)
    ints = integer_classes(model, family, params, q, letters)
    return filled_table(model, family, letters, ints), ints[None]


def filled_table(model: Model, family: Family, letters: tuple, ints: dict) -> dict:
    """The listing over ``letters``, each pattern weighing its class's int
    in ``ints`` (as ``integer_classes`` gives them)."""
    return {edges: ints[order] for edges, order in listed_patterns(model, family, letters)}


def vertex_weight(model: Model, family: Family, edges, params, q) -> Fraction:
    """Exact table value for one vertex; 0 for any unlisted pattern.

    ``edges`` is the 4-tuple (left, top, right, bottom) for ordinary
    vertices, (sw, nw, ne, se) for crossings, or the 2-tuple (top, bottom)
    for caps.  ``params`` carries the spectral (or free) parameters:

        GAMMA/DELTA       (z,)
        R_*               (z_i, z_j)
        LEMMA_S/LEMMA_T   (t,)
        R_LEMMA           (t1, t2)
        R_FISH            (z,)
        CAP/NEW_CAP       ()

    The pattern is looked up in the listing over its own labels, so the
    rule runs only for a listed pattern that is not all-equal, and only
    such a pattern raises DomainError where the rule's denominator vanishes.
    """
    params = _checked_params(model, family, params)
    edges = tuple(edges)
    # not memoised: the label sets of single patterns are many, and no table reads them
    for listed, order in listed_patterns.__wrapped__(model, family, tuple(dict.fromkeys(edges))):
        if listed == edges:
            if order is None:
                return ONE
            ints = _class_ints(family, params, q, (order,))
            return Fraction(ints[order], ints[None])
    return ZERO


def stochastic_row_sums(model: Model, family: Family, params, q, n: int = 2) -> dict:
    """``{inputs: sum of the listed weights with those input labels}``.

    One ``pattern_table`` over ``alphabet(model, n)``, summed by the input
    slots of ``STOCHASTIC_INPUT_SLOTS``; an input tuple with no listed
    pattern is absent (its sum is 0).  Families without a stochastic input
    convention raise UsageError.
    """
    if family not in STOCHASTIC_INPUT_SLOTS:
        raise UsageError(f"{family.value} has no stochastic input convention")
    in_slots = STOCHASTIC_INPUT_SLOTS[family]
    sums: dict = {}
    for edges, w in pattern_table(model, family, params, q, alphabet(model, n)).items():
        inputs = tuple(edges[s] for s in in_slots)
        sums[inputs] = sums.get(inputs, ZERO) + w
    return sums


def stochastic_row_check(model: Model, family: Family, inputs, params, q, n: int = 2) -> Fraction:
    """Sum of the weights of the listed patterns with the given input labels.

    The contract (value exactly 1) holds for every family listed in
    STOCHASTIC_INPUT_SLOTS; other families, a wrong number of inputs and
    labels outside ``alphabet(model, n)`` raise UsageError.
    """
    if family not in STOCHASTIC_INPUT_SLOTS:
        raise UsageError(f"{family.value} has no stochastic input convention")
    letters = alphabet(model, n)
    in_slots = STOCHASTIC_INPUT_SLOTS[family]
    inputs = tuple(inputs)
    if len(inputs) != len(in_slots):
        raise UsageError(f"{family.value} takes {len(in_slots)} input label(s), got {len(inputs)}")
    if any(label not in letters for label in inputs):
        raise UsageError(f"input labels {inputs} are not all in the alphabet {letters}")
    return stochastic_row_sums(model, family, params, q, n).get(inputs, ZERO)
