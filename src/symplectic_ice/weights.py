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

Any label pattern not *listed* by the rules below has weight exactly 0.
``pattern_table`` is the one place that lists them (with their weights)
for lattice rows, wiring-diagram nodes and ``stochastic_row_sums``;
``vertex_weight`` is the per-pattern rule it evaluates.

All tables are pure functions of immutable arguments; share freely across
threads.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .rationals import zprime

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
# Order-based weight rules.  Arguments a, b, c, d are already ranks.
# ---------------------------------------------------------------------------

def _gamma(a, b, c, d, z, q):
    # (left, top, right, bottom)
    if a == b == c == d:
        return ONE
    if (a, b) == (c, d) and a != b:
        return z if a < b else q * z
    if (a, b) == (d, c) and a != b:
        return 1 - q * z if a > b else 1 - z
    return ZERO


def _delta(a, b, c, d, zp, q):
    # (left, top, right, bottom)
    if a == b == c == d:
        return ONE
    if (a, b) == (c, d) and a != b:
        return zp if a < b else zp / q
    if a == b and c == d and a != c:
        return 1 - zp if a > c else 1 - zp / q
    return ZERO


def _r_gg(a, b, c, d, zi, zj, q):
    # (sw, nw, ne, se); c-type exchanges
    den = 1 - (q + 1) * zj + q * zi * zj
    if a == b == c == d:
        return ONE
    if (a, b) == (c, d) and a != b:
        num = zi - zj
        return num / den if a < b else q * num / den
    if (a, b) == (d, c) and a != b:
        if a > b:
            return (1 - q * zi) * (1 - zj) / den
        return (1 - zi) * (1 - q * zj) / den
    return ZERO


def _r_dg(a, b, c, d, zpi, zj, q):
    # (sw, nw, ne, se); d-type exchanges
    den = 1 - zpi * zj
    if a == b == c == d:
        return ONE
    if (a, b) == (c, d) and a != b:
        if a < b:
            return (zpi + q * zj - (q + 1) * zpi * zj) / den
        return (zpi / q + zj - (1 + 1 / q) * zpi * zj) / den
    if a == b and c == d and a != c:
        if a > c:
            return (1 - zpi) * (1 - q * zj) / den
        return (1 - zpi / q) * (1 - zj) / den
    return ZERO


def _r_dd(a, b, c, d, zpi, zpj, q):
    # (sw, nw, ne, se); c-type exchanges
    den = q - (q + 1) * zpi + zpi * zpj
    if a == b == c == d:
        return ONE
    if (a, b) == (c, d) and a != b:
        num = zpj - zpi
        return num / den if a < b else q * num / den
    if (a, b) == (d, c) and a != b:
        if a > b:
            return (1 - zpi) * (q - zpj) / den
        return (1 - zpj) * (q - zpi) / den
    return ZERO


def _r_gd(a, b, c, d, zi, zpj, q):
    # (sw, nw, ne, se); d-type exchanges; not stochastic
    den = zi * zpj - 1
    if a == b == c == d:
        return ONE
    if (a, b) == (c, d) and a != b:
        num = q * zi + zpj - (1 + q)
        return num / den if a < b else num / (q * den)
    if a == b and c == d and a != c:
        if a > c:
            return (1 - q * zi) * (1 - zpj) / den
        return (1 - zi) * (q - zpj) / (q * den)
    return ZERO


def _lemma_s(a, b, c, d, t1, q):
    if a == b == c == d:
        return ONE
    if (a, b) == (c, d) and a != b:
        return q * t1 if a < b else t1
    if a == b and c == d and a != c:
        return q * t1 - 1 if a > c else t1 - 1
    return ZERO


def _lemma_t(a, b, c, d, t2, q):
    if a == b == c == d:
        return ONE
    if (a, b) == (c, d) and a != b:
        return q * t2 if a < b else t2
    if a == b and c == d and a != c:
        return 1 - q * t2 if a > c else 1 - t2
    return ZERO


def _r_lemma(a, b, c, d, t1, t2, q):
    den = 1 - (q + 1) * t1 + q * t1 * t2
    if a == b == c == d:
        return ONE
    if (a, b) == (c, d) and a != b:
        num = t2 - t1
        return num / den if a < b else q * num / den
    if (a, b) == (d, c) and a != b:
        if a > b:
            return -(1 - t2) * (1 - q * t1) / den
        return -(1 - t1) * (1 - q * t2) / den
    return ZERO


# ---------------------------------------------------------------------------
# Public lookup
# ---------------------------------------------------------------------------

_PARAM_ARITY = {
    Family.GAMMA: 1,
    Family.DELTA: 1,
    Family.CAP: 0,
    Family.NEW_CAP: 0,
    Family.R_GAMMA_GAMMA: 2,
    Family.R_DELTA_GAMMA: 2,
    Family.R_DELTA_DELTA: 2,
    Family.R_GAMMA_DELTA: 2,
    Family.LEMMA_S: 1,
    Family.LEMMA_T: 1,
    Family.R_LEMMA: 2,
    Family.R_FISH: 1,
}


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
    """
    params = tuple(params)
    if len(params) != _PARAM_ARITY[family]:
        raise UsageError(f"{family.value} takes {_PARAM_ARITY[family]} parameter(s), got {len(params)}")

    if family is Family.CAP:
        return cap_weight(model, *edges)
    if family is Family.NEW_CAP:
        top, bottom = edges
        return ONE if new_cap_map(model, top) == bottom else ZERO

    if family is Family.R_GAMMA_DELTA and model.colored:
        raise UsageError("the colored families have no Gamma-Delta crossing")

    r = [rank(model, e) for e in edges]
    if family is Family.GAMMA:
        return _gamma(*r, params[0], q)
    if family is Family.DELTA:
        return _delta(*r, zprime(params[0], q), q)
    if family is Family.R_GAMMA_GAMMA:
        return _r_gg(*r, params[0], params[1], q)
    if family is Family.R_DELTA_GAMMA:
        return _r_dg(*r, zprime(params[0], q), params[1], q)
    if family is Family.R_DELTA_DELTA:
        return _r_dd(*r, zprime(params[0], q), zprime(params[1], q), q)
    if family is Family.R_GAMMA_DELTA:
        return _r_gd(*r, params[0], zprime(params[1], q), q)
    if family is Family.LEMMA_S:
        return _lemma_s(*r, params[0], q)
    if family is Family.LEMMA_T:
        return _lemma_t(*r, params[0], q)
    if family is Family.R_LEMMA:
        return _r_lemma(*r, params[0], params[1], q)
    if family is Family.R_FISH:
        z = params[0]
        return _r_lemma(*r, 1 / (q * z), zprime(z, q) / q, q)
    raise UsageError(f"unknown family {family}")


#: Families whose exchange patterns are d-type (left pair equal, right pair
#: equal); the other four-edge families exchange c-type (right pair = left
#: pair read crosswise).
_D_TYPE = (Family.DELTA, Family.R_DELTA_GAMMA, Family.R_GAMMA_DELTA,
           Family.LEMMA_S, Family.LEMMA_T)


def _listed_patterns(model: Model, family: Family, letters):
    """Every listed pattern over ``letters``, grouped by its first two
    labels in letter order.  Within a group the straight-through pattern
    comes before the exchange; a d-type group with equal first labels
    lists (a, a, c, c) for every c in letter order.  Lattice rows keep
    this order, so the state stream and the sampler's thresholds rest on
    it."""
    if family in (Family.CAP, Family.NEW_CAP):
        emit = cap_map if family is Family.CAP else new_cap_map
        for top in letters:
            if emit(model, top) in letters:
                yield top, emit(model, top)
        return
    d_type = family in _D_TYPE
    for a in letters:
        for b in letters:
            if a != b:
                yield a, b, a, b
                if not d_type:
                    yield a, b, b, a
            elif d_type:
                yield from ((a, a, c, c) for c in letters)
            else:
                yield a, a, a, a


def pattern_table(model: Model, family: Family, params, q, letters) -> dict:
    """``{edges: exact weight}`` for every listed pattern over ``letters``.

    A pattern is listed if it is all-equal, passes straight through, or is
    the family's c- or d-type exchange (caps: ``cap_map``/``new_cap_map``);
    every other pattern has weight exactly 0.  ``vertex_weight`` is called
    once per listed pattern, and listed patterns whose weight is 0 at a
    degenerate parameter point are kept.  Edge tuples and ``params`` are
    as in ``vertex_weight``.
    """
    return {edges: vertex_weight(model, family, edges, params, q)
            for edges in _listed_patterns(model, family, letters)}


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
