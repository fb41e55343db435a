import itertools
import math
import random
from fractions import Fraction as F

import pytest

from symplectic_ice.rationals import (DEFAULT_AVOID, DomainError, ParamPoint, sample_point,
                                      sample_regime_point, zprime)
from symplectic_ice.weights import (_RULES, Family, Model, R_FAMILIES, STOCHASTIC_INPUT_SLOTS,
                                    UsageError, alphabet, cap_weight, denominator,
                                    integer_table, listed_patterns, pattern_table,
                                    stochastic_row_check,
                                    stochastic_row_sums, vertex_weight)

UR, UA = Model.UNCOLORED_REFLECTING, Model.UNCOLORED_ABSORBING
CS, CP = Model.COLORED_SIGNED, Model.COLORED_POSITIVE

Q = F(7, 3)
Z = F(2, 5)
MINUS = -1


def w(model, fam, edges, params=(Z,), q=Q):
    return vertex_weight(model, fam, edges, params, q)


class TestOrdinaryTables:
    def test_gamma_table_values(self):
        zp = None
        # (left, top, right, bottom); '-' encoded as -1
        assert w(UR, Family.GAMMA, (0, 0, 0, 0)) == 1
        assert w(UR, Family.GAMMA, (-1, -1, -1, -1)) == 1
        assert w(UR, Family.GAMMA, (0, -1, 0, -1)) == Z
        assert w(UR, Family.GAMMA, (-1, 0, -1, 0)) == Q * Z
        assert w(UR, Family.GAMMA, (-1, 0, 0, -1)) == 1 - Q * Z
        assert w(UR, Family.GAMMA, (0, -1, -1, 0)) == 1 - Z

    def test_delta_table_values(self):
        zp = zprime(Z, Q)
        assert w(UR, Family.DELTA, (0, 0, 0, 0)) == 1
        assert w(UR, Family.DELTA, (-1, -1, -1, -1)) == 1
        assert w(UR, Family.DELTA, (0, -1, 0, -1)) == zp
        assert w(UR, Family.DELTA, (-1, 0, -1, 0)) == zp / Q
        assert w(UR, Family.DELTA, (-1, -1, 0, 0)) == 1 - zp
        assert w(UR, Family.DELTA, (0, 0, -1, -1)) == 1 - zp / Q

    def test_unlisted_patterns_are_zero(self):
        assert w(UR, Family.GAMMA, (0, 0, -1, -1)) == 0
        assert w(UR, Family.DELTA, (-1, 0, 0, -1)) == 0
        assert w(CS, Family.GAMMA, (1, 2, 2, 2), (Z,)) == 0

    def test_colored_relative_order(self):
        # same relative order -> same weight, for any strictly increasing relabeling
        rng = random.Random(0)
        letters = alphabet(CS, 3)
        for _ in range(300):
            edges = tuple(rng.choice(letters) for _ in range(4))
            # order-preserving relabeling: add a shift toward the positives
            shift = {c: i for i, c in enumerate(sorted(set(edges)))}
            mapped = tuple(shift[c] + 1 for c in edges)  # lives in colored-positive range
            for fam in (Family.GAMMA, Family.DELTA):
                assert w(CS, fam, edges) == w(CS, fam, mapped)

    def test_uncolored_specialization(self):
        # restricting either colored table to {c_0, c_1} and reading c_1 as
        # '-' reproduces the uncolored tables entry by entry
        relabel = {0: 0, 1: -1}
        for fam in (Family.GAMMA, Family.DELTA):
            for edges in itertools.product((0, 1), repeat=4):
                mapped = tuple(relabel[e] for e in edges)
                assert w(CS, fam, edges) == w(UR, fam, mapped)
                assert w(CP, fam, edges) == w(UR, fam, mapped)

    def test_param_arity_checked(self):
        with pytest.raises(UsageError):
            vertex_weight(UR, Family.GAMMA, (0, 0, 0, 0), (Z, Z), Q)
        with pytest.raises(UsageError):
            vertex_weight(UR, Family.R_GAMMA_GAMMA, (0, 0, 0, 0), (Z,), Q)


class TestCaps:
    def test_cap_tables(self):
        assert cap_weight(UR, 0, 0) == 1
        assert cap_weight(UR, -1, -1) == 1
        assert cap_weight(UR, 0, -1) == 0
        assert cap_weight(UA, 0, -1) == 1
        assert cap_weight(UA, -1, 0) == 1
        assert cap_weight(UA, 0, 0) == 0
        # signed: c_a -> c_{-a}, '+' -> '+'
        assert cap_weight(CS, 2, -2) == 1
        assert cap_weight(CS, -1, 1) == 1
        assert cap_weight(CS, 0, 0) == 1
        assert cap_weight(CS, 2, 2) == 0
        # positive: identity
        assert cap_weight(CP, 2, 2) == 1
        assert cap_weight(CP, 2, 1) == 0

    def test_new_cap_is_flip_of_model_cap(self):
        assert vertex_weight(UR, Family.NEW_CAP, (0, -1), (), Q) == 1
        assert vertex_weight(UR, Family.NEW_CAP, (-1, 0), (), Q) == 1
        assert vertex_weight(UR, Family.NEW_CAP, (0, 0), (), Q) == 0
        assert vertex_weight(UA, Family.NEW_CAP, (0, 0), (), Q) == 1
        with pytest.raises(UsageError):
            vertex_weight(CS, Family.NEW_CAP, (0, 0), (), Q)


class TestRMatrices:
    def test_gamma_gamma_values(self):
        zi, zj = F(2, 5), F(3, 7)
        den = 1 - (Q + 1) * zj + Q * zi * zj
        p = (zi, zj)
        assert w(UR, Family.R_GAMMA_GAMMA, (0, -1, 0, -1), p) == (zi - zj) / den
        assert w(UR, Family.R_GAMMA_GAMMA, (-1, 0, -1, 0), p) == Q * (zi - zj) / den
        assert w(UR, Family.R_GAMMA_GAMMA, (-1, 0, 0, -1), p) == (1 - Q * zi) * (1 - zj) / den
        assert w(UR, Family.R_GAMMA_GAMMA, (0, -1, -1, 0), p) == (1 - zi) * (1 - Q * zj) / den

    def test_delta_gamma_values(self):
        zi, zj = F(2, 5), F(3, 7)
        zpi = zprime(zi, Q)
        den = 1 - zpi * zj
        p = (zi, zj)
        assert w(UR, Family.R_DELTA_GAMMA, (0, -1, 0, -1), p) == \
            (zpi + Q * zj - (Q + 1) * zpi * zj) / den
        assert w(UR, Family.R_DELTA_GAMMA, (-1, 0, -1, 0), p) == \
            (zpi / Q + zj - (1 + 1 / Q) * zpi * zj) / den
        # the exchange patterns are d-type: both left legs equal
        assert w(UR, Family.R_DELTA_GAMMA, (-1, -1, 0, 0), p) == (1 - zpi) * (1 - Q * zj) / den
        assert w(UR, Family.R_DELTA_GAMMA, (0, 0, -1, -1), p) == (1 - zpi / Q) * (1 - zj) / den
        assert w(UR, Family.R_DELTA_GAMMA, (-1, 0, 0, -1), p) == 0

    def test_delta_delta_values(self):
        zi, zj = F(2, 5), F(3, 7)
        zpi, zpj = zprime(zi, Q), zprime(zj, Q)
        den = Q - (Q + 1) * zpi + zpi * zpj
        p = (zi, zj)
        assert w(UR, Family.R_DELTA_DELTA, (0, -1, 0, -1), p) == (zpj - zpi) / den
        assert w(UR, Family.R_DELTA_DELTA, (-1, 0, 0, -1), p) == (1 - zpi) * (Q - zpj) / den

    def test_gamma_delta_values(self):
        zi, zj = F(2, 5), F(3, 7)
        zpj = zprime(zj, Q)
        den = zi * zpj - 1
        p = (zi, zj)
        assert w(UR, Family.R_GAMMA_DELTA, (0, -1, 0, -1), p) == (Q * zi + zpj - (1 + Q)) / den
        assert w(UR, Family.R_GAMMA_DELTA, (-1, -1, 0, 0), p) == (1 - Q * zi) * (1 - zpj) / den
        assert w(UR, Family.R_GAMMA_DELTA, (0, 0, -1, -1), p) == (1 - zi) * (Q - zpj) / (Q * den)
        with pytest.raises(UsageError):
            vertex_weight(CS, Family.R_GAMMA_DELTA, (0, 0, 0, 0), p, Q)

    def test_fish_equals_lemma_specialization(self):
        pt = sample_point(1, 4)
        z, q = pt.z[0], pt.q
        t1, t2 = 1 / (q * z), zprime(z, q) / q
        for edges in itertools.product((0, -1), repeat=4):
            assert vertex_weight(UR, Family.R_FISH, edges, (z,), q) == \
                vertex_weight(UR, Family.R_LEMMA, edges, (t1, t2), q)

    def test_fish_table_values(self):
        pt = sample_point(1, 4)
        z, q = pt.z[0], pt.q
        zp = zprime(z, q)
        den = q * z + zp - (q + 1)
        assert vertex_weight(UR, Family.R_FISH, (0, -1, 0, -1), (z,), q) == (z * zp - 1) / den
        assert vertex_weight(UR, Family.R_FISH, (-1, 0, 0, -1), (z,), q) == \
            -(z - 1) * (q - zp) / den


class TestStochasticity:
    def test_row_sums_from_figures(self):
        # qz + (1-qz) = 1 and z'/q + (1 - z'/q) = 1
        assert stochastic_row_check(UR, Family.GAMMA, (-1, 0), (Z,), Q) == 1
        assert stochastic_row_check(UR, Family.DELTA, (-1, 0), (Z,), Q) == 1
        assert stochastic_row_check(UR, Family.CAP, (0,), (), Q) == 1

    @pytest.mark.parametrize("model", list(Model))
    def test_all_stochastic_rows_sum_to_one(self, model):
        # exact unit rows witnessed at 20 random points; one table per
        # family sums every input tuple, and the row check looks one up
        n = 2
        letters = alphabet(model, n)
        for seed in range(20):
            pt = sample_point(2, 11 + seed)
            q = pt.q
            for fam, slots in STOCHASTIC_INPUT_SLOTS.items():
                if fam is Family.NEW_CAP and model.colored:
                    continue
                if fam in (Family.CAP, Family.NEW_CAP):
                    params = ()
                elif fam in (Family.GAMMA, Family.DELTA):
                    params = (pt.z[0],)
                else:
                    params = (pt.z[0], pt.z[1])
                sums = stochastic_row_sums(model, fam, params, q, n)
                assert set(sums) == set(itertools.product(letters, repeat=len(slots)))
                for inputs, total in sums.items():
                    assert total == stochastic_row_check(model, fam, inputs, params, q, n) == 1, \
                        (model, fam, inputs)

    @pytest.mark.parametrize("model,inputs", [
        (UR, (5, 0)),     # 5 is no uncolored label (rank would read it as "+")
        (CP, (7, 0)),     # outside the positive alphabet at n = 2
        (UR, (0,)),       # one input on a two-input vertex
    ])
    def test_malformed_inputs_raise(self, model, inputs):
        with pytest.raises(UsageError):
            stochastic_row_check(model, Family.GAMMA, inputs, (Z,), Q, 2)

    def test_gamma_delta_crossing_not_stochastic(self):
        with pytest.raises(UsageError):
            stochastic_row_check(UR, Family.R_GAMMA_DELTA, (0, -1), (Z, Z), Q)
        with pytest.raises(UsageError):
            stochastic_row_sums(UR, Family.R_GAMMA_DELTA, (Z, Z), Q)

    def test_weights_in_unit_interval_at_regime_points(self):
        for seed in range(20):
            pt = sample_regime_point(2, seed)
            for model in Model:
                letters = alphabet(model, 2)
                for fam in (Family.GAMMA, Family.DELTA):
                    for edges in itertools.product(letters, repeat=4):
                        val = vertex_weight(model, fam, edges, (pt.z[0],), pt.q)
                        assert 0 <= val <= 1


class TestConservation:
    @pytest.mark.parametrize("model", list(Model))
    def test_color_conservation(self, model):
        # Gamma conserves {left, top} -> {right, bottom};
        # Delta conserves {right, top} -> {left, bottom}
        pt = sample_point(2, 3)
        letters = alphabet(model, 2)
        for fam in (Family.GAMMA, Family.DELTA):
            for edges in itertools.product(letters, repeat=4):
                if vertex_weight(model, fam, edges, (pt.z[0],), pt.q) == 0:
                    continue
                l, t, r, b = edges
                if fam is Family.GAMMA:
                    assert sorted((l, t)) == sorted((r, b))
                else:
                    assert sorted((r, t)) == sorted((l, b))

    @pytest.mark.parametrize("model", list(Model))
    def test_cap_conservation(self, model):
        letters = alphabet(model, 2)
        for top in letters:
            for bottom in letters:
                if cap_weight(model, top, bottom) == 0:
                    continue
                if model is UR or model is CP:
                    assert bottom == top
                elif model is UA:
                    assert bottom == -1 - top
                else:
                    assert bottom == -top


def _params(fam, pt):
    if fam in (Family.CAP, Family.NEW_CAP):
        return ()
    if fam in (Family.GAMMA, Family.DELTA, Family.LEMMA_S, Family.LEMMA_T, Family.R_FISH):
        return (pt.z[0],)
    return (pt.z[0], pt.z[1])


def test_pattern_table_vs_weight():
    # the table holds vertex_weight's value of every listed pattern, no
    # listed pattern weighs 0 at both points, and every pattern it leaves
    # out weighs exactly 0 at both, for every family of every model over
    # the alphabets n = 1..3
    pts = [sample_point(2, s) for s in (5, 6)]
    for model in Model:
        for fam in Family:
            nslots = 2 if fam in (Family.CAP, Family.NEW_CAP) else 4
            if model.colored and fam in (Family.NEW_CAP, Family.R_GAMMA_DELTA):
                with pytest.raises(UsageError):
                    pattern_table(model, fam, _params(fam, pts[0]), pts[0].q, alphabet(model, 1))
                continue
            for n in (1, 2, 3):
                letters = alphabet(model, n)
                tables = [pattern_table(model, fam, _params(fam, pt), pt.q, letters) for pt in pts]
                assert all(any(t[edges] != 0 for t in tables) for edges in tables[0]), (model, fam)
                for pt, table in zip(pts, tables):
                    params = _params(fam, pt)
                    for edges in itertools.product(letters, repeat=nslots):
                        weight = vertex_weight(model, fam, edges, params, pt.q)
                        if edges in table:
                            assert table[edges] == weight, (model, fam, edges)
                        else:
                            assert weight == 0, (model, fam, n, edges)


def _letters(model, k):
    """The first k letters of the model's largest alphabet here (k <= 5)."""
    return (alphabet(model, 2) if model.colored else (-1, 0))[:k]


def test_integer_table_is_pattern_table_times_den():
    # built from the class numerators, the table is still pattern_table
    # times the lcm of its denominators, in listing order, on ints, for
    # every family of every model over alphabets of 1 to 5 letters, at two
    # generic points and one where listed weights vanish (z = 1)
    points = [sample_point(2, 5), sample_point(2, 6), ParamPoint((F(1), F(1)), F(3, 2))]
    for model in Model:
        for fam in Family:
            if model.colored and fam in (Family.NEW_CAP, Family.R_GAMMA_DELTA):
                continue
            for k in range(1, 6 if model.colored else 3):
                letters = _letters(model, k)
                for pt in points:
                    params = _params(fam, pt)
                    try:
                        exact = pattern_table(model, fam, params, pt.q, letters)
                    except DomainError:
                        with pytest.raises(DomainError):
                            integer_table(model, fam, params, pt.q, letters)
                        continue
                    scaled, den = integer_table(model, fam, params, pt.q, letters)
                    assert den == math.lcm(*(w.denominator for w in exact.values()))
                    assert list(scaled.items()) == [(edges, w * den) for edges, w in exact.items()]
                    assert type(den) is int and all(type(w) is int for w in scaled.values())


def _fraction_integer_table(model, fam, params, q, letters):
    """``(table, den)`` from the rule evaluated in ``Fraction``s, each class
    divided by the denominator and made integral over the lcm of the class
    denominators: the reference for the unreduced evaluation."""
    listed = listed_patterns(model, fam, tuple(letters))
    used = {order for _, order in listed if order is not None}
    classes = ()
    if used:
        nums, den = _RULES[fam][0](*(F(p) for p in params), F(q))
        if den == 0:
            raise DomainError(f"singular point: {fam.value} weights undefined at "
                              f"({', '.join(map(str, params))}), q = {q}")
        classes = [F(num) / den for num in nums]
    den = math.lcm(*(classes[order].denominator for order in used))
    ints = {order: classes[order].numerator * (den // classes[order].denominator)
            for order in used}
    ints[None] = den
    return {edges: ints[order] for edges, order in listed}, den


@pytest.mark.parametrize("fam", [f for f in Family if _RULES[f][0] is not None])
def test_integer_table_and_denominator_equal_the_fraction_reference(fam):
    # 500 random points a family, small numerators and denominators of either
    # sign, so that zeros and singular points come up; a singular point must
    # raise the reference's DomainError text
    rng = random.Random(fam.value)
    values = [F(a, b) for a in range(-6, 7) for b in range(1, 7)]
    models = [m for m in Model if not (m.colored and fam is Family.R_GAMMA_DELTA)]
    singular = 0
    for _ in range(500):
        params = tuple(rng.choice(values) for _ in range(_RULES[fam][1]))
        q = rng.choice([v for v in values if v != 0])
        model = rng.choice(models)
        letters = alphabet(model, rng.choice((1, 2)))
        den = _RULES[fam][0](*params, q)[1]
        assert denominator(fam, params, q) == den
        assert type(denominator(fam, params, q)) is type(den)
        try:
            expected = _fraction_integer_table(model, fam, params, q, letters)
        except DomainError as err:
            singular += 1
            with pytest.raises(DomainError) as raised:
                integer_table(model, fam, params, q, letters)
            assert str(raised.value) == str(err)
            continue
        got = integer_table(model, fam, params, q, letters)
        assert list(got[0].items()) == list(expected[0].items()) and got[1] == expected[1]
        assert type(got[1]) is int and all(type(w) is int for w in got[0].values())
    assert singular > 0 or fam in (Family.GAMMA, Family.LEMMA_S, Family.LEMMA_T)


def _singular(fam):
    """``(params, q)`` at which the crossing's common denominator vanishes,
    built from the locus by hand and checked against the rule's own."""
    q = F(7, 3)
    zp = zprime(F(2, 5), q)                         # 5/6
    if fam is Family.R_GAMMA_GAMMA:                 # 1 - (q+1) z_j + q z_i z_j
        zj = F(2, 5)
        params = ((q + 1) * zj - 1) / (q * zj), zj
    elif fam is Family.R_DELTA_GAMMA:               # 1 - z_i' z_j
        params = F(2, 5), 1 / zp
    elif fam is Family.R_DELTA_DELTA:               # q - (q+1) z_i' + z_i' z_j'
        zpj = ((q + 1) * zp - q) / zp
        params = F(2, 5), 1 / (q + 1 - zpj)
    elif fam is Family.R_GAMMA_DELTA:               # z_i z_j' - 1
        params = 1 / zp, F(2, 5)
    elif fam is Family.R_LEMMA:                     # 1 - (q+1) t1 + q t1 t2
        t1 = F(2, 5)
        params = t1, ((q + 1) * t1 - 1) / (q * t1)
    else:                                           # R_FISH: 1 - 1/(q z^2)
        params, q = (F(1, 2),), F(4)
    assert denominator(fam, params, q) == 0
    return params, q


@pytest.mark.parametrize("fam", [f for f in R_FAMILIES if f is not Family.R_LEMMA])
def test_default_avoid_rejects_each_singular_point(fam):
    # sample_point's avoid set reads the same denominators as the weights
    params, q = _singular(fam)
    point = ParamPoint(params, q)
    assert any(avoid(point) for avoid in DEFAULT_AVOID)


#: family -> the slots at which a zero makes the family singular; a zero
#: in any other slot leaves a table
_SINGULAR_AT_ZERO = {
    Family.GAMMA: (),
    Family.DELTA: ("z", "q"),
    Family.R_GAMMA_GAMMA: (),
    Family.R_DELTA_GAMMA: ("z_i", "q"),
    Family.R_DELTA_DELTA: ("z_i", "z_j"),
    Family.R_GAMMA_DELTA: ("z_j", "q"),
    Family.LEMMA_S: (),
    Family.LEMMA_T: (),
    Family.R_LEMMA: (),
    Family.R_FISH: ("z", "q"),
}
_SLOTS = {1: ("z", "q"), 2: ("z_i", "z_j", "q")}    # by the family's arity


@pytest.mark.parametrize("fam, slot", [(fam, slot) for fam in _SINGULAR_AT_ZERO
                                       for slot in _SLOTS[_RULES[fam][1]]])
def test_zero_parameter_is_singular_exactly_where_pinned(fam, slot):
    # a denominator keeps the factor z of each z' its family's weights are
    # written in, and q where they divide by q
    names = _SLOTS[_RULES[fam][1]]
    values = dict(zip(names, [F(2, 5), F(3, 7), F(7, 3)][-len(names):]))
    values[slot] = F(0)
    *params, q = values.values()
    if slot in _SINGULAR_AT_ZERO[fam]:
        with pytest.raises(DomainError, match=f"{fam.value} weights undefined"):
            pattern_table(UR, fam, params, q, (-1, 0))
    else:
        assert len(pattern_table(UR, fam, params, q, (-1, 0))) == 6   # every listed pattern


@pytest.mark.parametrize("fam", R_FAMILIES)
def test_one_letter_table_at_a_singular_point(fam):
    # a one-letter listing uses no weight class, so its table needs no
    # rule and does not raise; two letters use every class and do
    params, q = _singular(fam)
    for model in Model:
        if model.colored and fam is Family.R_GAMMA_DELTA:
            continue
        for letter in _letters(model, 5):
            assert integer_table(model, fam, params, q, (letter,)) == ({(letter,) * 4: 1}, 1)
            assert pattern_table(model, fam, params, q, (letter,)) == {(letter,) * 4: 1}
        with pytest.raises(DomainError, match=fam.value):
            integer_table(model, fam, params, q, _letters(model, 2))


@pytest.mark.parametrize("fam", R_FAMILIES)
def test_singular_crossing_keeps_trivial_patterns(fam):
    # where a crossing's denominator vanishes, every listed pattern that is
    # not all-equal is undefined, but all-equal patterns still weigh 1 and
    # unlisted ones 0: neither needs the family's weight formula
    params, q = _singular(fam)
    generic = sample_point(2, 5)
    for model in Model:
        if model.colored and fam is Family.R_GAMMA_DELTA:
            continue
        for n in (1, 2):
            letters = alphabet(model, n)
            listed = pattern_table(model, fam, _params(fam, generic), generic.q, letters)
            with pytest.raises(DomainError, match=fam.value):
                pattern_table(model, fam, params, q, letters)
            for edges in itertools.product(letters, repeat=4):
                if len(set(edges)) == 1:
                    assert vertex_weight(model, fam, edges, params, q) == 1
                elif edges not in listed:
                    assert vertex_weight(model, fam, edges, params, q) == 0, (model, edges)
                else:
                    with pytest.raises(DomainError, match=fam.value):
                        vertex_weight(model, fam, edges, params, q)
