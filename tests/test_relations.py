import hashlib
from fractions import Fraction as F

import pytest

from symplectic_ice import diagram as dg
from symplectic_ice import relations as rel
from symplectic_ice import weights
from symplectic_ice.rationals import DomainError, ParamPoint, sample_point, zprime
from symplectic_ice.weights import Family, Model, UsageError

G, D = Family.GAMMA, Family.DELTA


@pytest.mark.parametrize("X", [G, D])
@pytest.mark.parametrize("Y", [G, D])
def test_ybe_uncolored(X, Y):
    for seed in range(3):
        rep = rel.verify_ybe_uncolored(X, Y, sample_point(2, seed))
        assert rep.passed
        assert rep.combos_tested == 64


def test_ybe_lemma_free_parameters():
    rep = rel.verify_ybe_lemma(F(3, 7), F(5, 11), F(2))
    assert rep.passed
    # the specialization realizing the cap-collapse crossing
    pt = sample_point(1, 9)
    z, q = pt.z[0], pt.q
    rep = rel.verify_ybe_lemma(1 / (q * z), zprime(z, q) / q, q)
    assert rep.passed


def test_ybe_lemma_singular_rejected():
    # 1 - (q+1) t1 + q t1 t2 = 0
    q, t1 = F(2), F(1, 4)
    t2 = ((q + 1) * t1 - 1) / (q * t1)
    with pytest.raises(DomainError, match="r-lemma"):
        rel.verify_ybe_lemma(t1, t2, q)


@pytest.mark.parametrize("cap", ["reflecting", "absorbing"])
def test_caduceus(cap):
    for seed in range(3):
        rep = rel.verify_caduceus(sample_point(2, seed), cap)
        assert rep.passed
        assert rep.combos_tested == 16


def test_caduceus_scalar_spot_value():
    # derived by direct substitution: numerator (-2/3)(-1/3), denominator 2 (1/3)^2
    assert dg.caduceus_scalar(F(1, 2), F(1, 3), F(2)) == 1


def test_scalars_refuse_their_singular_locus():
    # z_i + z_j - (q+1) z_i z_j = 1/3 + 1 - 4/3 = 0, the R_DELTA_GAMMA(z_i, z_j) locus
    with pytest.raises(DomainError, match="r-dg"):
        dg.caduceus_scalar(F(1, 3), F(1), F(3))
    # q z - 1/z = 2 - 2 = 0, the R_FISH(z) locus
    with pytest.raises(DomainError, match="r-fish"):
        dg.fish_scalar(Model.UNCOLORED_REFLECTING, F(1, 2), F(4))


@pytest.mark.parametrize("cap", ["reflecting", "absorbing"])
def test_fish(cap):
    for seed in range(3):
        rep = rel.verify_fish(sample_point(1, seed), cap)
        assert rep.passed
        assert rep.combos_tested == 4


@pytest.mark.parametrize("cap", ["reflecting", "absorbing"])
@pytest.mark.parametrize("q", [F(2), F(1, 3), F(7, 5)])
def test_fish_where_zprime_vanishes(cap, q):
    # z = 1/(q+1) gives z' = 0; the reflecting factor is defined there
    z = 1 / (q + 1)
    assert zprime(z, q) == 0
    assert rel.verify_fish(ParamPoint((z,), q), cap).passed


def test_fish_boundary_values():
    # reflecting: Z(I3(+,+)) = 0; absorbing: Z(I3(+,+)) = 1 (the all-plus crossing)
    pt = sample_point(1, 5)
    z, q = pt.z[0], pt.q
    refl = dg.fish_lhs(Model.UNCOLORED_REFLECTING, z).evaluate_all(q)
    assert refl.get((0, 0), F(0)) == 0
    # (+,-) collapses to the two crossing entries c1 + b2
    zp = zprime(z, q)
    den = q * z + zp - (q + 1)
    c1 = -(z - 1) * (q - zp) / den
    b2 = q * (z * zp - 1) / den
    assert refl.get((0, -1), F(0)) == c1 + b2
    absb = dg.fish_lhs(Model.UNCOLORED_ABSORBING, z).evaluate_all(q)
    assert absb.get((0, 0), F(0)) == 1


def test_parity_vanishing_uncolored():
    # boundaries with an odd number of '-' labels evaluate to 0 on both sides
    pt = sample_point(2, 12)
    q = pt.q
    left = dg.ybe_left(Model.UNCOLORED_REFLECTING, 1, G, D, pt.z[0], pt.z[1]).evaluate_all(q)
    right = dg.ybe_right(Model.UNCOLORED_REFLECTING, 1, G, D, pt.z[0], pt.z[1]).evaluate_all(q)
    for vals in (left, right):
        for key, val in vals.items():
            if sum(1 for x in key if x == -1) % 2 == 1:
                assert val == 0
    lhs = dg.caduceus_lhs(Model.UNCOLORED_REFLECTING, pt.z[0], pt.z[1]).evaluate_all(q)
    for key, val in lhs.items():
        if sum(1 for x in key if x == -1) % 2 == 1:
            assert val == 0


@pytest.mark.parametrize("model", ["signed", "positive"])
@pytest.mark.parametrize("XY", [(D, G), (G, G), (D, D)])
def test_ybe_colored(model, XY):
    rep = rel.verify_ybe_colored(model, *XY, sample_point(2, 3))
    assert rep.passed
    assert rep.combos_tested == 4 ** 6


def test_ybe_colored_rejects_gamma_delta():
    with pytest.raises(UsageError):
        rel.verify_ybe_colored("signed", G, D, sample_point(2, 3))


def test_positive_restriction_matches_uncolored_check():
    # the {0, 1} sweep of the positive model reproduces the uncolored
    # Gamma-Gamma sweep verbatim under the relabeling 1 -> '-'
    pt = sample_point(2, 6)
    q = pt.q
    unc = dg.ybe_left(Model.UNCOLORED_REFLECTING, 1, G, G, pt.z[0], pt.z[1]).evaluate_all(q)
    pos = dg.ybe_left(Model.COLORED_POSITIVE, 1, G, G, pt.z[0], pt.z[1]).evaluate_all(q)
    relabel = {0: 0, 1: -1}
    mapped = {tuple(relabel[x] for x in key): val for key, val in pos.items()}
    assert mapped == unc


def test_reduction_soundness_paranoid():
    # the widened alphabet gives the same verdict as the stated reduction
    pt = sample_point(2, 4)
    small = rel.verify_ybe_colored("signed", G, G, pt)
    wide = rel.verify_ybe_colored("signed", G, G, pt, paranoid=True)
    assert small.passed == wide.passed == True
    assert wide.combos_tested == 5 ** 6


@pytest.mark.parametrize("model", ["signed", "positive"])
def test_reflection(model):
    for seed in range(3):
        rep = rel.verify_reflection(model, sample_point(2, seed))
        assert rep.passed
    assert rel.verify_reflection("signed", sample_point(2, 9)).combos_tested == 5 ** 4
    assert rel.verify_reflection("positive", sample_point(2, 9)).combos_tested == 3 ** 4


@pytest.mark.parametrize("model", ["signed", "positive"])
def test_reflection_ignores_crossings_it_does_not_contract(model):
    # with z' = (1/2, -1/2), R_DD(z_1, z_2) is singular: q - (q+1) z_1' + z_1' z_2'
    # = 3/2 - 5/4 - 1/4 = 0; the diagrams contract only R_DD(z_2, z_1), defined here
    pt = ParamPoint((F(1, 2), F(1, 3)), F(3, 2))
    assert rel.verify_reflection(model, pt).passed


def test_reflection_paranoid_alphabets():
    # the signed widening must stay closed under the cap's color negation
    # (7 labels, not 6); the positive widening adds a single label
    pt = sample_point(2, 55)
    rep = rel.verify_reflection("signed", pt, paranoid=True)
    assert rep.passed and rep.combos_tested == 7 ** 4
    rep = rel.verify_reflection("positive", pt, paranoid=True)
    assert rep.passed and rep.combos_tested == 4 ** 4


def test_reflection_odd_color_type_vanishes():
    # a color type appearing an odd number of times forces 0 on both sides
    pt = sample_point(2, 7)
    q = pt.q
    lhs = dg.reflection_lhs(Model.COLORED_SIGNED, 2, pt.z[0], pt.z[1]).evaluate_all(q)
    rhs = dg.reflection_rhs(Model.COLORED_SIGNED, 2, pt.z[0], pt.z[1]).evaluate_all(q)
    for vals in (lhs, rhs):
        for key, val in vals.items():
            types = sorted(abs(x) for x in key if x != 0)
            counts = {t: types.count(t) for t in set(types)}
            if any(c % 2 == 1 for c in counts.values()):
                assert val == 0, (key, val)


def test_corrupted_table_is_detected(monkeypatch):
    # a deliberately corrupted weight entry must produce failures with a
    # minimal counterexample attached: the Gamma-Gamma crossing's
    # straight-through class with the first label lower, i.e. (0, -1, 0, -1)
    rule, arity, d_type = weights._RULES[Family.R_GAMMA_GAMMA]

    def corrupted(*args):
        nums, den = rule(*args)
        return (nums[0] + den,) + nums[1:], den

    monkeypatch.setitem(weights._RULES, Family.R_GAMMA_GAMMA, (corrupted, arity, d_type))
    rep = rel.verify_ybe_uncolored(G, G, sample_point(2, 2))
    assert not rep.passed
    point, boundary, lhs, rhs = rep.failures[0]
    assert lhs != rhs
    # only the failing boundaries are sorted: they come in boundary order,
    # each with its two values, as the sweep over every sorted key gave them
    rep = rel.verify_ybe_colored("signed", G, G, sample_point(2, 2))
    keys = [boundary for _, boundary, _, _ in rep.failures]
    assert len(keys) == 76 and keys == sorted(set(keys))
    assert hashlib.sha256(repr(rep.failures).encode()).hexdigest() == \
        "fd2a417520ae60e256df563f70c19c243531dba1228e953cd9c5a51c4ec21473"


def test_report_merge():
    a = rel.verify_ybe_uncolored(G, G, sample_point(2, 0))
    b = rel.verify_ybe_uncolored(G, G, sample_point(2, 1))
    merged = a.merge(b)
    assert merged.points_tested == 2
    assert merged.combos_tested == 128
    assert merged.passed


def test_sweep_builds_each_shared_node_once(monkeypatch):
    # ybe_left and ybe_right hold the same three nodes; the caduceus caps
    # appear twice on each side: a sweep builds each distinct table once
    built = []
    true_table = dg.integer_table

    def counted(model, family, params, q, letters):
        built.append((family, params))
        return true_table(model, family, params, q, letters)

    monkeypatch.setattr(dg, "integer_table", counted)
    point = sample_point(2, 4)
    assert rel.verify_ybe_uncolored(G, D, point).passed
    assert len(built) == len(set(built)) == 3
    built.clear()
    assert rel.verify_caduceus(point, "reflecting").passed
    assert len(built) == len(set(built)) == 5
