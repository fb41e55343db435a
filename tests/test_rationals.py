import hashlib
import random
from fractions import Fraction as F

import pytest

from symplectic_ice.rationals import (DEFAULT_AVOID, DomainError, ParamPoint,
                                      SamplingError, in_stochastic_regime,
                                      sample_point, sample_regime_point, zprime)


def random_fraction(rng):
    return F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))


def test_field_axioms_spot_checks():
    rng = random.Random(0)
    for _ in range(200):
        a, b, c = (random_fraction(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) - b == a
        if a != 0:
            assert a * (1 / a) == 1


def test_canonical_form():
    x = F(6, -4)
    assert x.denominator > 0
    assert x == F(-3, 2)


def test_zprime_examples():
    # z = 1 cancels the +1
    assert zprime(F(1), F(7, 3)) == F(7, 3)
    assert zprime(F(1, 2), F(2)) == 1
    q = F(5, 7)
    assert zprime(1 / (q + 1), q) == 0
    with pytest.raises(DomainError):
        zprime(F(0), F(2))


def test_zprime_involution_identity():
    # 1/z + z' = q + 1 for all z != 0
    rng = random.Random(1)
    for _ in range(100):
        z = random_fraction(rng)
        q = random_fraction(rng)
        if z == 0:
            continue
        assert 1 / z + zprime(z, q) == q + 1


def test_param_point_validation():
    with pytest.raises(DomainError):
        ParamPoint((F(0),), F(2))
    with pytest.raises(DomainError):
        ParamPoint((F(1, 2),), F(0))
    pt = ParamPoint((F(1, 2), F(1, 3)), F(2))
    assert pt.n == 2
    assert pt.zp(1) == zprime(F(1, 2), F(2))
    assert pt.swap_z(1, 2).z == (F(1, 3), F(1, 2))
    assert pt.replace_z(2, F(5)).z == (F(1, 2), F(5))


def test_stochastic_regime():
    assert in_stochastic_regime(ParamPoint((F(3, 4),), F(1, 2)))
    assert not in_stochastic_regime(ParamPoint((F(3, 4),), F(2)))
    # boundary value 1/(q+1) is inside
    assert in_stochastic_regime(ParamPoint((F(1, 2),), F(1)))
    assert not in_stochastic_regime(ParamPoint((F(1, 2),), F(-3)))
    with pytest.raises(DomainError):
        in_stochastic_regime(ParamPoint((F(1, 2),), F(-1)))


def test_sample_point_deterministic():
    a = sample_point(3, seed=7)
    b = sample_point(3, seed=7)
    assert a == b
    assert a != sample_point(3, seed=8)


def test_sample_point_respects_predicates():
    for seed in range(20):
        pt = sample_point(2, seed, avoid=[lambda p: p.z[0] == p.z[1]])
        assert pt.z[0] != pt.z[1]
    # the default set keeps every known denominator nonzero
    pt = sample_point(2, 3, avoid=DEFAULT_AVOID)
    q = pt.q
    zi, zj = pt.z
    assert 1 - (q + 1) * zj + q * zi * zj != 0
    assert zi + zj - (q + 1) * zi * zj != 0


def test_sample_points_are_pinned():
    # the avoid set reads the crossings' and the fish crossing's loci from
    # their weight rules; it admits exactly the points it admitted when
    # every locus was written out here by hand
    digest = hashlib.sha256()
    for n in (1, 2, 3):
        for seed in range(1000):
            digest.update(repr(sample_point(n, seed)).encode())
    assert digest.hexdigest() == "d2208aa24e6058fb39b35feeb21da7cf1d6bbbd278c668689b69568889ab5e1d"


def test_sample_point_exhaustion():
    with pytest.raises(SamplingError):
        sample_point(1, 5, avoid=[lambda p: True])


def test_regime_point_sampler():
    for seed in range(10):
        pt = sample_regime_point(2, seed)
        assert in_stochastic_regime(pt)
