import itertools
from fractions import Fraction as F

import pytest

from symplectic_ice import functional as fn
from symplectic_ice.lattice import (LatticeSpec, Partition, SignedPermutation,
                                    all_signed_permutations, enumerate_states,
                                    partition_function)
from symplectic_ice.rationals import sample_point
from symplectic_ice.weights import Model, UsageError

UR, UA = Model.UNCOLORED_REFLECTING, Model.UNCOLORED_ABSORBING
CS, CP = Model.COLORED_SIGNED, Model.COLORED_POSITIVE


class TestUncoloredInvariance:
    def test_permutation_invariance_figure_instance(self):
        spec = LatticeSpec(UR, 2, 4, Partition((2, 1)), sample_point(2, 0))
        assert fn.check_permutation_invariance(spec, 1)

    def test_permutation_invariance_absorbing(self):
        spec = LatticeSpec(UA, 2, 3, Partition((1, 0)), sample_point(2, 1))
        assert fn.check_permutation_invariance(spec, 1)

    def test_equal_parameters_trivial(self):
        pt = sample_point(2, 2)
        pt = pt.replace_z(2, pt.z[0])
        spec = LatticeSpec(UR, 2, 4, Partition((2, 1)), pt)
        assert fn.check_permutation_invariance(spec, 1)

    @pytest.mark.parametrize("model,lam", [(UR, (2, 1)), (UA, (2, 0))])
    def test_interchange(self, model, lam):
        for seed in range(3):
            spec = LatticeSpec(model, 2, 4, Partition(lam), sample_point(2, seed))
            assert fn.check_interchange(spec)

    def test_interchange_factor_matches_normalizer_ratio(self):
        # the reflecting correction factor is exactly D1(s_n z)/D1(z) without
        # the z^L part
        pt = sample_point(2, 5)
        L = 4
        moved = fn.apply_generator(pt, 2)
        assert fn.interchange_factor(UR, pt, L) == \
            fn.d1_normalizer(moved, L) / fn.d1_normalizer(pt, L)
        assert fn.interchange_factor(UA, pt, L) == \
            fn.d2_normalizer(moved, L) / fn.d2_normalizer(pt, L)

    @pytest.mark.parametrize("model,lam", [(UR, (2, 1)), (UA, (2, 0))])
    def test_weyl_invariance_generators_and_words(self, model, lam):
        for seed in range(2):
            spec = LatticeSpec(model, 2, 4, Partition(lam), sample_point(2, seed))
            for word in [(1,), (2,), (1, 2), (2, 1, 2)]:
                assert fn.check_weyl_invariance(spec, word)

    def test_s_n_on_point_is_involution(self):
        pt = sample_point(2, 3)
        assert fn.apply_generator(fn.apply_generator(pt, 2), 2) == pt


class TestClosedForm:
    def test_specialized_sigma(self):
        # sigma(i) = -i: Z = prod z_i^L (z_i'/q)^(lam_i + n - i) (1 - z_i'/q) q^(n(n-1)/2)
        pt = sample_point(2, 7)
        q = pt.q
        lam = Partition((2, 1))
        spec = LatticeSpec(CS, 2, 5, lam, pt,
                           SignedPermutation((-1, -2)), SignedPermutation((1, 2)))
        expected = F(1)
        for i in (1, 2):
            z, zp = pt.z[i - 1], pt.zp(i)
            expected *= z ** 5 * (zp / q) ** (lam.parts[i - 1] + 2 - i) * (1 - zp / q)
        expected *= q
        assert fn.closed_form_opposite(spec) == expected
        assert partition_function(spec) == expected

    def test_single_row_case(self):
        pt = sample_point(1, 8)
        spec = LatticeSpec(CS, 1, 1, Partition((0,)), pt,
                           SignedPermutation((-1,)), SignedPermutation((1,)))
        assert fn.closed_form_opposite(spec) == pt.z[0] * (1 - pt.zp(1) / pt.q)

    def test_general_sigma_against_enumeration(self):
        pt = sample_point(2, 9)
        for sig in all_signed_permutations(2):
            tau = SignedPermutation([-v for v in sig.images])
            spec = LatticeSpec(CS, 2, 4, Partition((1, 0)), pt, sig, tau)
            assert fn.closed_form_opposite(spec) == partition_function(spec)
            assert len(list(enumerate_states(spec))) == 1

    def test_hypothesis_violation_raises(self):
        pt = sample_point(2, 9)
        spec = LatticeSpec(CS, 2, 4, Partition((1, 0)),
                           pt, SignedPermutation((1, 2)), SignedPermutation((1, 2)))
        with pytest.raises(UsageError):
            fn.closed_form_opposite(spec)


class TestRecursions:
    def test_si_signed_all_hypothesis_cases(self):
        pt = sample_point(2, 10)
        lam = Partition((2, 1))
        tau = SignedPermutation((1, 2))
        tested = 0
        for sig in all_signed_permutations(2):
            if sig(2) > sig(1):
                spec = LatticeSpec(CS, 2, 4, lam, pt, sig, tau)
                assert fn.check_recursion_si(spec, 1)
                tested += 1
        assert tested == 4

    def test_si_prefactor_unit_for_both_positive(self):
        pt = sample_point(2, 11)
        spec = LatticeSpec(CS, 2, 4, Partition((2, 1)), pt,
                           SignedPermutation((1, 2)), SignedPermutation((1, 2)))
        q = pt.q
        # sigma(1), sigma(2) both positive: prefactor q^0 = 1
        pref = q ** ((1 if spec.sigma(2) > 0 else 0) - (1 if spec.sigma(1) > 0 else 0))
        assert pref == 1
        assert fn.check_recursion_si(spec, 1)

    def test_sn_signed(self):
        lam = Partition((1,))
        for seed in range(3):
            pt = sample_point(1, seed)
            spec = LatticeSpec(CS, 1, 2, lam, pt,
                               SignedPermutation((1,)), SignedPermutation((1,)))
            assert fn.check_recursion_sn(spec)
        pt = sample_point(2, 12)
        spec = LatticeSpec(CS, 2, 4, Partition((2, 1)), pt,
                           SignedPermutation((1, 2)), SignedPermutation((-2, 1)))
        assert fn.check_recursion_sn(spec)

    def test_si_positive(self):
        pt = sample_point(2, 13)
        spec = LatticeSpec(CP, 2, 4, Partition((2, 1)), pt,
                           SignedPermutation((1, 2)), SignedPermutation((2, 1)))
        assert fn.check_recursion_si(spec, 1)

    def test_hypothesis_violations_raise(self):
        pt = sample_point(2, 14)
        spec = LatticeSpec(CS, 2, 4, Partition((2, 1)), pt,
                           SignedPermutation((2, 1)), SignedPermutation((1, 2)))
        with pytest.raises(UsageError):
            fn.check_recursion_si(spec, 1)       # sigma(2) < sigma(1)
        spec2 = LatticeSpec(CS, 2, 4, Partition((2, 1)), pt,
                            SignedPermutation((1, -2)), SignedPermutation((1, 2)))
        with pytest.raises(UsageError):
            fn.check_recursion_sn(spec2)         # sigma(n) < 0
        spec3 = LatticeSpec(CP, 2, 4, Partition((2, 1)), pt,
                            SignedPermutation((1, 2)), SignedPermutation((1, 2)))
        with pytest.raises(UsageError):
            fn.check_recursion_si(spec3, 2)      # index out of range


class TestDividedDifferenceOperators:
    UP = fn.UPoint((F(3, 5), F(7, 11)), F(2))

    def test_constant_function(self):
        one = lambda u: F(1)
        for i in (1, 2):
            assert fn.dl_apply("L", i, self.UP, one) == self.UP.v
            assert fn.dl_apply("Lhat", i, self.UP, one) == 1

    def test_linear_function(self):
        assert fn.dl_apply("L", 1, self.UP, lambda u: u[0]) == self.UP.u[1]

    def test_quadratic_relation_on_monomials(self):
        v = F(3, 2)
        up = fn.UPoint((F(2, 7), F(9, 4)), v)
        for e in itertools.product(range(4), repeat=2):
            if sum(e) > 3:
                continue
            f = lambda u, e=e: u[0] ** e[0] * u[1] ** e[1]
            for i in (1, 2):
                Lf = lambda u, i=i, f=f: fn.dl_apply("L", i, fn.UPoint(u, v), f)
                assert fn.dl_apply("Lhat", i, up, Lf) == v * f(up.u)

    def test_each_operator_evaluates_f_once_per_point(self):
        # L and Lhat read f at u and at s_i u, one call each
        for kind in ("L", "Lhat"):
            for i in (1, 2):
                calls = []
                fn.dl_apply(kind, i, self.UP, lambda u: calls.append(u) or u[0] + 2 * u[1])
                assert sorted(calls) == sorted([self.UP.u, fn.s_on_u(self.UP.u, i)])

    def test_singularities_raise(self):
        with pytest.raises(UsageError):
            fn.dl_apply("L", 1, fn.UPoint((F(2), F(2)), F(3)), lambda u: F(1))
        with pytest.raises(UsageError):
            fn.dl_apply("L", 2, fn.UPoint((F(2), F(1)), F(3)), lambda u: F(1))
        with pytest.raises(UsageError):
            fn.dl_apply("bogus", 1, self.UP, lambda u: F(1))

    def test_change_of_variables_roundtrip(self):
        pt = sample_point(2, 15)
        u = fn.u_from_z(pt)
        back = fn.z_from_u(u, pt.q)
        assert back == pt
        # s_n on u corresponds to z_n -> 1/z_n'
        moved = fn.z_from_u(fn.s_on_u(u, 2), pt.q)
        assert moved.z[-1] == 1 / pt.zp(2)

    def test_u_coefficient_identities(self):
        for seed in range(5):
            assert fn.u_coefficient_identities(sample_point(2, seed))


class TestOperatorRecursion:
    def test_matches_direct_recursions(self):
        pt = sample_point(2, 16)
        lam = Partition((2, 1))
        tau = SignedPermutation((2, 1))
        for sig in all_signed_permutations(2):
            spec = LatticeSpec(CS, 2, 4, lam, pt, sig, tau)
            if sig(2) > sig(1):
                direct = fn.check_recursion_si(spec, 1)
                assert fn.check_dl_recursion(spec, 1) == direct == True
            if sig(2) > 0:
                direct = fn.check_recursion_sn(spec)
                assert fn.check_dl_recursion(spec, 2) == direct == True

    def test_single_row_operator_recursion(self):
        # n = 1: the only generator is s_n, acting as u_1 -> 1/u_1
        for seed in range(5):
            pt = sample_point(1, seed)
            spec = LatticeSpec(CS, 1, 3, Partition((1,)), pt,
                               SignedPermutation((1,)), SignedPermutation((1,)))
            assert fn.check_dl_recursion(spec, 1)
            assert fn.check_recursion_sn(spec)

    def test_ztilde_normalization(self):
        pt = sample_point(2, 17)
        sig = SignedPermutation((-1, 2))
        spec = LatticeSpec(CS, 2, 4, Partition((1, 1)), pt, sig,
                           SignedPermutation((1, 2)))
        u = fn.u_from_z(pt)
        q = pt.q
        expected = partition_function(spec) \
            * q ** ((2 - 2) + (4 + 1) * 1) / (pt.z[0] ** 4 * pt.z[1] ** 4)
        assert fn.ztilde(spec, u) == expected
