import hashlib
import math
import random
from fractions import Fraction as F

import pytest

from symplectic_ice.dynamics import ESCAPE, exhaustive_distribution
from symplectic_ice.functional import closed_form_opposite
from symplectic_ice.lattice import (LatticeSpec, Partition, SignedPermutation, SpecError,
                                    _capped, _closes, _column_transfer, all_signed_permutations,
                                    boundary_assignment, bottom_outcome,
                                    count_states, enumerate_states, label_bits, pack_word,
                                    packed_step, particle_columns, partition_and_count,
                                    partition_function, row_family, spec_rows, step_table,
                                    sweep_vertex, transfer_right_edge_weights, unpack_word)
from symplectic_ice.rationals import ParamPoint, sample_point, sample_regime_point, zprime
from symplectic_ice.weights import (Family, Model, alphabet, cap_map, integer_classes,
                                    integer_table, pattern_table)

UR, UA = Model.UNCOLORED_REFLECTING, Model.UNCOLORED_ABSORBING
CS, CP = Model.COLORED_SIGNED, Model.COLORED_POSITIVE


def enumerated_z(spec):
    """Z summed over the enumerated states: the oracle for the transfer."""
    return sum((w for _, w in enumerate_states(spec)), F(0))


class TestSignedPermutation:
    def test_composition_right_to_left(self):
        s = SignedPermutation((2, -1, 3))
        t = SignedPermutation((3, 1, -2))
        st = s * t
        assert st.images == tuple(s(t(i)) for i in (1, 2, 3))
        assert s(-2) == -s(2)

    def test_generator_action(self):
        s = SignedPermutation((2, -1, 3))
        assert s.times_s(1).images == (-1, 2, 3)
        assert s.times_s(3).images == (2, -1, -3)

    def test_validation(self):
        with pytest.raises(SpecError):
            SignedPermutation((1, 1))
        with pytest.raises(SpecError):
            SignedPermutation((0, 2))


class TestBoundary:
    def test_particle_columns_figure_instance(self):
        # n = 2, lambda = (2, 1), L = 4: particles at columns 4 and 2
        assert particle_columns(Partition((2, 1))) == (4, 2)

    def test_boundary_figure_instance(self):
        pt = sample_point(2, 1)
        spec = LatticeSpec(UR, 2, 4, Partition((2, 1)), pt)
        bnd = boundary_assignment(spec)
        assert bnd.left == (0, -1, 0, -1)          # rows 1..4: D, G, D, G
        assert bnd.top == (0, 0, 0, 0)
        assert bnd.bottom == (0, -1, 0, -1)        # columns 1..4: - at 2 and 4

    def test_zero_partition_bottom(self):
        pt = sample_point(2, 1)
        spec = LatticeSpec(UR, 2, 4, Partition((0, 0)), pt)
        assert boundary_assignment(spec).bottom == (-1, -1, 0, 0)

    def test_colored_left_labels(self):
        pt = sample_point(2, 1)
        spec = LatticeSpec(CS, 2, 4, Partition((0, 0)), pt,
                           SignedPermutation((1, 2)), SignedPermutation((1, 2)))
        bnd = boundary_assignment(spec)
        assert bnd.left == (0, 1, 0, 2)   # c_1, c_2 on the Gamma rows bottom-up

    def test_spec_validation(self):
        pt = sample_point(2, 1)
        with pytest.raises(SpecError):
            LatticeSpec(UR, 2, 2, Partition((2, 1)), pt)       # L < lambda_1 + n'
        with pytest.raises(SpecError):
            LatticeSpec(UR, 2, 4, Partition((1,)), pt)         # reflecting needs n' = n
        with pytest.raises(SpecError):
            LatticeSpec(CS, 2, 4, Partition((0, 0)), pt)       # missing sigma/tau
        with pytest.raises(SpecError):
            LatticeSpec(CP, 2, 4, Partition((0, 0)), pt,
                        SignedPermutation((-1, 2)), SignedPermutation((1, 2)))
        with pytest.raises(SpecError):
            LatticeSpec(UA, 1, 3, Partition((1,)), pt)         # point has n = 2


class TestEnumeration:
    def test_two_state_example(self):
        # frozen by hand: the Gamma vertex takes its two completions of
        # inputs (-, +); weights q z (1 - z'/q) and (1 - q z) z'
        pt = ParamPoint((F(1, 2),), F(2))
        spec = LatticeSpec(UR, 1, 1, Partition((0,)), pt)
        states = list(enumerate_states(spec))
        assert len(states) == 2
        assert partition_function(spec) == F(1, 2)

    def test_reflecting_value_generic(self):
        pt = sample_point(1, 21)
        z, q = pt.z[0], pt.q
        zp = zprime(z, q)
        spec = LatticeSpec(UR, 1, 1, Partition((0,)), pt)
        assert partition_function(spec) == q * z * (1 - zp / q) + (1 - q * z) * zp

    def test_absorbing_empty_bottom(self):
        pt = sample_point(1, 22)
        spec = LatticeSpec(UA, 1, 1, Partition(()), pt)
        assert partition_function(spec) == pt.q * pt.z[0]

    def test_colored_unique_state(self):
        pt = sample_point(1, 23)
        z, q = pt.z[0], pt.q
        spec = LatticeSpec(CS, 1, 1, Partition((0,)), pt,
                           SignedPermutation((-1,)), SignedPermutation((1,)))
        states = list(enumerate_states(spec))
        assert len(states) == 1
        assert partition_function(spec) == z * (1 - zprime(z, q) / q)

    def test_degenerate_point_counts_zero_weight_states(self):
        # q z_i = 1 zeroes the weight 1 - q z of a listed Gamma pattern; the
        # states using it are still admissible and still counted
        pt = ParamPoint((F(1, 2), F(1, 2)), F(2))
        spec = LatticeSpec(UR, 2, 4, Partition((2, 1)), pt)
        states = list(enumerate_states(spec))
        assert len(states) == 75
        assert sum(1 for _, w in states if w == 0) == 73
        assert partition_function(spec) == enumerated_z(spec)

    def test_unreachable_bottom_has_empty_stream(self):
        # a bottom the conservation laws forbid yields zero states, not an
        # error: one absorbed-or-emitted particle always flips the parity
        spec = LatticeSpec(UA, 1, 2, Partition((1,)), sample_point(1, 25))
        assert partition_function(spec) == 0
        assert list(enumerate_states(spec)) == []

    def test_absorbing_even_particle_parity(self):
        # each cap absorbs or emits exactly one particle, so the bottom
        # carries an even number of them
        pt = sample_point(2, 26)
        assert partition_function(LatticeSpec(UA, 2, 4, Partition((1,)), pt)) == 0
        assert partition_function(LatticeSpec(UA, 2, 4, Partition((1, 1, 0)), pt)) == 0

    def test_bottom_outcome_roundtrip(self):
        pt = sample_point(2, 27)
        lam = Partition((2, 1))
        spec = LatticeSpec(UR, 2, 4, lam, pt)
        for config, _ in enumerate_states(spec):
            parts, colors = bottom_outcome(config)
            assert parts == lam.parts
            assert colors is None

    @pytest.mark.parametrize("model,lam,sigma,tau,states,digest", [
        (UR, (1, 0), None, None, 30,
         "41ffe6ed365066d3e62dd3cc20d2c1d5906e02e1785c629bce0027e659af6984"),
        (UA, (2, 1), None, None, 40,
         "bd8816e7cc9c8f3db6793d0052722808a364409514cbe73bd618f0bd7579400e"),
        (CS, (1, 0), (1, -2), (-2, 1), 6,
         "c24b3254ee8bede14b1443c578ac66c95d84289356a275a0d4428d502865cdad"),
        (CP, (1, 0), (2, 1), (1, 2), 18,
         "ff965a4aecc7febea4e868779aa71ba3465dccde8e2d2eb7b38154c6515f007c"),
    ])
    def test_state_stream_order_is_pinned(self, model, lam, sigma, tau, states, digest):
        # render --state-index picks a state by its position in this stream,
        # so the order of states (and their weights) is part of the interface
        spec = LatticeSpec(model, 2, 4, Partition(lam), ParamPoint((F(1, 3), F(2, 5)), F(3, 2)),
                           sigma and SignedPermutation(sigma), tau and SignedPermutation(tau))
        h = hashlib.sha256()
        count = 0
        for config, weight in enumerate_states(spec):
            h.update(repr((config.vert, config.hor, str(weight))).encode())
            count += 1
        assert (count, h.hexdigest()) == (states, digest)


class TestTransferAgreement:
    @pytest.mark.parametrize("model,n,L,lam,seeds", [
        (UR, 1, 4, (2,), (0, 1, 2)),
        (UR, 2, 4, (2, 1), (3, 4, 5)),
        (UR, 2, 6, (3, 1), (6, 7)),
        (UA, 1, 3, (1, 0), (8, 9)),
        (UA, 2, 4, (2, 0), (10, 11)),
        (UA, 2, 6, (), (12,)),
    ])
    def test_uncolored(self, model, n, L, lam, seeds):
        for seed in seeds:
            spec = LatticeSpec(model, n, L, Partition(lam), sample_point(n, seed))
            assert partition_function(spec) == enumerated_z(spec)

    @pytest.mark.parametrize("model,sigma,tau,seeds", [
        (CS, (1, 2), (-2, 1), (0, 1, 2, 3, 4)),
        (CS, (-2, 1), (1, 2), (5, 6, 7, 8, 9)),
        (CP, (2, 1), (1, 2), (10, 11, 12, 13, 14)),
    ])
    def test_colored_L6(self, model, sigma, tau, seeds):
        for seed in seeds:
            spec = LatticeSpec(model, 2, 6, Partition((2, 1)), sample_point(2, seed),
                               SignedPermutation(sigma), SignedPermutation(tau))
            assert partition_function(spec) == enumerated_z(spec)

    @pytest.mark.parametrize("L,lam", [(4, (0, 0, 0, 0)), (5, (1, 0, 0, 0)),
                                       (5, (1, 1, 1, 0))])
    def test_signed_n4_opposite_boundary_closed_form(self, L, lam):
        # sigma = -tau forces a unique state with a product formula
        for k, sigma in enumerate([(1, 2, 3, 4), (-1, -2, -3, -4),
                                   (2, -4, 1, -3), (-3, 1, 4, -2)]):
            spec = LatticeSpec(CS, 4, L, Partition(lam), sample_point(4, 40 + k),
                               SignedPermutation(sigma),
                               SignedPermutation(tuple(-v for v in sigma)))
            assert partition_function(spec) == closed_form_opposite(spec)

    def test_all_families_up_to_L6_at_ten_points(self):
        # representative instances of every family at n <= 2, L <= 6
        cases = []
        for n, L in [(1, 3), (1, 6), (2, 4), (2, 6)]:
            ident = SignedPermutation.identity(n)
            rev = SignedPermutation(tuple(range(n, 0, -1)))
            neg = SignedPermutation(tuple(-i for i in range(1, n + 1)))
            lam_hi = Partition((L - n,) + (0,) * (n - 1))
            lam_lo = Partition((0,) * n)
            for lam in (lam_hi, lam_lo):
                cases.append((UR, n, L, lam, None, None))
            for lam in (Partition(()), Partition((L - 2, 0))):
                cases.append((UA, n, L, lam, None, None))
            cases.append((CS, n, L, lam_hi, neg, ident))
            cases.append((CP, n, L, lam_lo, rev, ident))
        for model, n, L, lam, sigma, tau in cases:
            for k in range(10):
                spec = LatticeSpec(model, n, L, lam, sample_point(n, 50 + k),
                                   sigma, tau)
                assert partition_function(spec) == enumerated_z(spec)


#: (model, n, L, lambda, sigma, tau): one n = 1 and one n = 2 spec per
#: family, and one n = 3 spec
COUNTED_SPECS = [
    (UR, 1, 3, (1,), None, None), (UA, 1, 3, (1, 0), None, None),
    (CS, 1, 3, (1,), (-1,), (1,)), (CP, 1, 3, (1,), (1,), (1,)),
    (UR, 2, 4, (1, 0), None, None), (UA, 2, 4, (2, 1), None, None),
    (CS, 2, 4, (1, 0), (1, -2), (-2, 1)), (CP, 2, 4, (1, 0), (2, 1), (1, 2)),
    (UR, 3, 4, (1, 0, 0), None, None),
]

#: A generic point, and a degenerate one: q z_1 = 1, so the listed weight
#: 1 - q z_1 is 0 and some states weigh 0
COUNTED_POINTS = [((F(2, 7), F(3, 11), F(5, 13)), F(5, 3)),
                  ((F(1, 2), F(1, 3), F(1, 4)), F(2))]


class TestCountingTransfer:
    @pytest.mark.parametrize("z,q", COUNTED_POINTS)
    @pytest.mark.parametrize("model,n,L,lam,sigma,tau", COUNTED_SPECS)
    def test_counts_and_integer_z_equal_enumeration(self, model, n, L, lam, sigma, tau, z, q):
        spec = LatticeSpec(model, n, L, Partition(lam), ParamPoint(z[:n], q),
                           sigma and SignedPermutation(sigma), tau and SignedPermutation(tau))
        states = list(enumerate_states(spec))
        total = sum((w for _, w in states), F(0))
        assert count_states(spec) == len(states)
        assert partition_function(spec) == total
        assert partition_and_count(spec) == (total, len(states))

    def test_degenerate_point_has_zero_weight_states(self):
        # the counting run must keep them: here 28 of the 30 states weigh 0
        z, q = COUNTED_POINTS[1]
        spec = LatticeSpec(UR, 2, 4, Partition((1, 0)), ParamPoint(z[:2], q))
        weights = [w for _, w in enumerate_states(spec)]
        assert (count_states(spec), weights.count(0)) == (30, 28)
        assert partition_and_count(spec) == (sum(weights, F(0)), 30)

    @pytest.mark.parametrize("model,n,L,lam,sigma,tau", COUNTED_SPECS[4:8])
    def test_integer_rows_scale_each_row_by_its_denominator(self, model, n, L, lam, sigma,
                                                            tau):
        # row r is multiplied by D_r, the lcm of its denominators, which
        # spec_rows hands out with the tables
        spec = LatticeSpec(model, n, L, Partition(lam), sample_point(n, 60),
                           sigma and SignedPermutation(sigma), tau and SignedPermutation(tau))
        rows = spec_rows(spec)
        assert rows.boundary == boundary_assignment(spec)
        assert rows.scale == math.prod(rows.dens) ** L
        assert len(rows.tables) == 2 * n
        for r, (scaled, den) in enumerate(zip(rows.tables, rows.dens, strict=True), start=1):
            exact = pattern_table(model, row_family(r), (spec.point.z[(r - 1) // 2],),
                                  spec.point.q, spec.alphabet)
            assert den == math.lcm(*(w.denominator for w in exact.values()))
            assert den > 1
            assert scaled == {edges: w * den for edges, w in exact.items()}
            assert list(scaled) == list(exact)
            assert all(type(w) is int for w in scaled.values())


#: Every family with n <= 3 and L <= 6: absorbing with n' < n, and signed
#: sigma and tau with negative entries
CAPPED_SPECS = [
    (UR, 1, 6, (3,), None, None), (UR, 2, 6, (2, 1), None, None),
    (UR, 3, 6, (2, 1, 0), None, None),
    (UA, 1, 3, (), None, None), (UA, 2, 5, (2, 1), None, None),
    (UA, 3, 6, (2, 1), None, None), (UA, 3, 6, (1, 0), None, None),
    (CS, 1, 6, (2,), (-1,), (1,)), (CS, 2, 5, (1, 0), (1, -2), (-2, 1)),
    (CS, 3, 4, (1, 0, 0), (-1, 2, -3), (3, -1, 2)),
    (CP, 2, 6, (2, 1), (2, 1), (1, 2)), (CP, 3, 5, (1, 1, 0), (3, 1, 2), (2, 3, 1)),
]


class TestCappedTransfer:
    @pytest.mark.parametrize("model,n,L,lam,sigma,tau", CAPPED_SPECS)
    def test_capped_transfer_equals_the_open_one_closed_by_the_caps(self, model, n, L, lam,
                                                                    sigma, tau):
        # the caps closed inside column 1 keep exactly the (weight, count) of
        # the closing right ends, at a generic point and at z_1 = 1, where
        # listed weights vanish and states weigh 0
        letters = alphabet(model, n)
        b = label_bits(letters)
        for point in (sample_point(n, 40 + L), ParamPoint((F(1), F(1, 3), F(1, 4))[:n], F(1, 2))):
            spec = LatticeSpec(model, n, L, Partition(lam), point,
                               sigma and SignedPermutation(sigma), tau and SignedPermutation(tau))
            rows = spec_rows(spec)
            weight = count = 0
            for h, (w, num) in _column_transfer(rows, close=False).items():
                if _closes(model, unpack_word(h, letters, b, 2 * n)):
                    weight, count = weight + w, count + num
            assert count > 0
            assert _capped(rows) == (weight, count)
            assert partition_and_count(spec) == (F(weight, rows.scale), count)


class TestOpenRightEdge:
    @pytest.mark.parametrize("model,lam,z,q,sigma,tau,digest", [
        (UR, (2, 1), (F(1, 2), F(2, 7)), F(3, 2), None, None,
         "a084eed1ec2e30123f1d08ca9990e47bda9b252a4ff72308c33d8adb496cb31e"),
        (UA, (2, 0), (F(2, 3), F(3, 11)), F(1, 2), None, None,
         "02c28194474cc4d74ceaf5cf8f4ff3e9ddfad9bf26a428bd01b6cd520be683ba"),
        (CS, (1, 0), (F(2, 7), F(3, 5)), F(3, 2), (1, -2), (-2, 1),
         "71428f781c5c658523fd99a7867e4bae013205ea140f132134a466277065650d"),
        (CP, (1, 0), (F(2, 7), F(3, 5)), F(3, 2), (2, 1), (1, 2),
         "df8d44ca78d6772cee68d3295a03ef61e87f150873b49a41700bc65e5d859350"),
    ])
    def test_right_edge_weights_are_pinned(self, model, lam, z, q, sigma, tau, digest):
        # the right ends, their order and their exact weights, one spec a family
        L = 5 if model in (UR, UA) else 4
        spec = LatticeSpec(model, 2, L, Partition(lam), ParamPoint(z, q),
                           sigma and SignedPermutation(sigma), tau and SignedPermutation(tau))
        ends = transfer_right_edge_weights(spec)
        assert hashlib.sha256(repr(list(ends.items())).encode()).hexdigest() == digest
        assert sum(w for h, w in ends.items()
                   if all(cap_map(model, h[r]) == h[r - 1] for r in (1, 3))) \
            == partition_function(spec)


def _tuple_sweep(front, table, k):
    """``sweep_vertex`` on (word tuple, carried label) keys: the oracle."""
    nxt = {}
    for (word, cur), (weight, count) in front.items():
        for out, letter, w in table[(cur, word[k])]:
            key = (word[:k] + (letter,) + word[k + 1:], out)
            old = nxt.get(key, (0, 0))
            nxt[key] = (old[0] + weight * w, old[1] + count)
    return nxt


class TestPackedKeys:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_round_trip_on_signed_words(self, n):
        # 2n letters of 2n + 1 labels: b = 5 bits and 16 letters at n = 8
        letters = alphabet(CS, n)
        index = {label: i for i, label in enumerate(letters)}
        b = label_bits(letters)
        assert 1 << (b - 1) < len(letters) <= 1 << b
        rng = random.Random(n)
        for _ in range(200):
            word = tuple(rng.choice(letters) for _ in range(2 * n))
            key = pack_word(word, index, b)
            assert key & ((1 << b) - 1) == 0
            assert unpack_word(key, letters, b, 2 * n) == word
            assert unpack_word(key | rng.randrange(len(letters)), letters, b, 2 * n) == word

    def test_uncolored_labels_take_one_bit(self):
        assert label_bits((-1, 0)) == 1 and label_bits((0,)) == 1
        assert label_bits(alphabet(CS, 8)) == 5 and label_bits(alphabet(CP, 7)) == 3

    @pytest.mark.parametrize("model,n", [(UR, 3), (UA, 2), (CS, 1), (CS, 3), (CP, 4), (CS, 8)])
    def test_sweep_agrees_with_tuple_keys(self, model, n):
        # every vertex position of a random frontier, keys in the same order
        letters = alphabet(model, n)
        index = {label: i for i, label in enumerate(letters)}
        b = label_bits(letters)
        table, _ = integer_table(model, Family.GAMMA, (F(2, 7),), F(3, 2), letters)
        steps = step_table(table, 1, 0)
        ints = integer_classes(model, Family.GAMMA, (F(2, 7),), F(3, 2), letters)
        packed = packed_step(model, Family.GAMMA, letters, ints, 1, 0)
        rng = random.Random(n)
        front = {}
        for _ in range(60):
            word = tuple(rng.choice(letters) for _ in range(2 * n))
            front[(word, rng.choice(letters))] = (rng.randrange(-50, 50), rng.randrange(1, 9))
        for k in range(2 * n):
            expected = _tuple_sweep(front, steps, k)
            got = sweep_vertex({pack_word(word, index, b) | index[cur]: pair
                                for (word, cur), pair in front.items()}, packed, k, b)
            assert [((unpack_word(key, letters, b, 2 * n), letters[key & ((1 << b) - 1)]), pair)
                    for key, pair in got.items()] == list(expected.items())


class TestProbabilisticStructure:
    @pytest.mark.parametrize("model", [UR, UA, CS, CP])
    def test_outcome_probabilities_sum_to_one(self, model):
        # partition functions over all reachable bottoms + escape mass = 1,
        # cross-checked against the dynamics' exhaustive path sum, n=1, L<=3
        for L in (1, 2, 3):
            pt = sample_regime_point(1, 30 + L)
            sig = SignedPermutation((1,)) if model.colored else None
            lam0 = Partition(()) if model is UA else Partition((0,))
            spec = LatticeSpec(model, 1, L, lam0, pt, sig, sig)
            dist = exhaustive_distribution(spec)
            assert sum(dist.values()) == 1
            for key, p in dist.items():
                if key == ESCAPE:
                    continue
                parts, colors = key
                tau = SignedPermutation(colors) if colors else sig
                z = partition_function(LatticeSpec(model, 1, L, Partition(parts),
                                                   pt, sig, tau))
                assert z == p

    def test_state_weights_in_unit_interval_in_regime(self):
        pt = sample_regime_point(2, 77)
        spec = LatticeSpec(UR, 2, 4, Partition((1, 0)), pt)
        states = list(enumerate_states(spec))
        assert states
        for _, w in states:
            assert 0 <= w <= 1

    def test_color_conservation_end_to_end(self):
        pt = sample_point(2, 78)
        sig = SignedPermutation((-1, 2))
        for tau in all_signed_permutations(2):
            spec = LatticeSpec(CS, 2, 4, Partition((1, 0)), pt, sig, tau)
            for config, _ in enumerate_states(spec):
                parts, colors = bottom_outcome(config)
                entering = sorted(cap_map(CS, sig(i)) for i in (1, 2))
                # each strand's exit color is its entry color or its cap
                # image; the absolute color types must match exactly
                assert sorted(abs(c) for c in colors) == sorted(abs(e) for e in entering)
