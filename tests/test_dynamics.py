import math
from fractions import Fraction as F

import numpy as np
import pytest

from symplectic_ice import dynamics, weights
from symplectic_ice.dynamics import (ESCAPE, POOLED, Sampler, SamplerConfig,
                                     SamplerSoundnessError, SampleSummary,
                                     chi2_quantile, compare_empirical_to_exact,
                                     configuration_weight,
                                     exact_outcome_probabilities,
                                     exhaustive_distribution, mix64,
                                     run_sampler, sample_configuration,
                                     trajectory_from_configuration)
from symplectic_ice.lattice import (LatticeSpec, Partition, SignedPermutation,
                                    enumerate_states, partition_function, spec_rows)
from symplectic_ice.rationals import ParamPoint
from symplectic_ice.weights import Family, Model, pattern_table

from scalar_sampler import ScalarSampler, scalar_run
from scipy_chi2_quantiles import CHI2_PPF_0999

UR, UA = Model.UNCOLORED_REFLECTING, Model.UNCOLORED_ABSORBING
CS, CP = Model.COLORED_SIGNED, Model.COLORED_POSITIVE

POINT1 = ParamPoint((F(3, 4),), F(1, 2))
POINT2 = ParamPoint((F(3, 4), F(3, 4)), F(1, 2))


def reflecting_spec(n=1, L=2):
    pt = POINT1 if n == 1 else POINT2
    return LatticeSpec(UR, n, L, Partition((0,) * n), pt)


class TestRng:
    def test_mix64_deterministic_and_orderfree(self):
        assert mix64(1, 2, 3, 4) == mix64(1, 2, 3, 4)
        assert mix64(1, 2, 3, 4) != mix64(1, 2, 4, 3)
        assert 0 <= mix64(2**63, 0, 5, 7) < 2**64

    def test_rough_uniformity(self):
        counts = [0] * 8
        for k in range(8000):
            counts[mix64(9, k, 1, 1) >> 61] += 1
        assert all(abs(c - 1000) < 150 for c in counts)


class TestSampler:
    def test_regime_required(self):
        bad = LatticeSpec(UR, 1, 2, Partition((0,)), ParamPoint((F(3, 4),), F(2)))
        with pytest.raises(ValueError):
            SamplerConfig(bad, 1, 10)

    @pytest.mark.parametrize("num", [0, -5])
    def test_sample_count_required(self, num):
        with pytest.raises(ValueError, match="at least 1 sample"):
            SamplerConfig(reflecting_spec(), 1, num)

    def test_reproducibility(self):
        cfg = SamplerConfig(reflecting_spec(), seed=5, num_samples=500)
        a = run_sampler(cfg)
        b = run_sampler(SamplerConfig(reflecting_spec(), seed=5, num_samples=500))
        assert a.histogram == b.histogram and a.escape_count == b.escape_count
        one = sample_configuration(cfg, 33)
        two = sample_configuration(cfg, 33)
        assert one.config == two.config and one.key == two.key

    @pytest.mark.parametrize("index", [-1, 2**63])
    def test_sample_index_out_of_range(self, index):
        config = SamplerConfig(reflecting_spec(), 1, 10)
        with pytest.raises(ValueError, match=r"0 <= index < 2\*\*63, got "):
            Sampler(config).sample(index)
        with pytest.raises(ValueError, match=r"0 <= index < 2\*\*63, got "):
            sample_configuration(config, index)

    def test_sample_index_range_ends(self):
        config = SamplerConfig(reflecting_spec(), 1, 10)
        sampler, scalar = Sampler(config), ScalarSampler(config)
        for index in (0, 2**63 - 1):
            out, expected = sampler.sample(index), scalar.sample(index)
            assert (out.config.vert, out.key) == (expected.config.vert, expected.key)

    def test_counts_sum(self):
        summary = run_sampler(SamplerConfig(reflecting_spec(), 1, 300))
        assert sum(summary.histogram.values()) == 300

    def test_degenerate_point_deterministic_row(self):
        # q z = 1 makes the occupied Gamma input deterministic: the particle
        # always travels to the cap (pattern of weight q z = 1), so the
        # Gamma row's right end always carries it; the Delta row then exits
        # bottom or escapes with probability 1/2 each (z'/q = 1/2)
        spec = LatticeSpec(UR, 1, 1, Partition((0,)), ParamPoint((F(1, 2),), F(2)))
        sampler = Sampler(SamplerConfig(spec, 3, 1))
        for index in range(100):
            out = sampler.sample(index)
            assert out.config.hor[2][0] == -1
        dist = exhaustive_distribution(spec)
        assert dist == {((0,), None): F(1, 2), ESCAPE: F(1, 2)}
        summary = run_sampler(SamplerConfig(spec, 3, 200))
        assert set(summary.histogram) <= {((0,), None), ESCAPE}

    def test_per_sample_weight_identity(self):
        # the product of conditional probabilities used while generating a
        # non-escaping sample is the Boltzmann weight of the configuration:
        # retrace the sweep multiplying the table weights
        spec = LatticeSpec(CS, 2, 3, Partition((0, 0)), POINT2,
                           SignedPermutation((1, 2)), SignedPermutation((1, 2)))
        sampler = Sampler(SamplerConfig(spec, 11, 1))
        hits = 0
        for index in range(200):
            out = sampler.sample(index)
            if out.escaped:
                continue
            hits += 1
            w = configuration_weight(spec, out.config)
            assert w > 0
            # independent accounting: weight of the realized bottom boundary
            parts, colors = out.key
            spec_out = LatticeSpec(CS, 2, 3, Partition(parts), POINT2,
                                   spec.sigma, SignedPermutation(colors))
            states = {cfg: wt for cfg, wt in enumerate_states(spec_out)}
            assert states[out.config] == w
        assert hits > 0

    @pytest.mark.parametrize("model, sigma, histogram", [
        (UR, None, {ESCAPE: 185, ((0, 0), None): 2, ((1, 0), None): 4, ((1, 1), None): 9}),
        (UA, None, {ESCAPE: 189, ((0, 0), None): 1, ((1, 0), None): 6, ((1, 1), None): 4}),
        (CS, (2, -1), {ESCAPE: 151, ((0, 0), (-2, 1)): 1, ((0, 0), (1, -2)): 3,
                       ((0, 0), (2, -1)): 2, ((0, 0), (2, 1)): 2, ((1, 0), (-1, 2)): 1,
                       ((1, 0), (1, -2)): 2, ((1, 0), (2, -1)): 7, ((1, 0), (2, 1)): 2,
                       ((1, 1), (-1, -2)): 1, ((1, 1), (-1, 2)): 3, ((1, 1), (1, 2)): 3,
                       ((1, 1), (2, -1)): 7, ((1, 1), (2, 1)): 15}),
        (CP, (2, 1), {ESCAPE: 185, ((0, 0), (1, 2)): 1, ((0, 0), (2, 1)): 1,
                      ((1, 0), (1, 2)): 3, ((1, 0), (2, 1)): 1, ((1, 1), (1, 2)): 1,
                      ((1, 1), (2, 1)): 8}),
    ])
    def test_histogram_pinned_per_family(self, model, sigma, histogram):
        # 200 samples at seed 7: reordering the outputs of any conditional
        # table moves samples between outcomes
        sig = SignedPermutation(sigma) if sigma else None
        lam = Partition(()) if model is UA else Partition((0, 0))
        point = ParamPoint((F(3, 4), F(4, 5)), F(1, 2))
        summary = run_sampler(SamplerConfig(LatticeSpec(model, 2, 3, lam, point, sig, sig), 7, 200))
        assert summary.histogram == histogram

    def test_escapes_are_outcomes(self):
        summary = run_sampler(SamplerConfig(reflecting_spec(), 2, 2000))
        assert summary.escape_count > 0
        assert summary.histogram.get(ESCAPE, 0) == summary.escape_count


class TestThresholds:
    @pytest.mark.parametrize("model", [UR, UA, CS, CP])
    @pytest.mark.parametrize("n", [1, 2])
    def test_thresholds_from_pattern_table(self, model, n):
        # ceil(cum * 2^64) over the exact weights of each row's pattern
        # table, straight-through output first: Gamma rows keyed by (left,
        # top), Delta rows by (right, top)
        spec = TestBatch.spec(model, n)
        tables = dynamics._conditional_tables(spec_rows(spec))
        assert len(tables) == 2 * n
        for r, conditional in enumerate(tables, start=1):
            if r % 2 == 0:
                family, in_slots, out_slots = Family.GAMMA, (0, 1), (2, 3)
            else:
                family, in_slots, out_slots = Family.DELTA, (2, 1), (0, 3)
            rows: dict = {}
            for edges, w in pattern_table(model, family, (spec.point.z[(r - 1) // 2],),
                                          spec.point.q, spec.alphabet).items():
                rows.setdefault(tuple(edges[s] for s in in_slots), []).append(
                    (tuple(edges[s] for s in out_slots), w))
            expected = {}
            for (cur, top), entries in rows.items():
                entries.sort(key=lambda entry: entry[0][0] != cur)
                cum, thresholds = F(0), []
                for _, w in entries:
                    cum += w
                    thresholds.append(math.ceil(cum * 2**64))
                assert cum == 1
                expected[(cur, top)] = ([outputs for outputs, _ in entries], thresholds)
            assert conditional == expected


class TestBatch:
    """The batched sweep of ``Sampler`` against the scalar oracle of
    ``scalar_sampler``, which calls ``mix64`` once per vertex."""

    WORDS = (0, 1, 2**63, 2**64 - 1)

    @staticmethod
    def spec(model, n):
        point = ParamPoint(tuple(F(3, 4) + F(k, 50) for k in range(n)), F(1, 2))
        sig = SignedPermutation.identity(n) if model.colored else None
        lam = Partition(()) if model is UA else Partition((0,) * n)
        return LatticeSpec(model, n, n + 2, lam, point, sig, sig)

    @pytest.mark.parametrize("model", [UR, UA, CS, CP])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_batch_equals_scalar_loop(self, model, n, monkeypatch):
        # a chunk of 64 samples puts N = 65 and N = 300 across chunk
        # boundaries; seeds -1 and 2**64 + 5 are masked to 64 bits
        monkeypatch.setattr(dynamics, "_CHUNK", 64)
        spec = self.spec(model, n)
        for seed in (0, 11, -1, 2**64 + 5):
            for num in (1, 65, 300):
                config = SamplerConfig(spec, seed, num)
                batch, scalar = run_sampler(config), scalar_run(config)
                assert list(batch.histogram.items()) == list(scalar.histogram.items())
                assert batch.escape_count == scalar.escape_count

    def test_batch_across_a_real_chunk(self, monkeypatch):
        config = SamplerConfig(reflecting_spec(1, 2), 3, dynamics._CHUNK + 1)
        scalar = scalar_run(config)
        monkeypatch.setattr(dynamics.Sampler, "sample", None)   # the batch never calls it
        batch = run_sampler(config)
        assert list(batch.histogram.items()) == list(scalar.histogram.items())
        assert batch.escape_count == scalar.escape_count

    @pytest.mark.parametrize("model", [UR, UA, CS, CP])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_samples_equal_scalar_oracle(self, model, n, monkeypatch):
        # Sampler.sample sweeps one index, whatever the chunk size
        monkeypatch.setattr(dynamics, "_CHUNK", 16)
        spec = self.spec(model, n)
        for seed in (0, -1, 2**64 + 5):
            config = SamplerConfig(spec, seed, 1)
            sampler, oracle = Sampler(config), ScalarSampler(config)
            expected = [oracle.sample(index) for index in range(40)]
            got = [sampler.sample(index) for index in range(40)]
            assert got == expected
            state = got[-1].config
            assert all(type(label) is int for row in state.vert + state.hor[1:] for label in row)
            assert state.hor[0] == (None,) * (spec.L + 1)
            assert all(type(out.escaped) is bool for out in got)

    def test_array_hash_equals_mix64(self):
        words = np.array(self.WORDS, dtype=np.uint64)
        for seed in self.WORDS + (-1, 2**64 + 5):
            by_index = dynamics._mix_round(dynamics._seed_round(seed), words)
            for r in self.WORDS:
                by_row = dynamics._mix_round(by_index, np.uint64(r))
                for c in self.WORDS:
                    got = dynamics._mix_round(by_row, np.uint64(c)).tolist()
                    assert got == [mix64(seed, index, r, c) for index in self.WORDS]

    def test_pick_equals_scalar_loop(self):
        top = 2**64
        index = {0: 0, -1: 1}
        pairs = [(0, 0), (-1, -1), (0, -1), (-1, 0)]
        conditional = {
            (0, 0): (pairs[:3], [0, 2**63, top]),       # leading zero weight
            (0, -1): (pairs[:3], [2**63, top, top]),    # a non-final 2^64
            (-1, 0): (pairs, [1, 2**63, top - 1, top]),
            (-1, -1): (pairs[:1], [top]),               # padded slots
        }
        limits, outs, bottoms, K = dynamics._pack_row(conditional, index)
        us = (0, 1, 2**63 - 1, 2**63, top - 2, top - 1)
        for (cur, top_label), (entries, thresholds) in conditional.items():
            key = index[cur] * len(index) + index[top_label]
            keys = np.full(len(us), key, dtype=np.intp)
            slots = key * K + dynamics._pick(limits, keys, np.array(us, dtype=np.uint64))
            for u, slot in zip(us, slots):
                k = 0
                while u >= thresholds[k]:
                    k += 1
                assert (outs[slot], bottoms[slot]) == tuple(index[label] for label in entries[k])


class TestGroupRows:
    """``group_rows`` partitions rows exactly as ``np.unique(axis=0)``
    does, with groups numbered by first occurrence."""

    @staticmethod
    def rows(m, k, few, seed):
        rng = np.random.default_rng(seed)
        if few:
            return rng.integers(-3, 4, size=(5, k))[rng.integers(0, 5, size=m)]
        return rng.integers(-3, 4, size=(m, k))

    @pytest.mark.parametrize("m", [0, 1, 37, dynamics._CHUNK])
    @pytest.mark.parametrize("k", [0, 1, 29, 43])
    @pytest.mark.parametrize("few", [True, False])
    def test_equals_unique_rows(self, m, k, few):
        rows = self.rows(m, k, few, 1000 * m + k)
        first, inverse, counts = dynamics.group_rows(rows)
        _, u_first, u_inverse, u_counts = np.unique(
            rows, axis=0, return_index=True, return_inverse=True, return_counts=True)
        order = np.argsort(u_first)
        renumber = np.empty_like(order)
        renumber[order] = np.arange(order.size)
        assert inverse.ndim == 1
        assert first.tolist() == u_first[order].tolist()
        assert counts.tolist() == u_counts[order].tolist()
        assert inverse.tolist() == renumber[u_inverse.reshape(-1)].tolist()
        if not few and k >= 29:
            assert first.size == m

    def test_wide_rows_take_several_passes(self, monkeypatch):
        # 43 labels of 3 bits beside a key of 15 bits: 16 columns per pass
        calls = []
        unique = np.unique
        monkeypatch.setattr(dynamics.np, "unique", lambda *a, **kw: calls.append(a) or
                            unique(*a, **kw))
        dynamics.group_rows(self.rows(dynamics._CHUNK, 43, False, 7))
        assert len(calls) >= 3


class TestExactness:
    @pytest.mark.parametrize("model", [UR, UA, CS, CP])
    @pytest.mark.parametrize("L", [1, 2])
    def test_path_sum_reproduces_partition_functions(self, model, L):
        sig = SignedPermutation((1,)) if model.colored else None
        lam0 = Partition(()) if model is UA else Partition((0,))
        spec = LatticeSpec(model, 1, L, lam0, POINT1, sig, sig)
        dist = exhaustive_distribution(spec)
        assert sum(dist.values()) == 1
        for key, p in dist.items():
            if key == ESCAPE:
                continue
            parts, colors = key
            tau = SignedPermutation(colors) if colors else sig
            z = partition_function(LatticeSpec(model, 1, L, Partition(parts),
                                               POINT1, sig, tau))
            assert z == p

    def test_exact_outcomes_match_path_sum(self):
        # the row transfer against the recursive path sum, escape included
        point3 = ParamPoint((F(3, 4), F(2, 3), F(4, 5)), F(1, 2))
        cases = [(model, n, pt) for model in (UR, UA, CS, CP)
                 for n, pt in ((1, POINT1), (2, POINT2))]
        cases += [(UR, 3, point3), (UA, 3, point3)]
        for model, n, pt in cases:
            sig = SignedPermutation.identity(n) if model.colored else None
            lam = Partition(()) if model is UA else Partition((0,) * n)
            spec = LatticeSpec(model, n, 4, lam, pt, sig, sig)
            exact = exact_outcome_probabilities(spec)
            assert exact == exhaustive_distribution(spec)
            assert ESCAPE in exact

    def test_rows_that_do_not_sum_to_one_raise(self, monkeypatch):
        # one Gamma class lowered by 1/7: row 2's inputs (0, -1) keep 6/7 of
        # their mass, which the sampler and the exact law both refuse (the
        # exact law must not return the lost mass as escape)
        rule, arity, d_type = weights._RULES[Family.GAMMA]

        def lowered(*args):
            nums, den = rule(*args)
            return (nums[0] - F(den) / 7,) + nums[1:], den

        monkeypatch.setitem(weights._RULES, Family.GAMMA, (lowered, arity, d_type))
        spec = LatticeSpec(UR, 1, 3, Partition((0,)), POINT1)
        message = r"row 2 inputs \(0, -1\) sum to 6/7, not 1"
        with pytest.raises(SamplerSoundnessError, match=message):
            Sampler(SamplerConfig(spec, 1, 10))
        with pytest.raises(SamplerSoundnessError, match=message):
            exact_outcome_probabilities(spec)

    def test_exact_law_outside_the_regime_raises(self):
        # q = 2 puts z = 3/4 above 1/q: every row still sums to 1, but the
        # masses would be -7/16, -7/8 and escape 37/16
        spec = LatticeSpec(UR, 1, 2, Partition((0,)), ParamPoint((F(3, 4),), F(2)))
        with pytest.raises(ValueError, match="stochastic regime"):
            exact_outcome_probabilities(spec)


class TestTrajectories:
    def test_empty_configuration(self):
        spec = LatticeSpec(UA, 1, 2, Partition(()), POINT1)
        for config, _ in enumerate_states(spec):
            traj = trajectory_from_configuration(config)
            assert traj[0] == []
            break

    def test_particle_count_at_final_time(self):
        spec = reflecting_spec(2, 4)
        sampler = Sampler(SamplerConfig(spec, 4, 1))
        for index in range(100):
            out = sampler.sample(index)
            traj = trajectory_from_configuration(out.config)
            assert traj[0] == []
            if not out.escaped:
                assert len(traj[-1]) == 2     # n' = n for reflecting samples

    def test_unique_state_narrative(self):
        # the opposite-boundary state: the strand moves right along the top
        # Gamma row, flips color through the cap, and returns leftward
        pt = ParamPoint((F(3, 4),), F(1, 2))
        spec = LatticeSpec(CS, 1, 2, Partition((1,)), pt,
                           SignedPermutation((-1,)), SignedPermutation((1,)))
        (config, _), = list(enumerate_states(spec))
        traj = trajectory_from_configuration(config)
        assert traj[0] == []
        # at t = 1 the particle sits inside the cap, off every column; it
        # re-emerges leftward and leaves at column lambda_1 + n = 2 as c_1
        assert traj[1] == []
        assert traj[2] == [(2, 1)]
        # the full rightward journey shows on the row's horizontal edges
        assert all(config.hor[2][c] == -1 for c in range(0, 3))
        assert config.hor[1][0] == 1    # flipped color past the cap


class TestStatistics:
    def test_impossible_outcome_is_hard_failure(self):
        spec = reflecting_spec(1, 2)
        exact = exact_outcome_probabilities(spec)
        summary = SampleSummary(num_samples=10)
        summary.histogram = {((2,), None): 10}   # lambda=(2) needs L >= 3
        with pytest.raises(SamplerSoundnessError):
            compare_empirical_to_exact(summary, exact)

    def test_report_fields(self):
        spec = reflecting_spec(1, 2)
        summary = run_sampler(SamplerConfig(spec, 8, 4000))
        report = compare_empirical_to_exact(summary, exact_outcome_probabilities(spec))
        assert report.num_samples == 4000
        assert report.dof >= 1
        assert report.within(5.0)

    def test_rare_outcomes_are_pooled(self):
        spec = LatticeSpec(CS, 2, 4, Partition((0, 0)), POINT2,
                           SignedPermutation.identity(2), SignedPermutation.identity(2))
        summary = run_sampler(SamplerConfig(spec, 10, 2000))
        report = compare_empirical_to_exact(summary, exact_outcome_probabilities(spec))
        keys = [row.key for row in report.rows]
        assert POOLED in keys
        # pooled probability keeps the table total at 1
        assert sum(row.probability for row in report.rows) == 1
        assert report.chi2_quantile == chi2_quantile(report.dof)


class TestChi2Quantile:
    @pytest.mark.parametrize("dof,expected", sorted(CHI2_PPF_0999.items()))
    def test_matches_scipy_table(self, dof, expected):
        # sample reports print the quantile with 6 significant digits
        value = chi2_quantile(dof)
        assert value == pytest.approx(expected, rel=1e-13, abs=0)
        assert f"{value:.6g}" == f"{expected:.6g}"

    @pytest.mark.parametrize("x", [0.01, 0.7, 1.4, 1.6, 2.9, 8.0, 40.0])
    def test_upper_gamma_closed_forms(self, x):
        # Q(1, x) = exp(-x) and Q(1/2, x) = erfc(sqrt(x)), on both sides of
        # the series / continued-fraction switch at a + 1
        assert dynamics._upper_gamma(1.0, x) == pytest.approx(math.exp(-x), rel=1e-13)
        assert dynamics._upper_gamma(0.5, x) == pytest.approx(math.erfc(math.sqrt(x)),
                                                              rel=1e-12)
