"""The sampler written one sample and one vertex at a time: the test oracle.

``ScalarSampler.sample`` walks the same sweep as ``dynamics.Sampler`` with
plain Python lists, calling ``mix64(seed, index, row, column)`` for every
vertex and stepping through the integer thresholds of
``dynamics._conditional_tables`` of ``lattice.spec_rows`` one by one.  It
shares nothing with the batched sweep but those tables and the hash, so
the tests compare the library's configurations, keys, escape flags,
histograms and exports against it.
"""

from symplectic_ice.dynamics import (ESCAPE, SampleOutcome, SampleSummary,
                                     _conditional_tables, mix64)
from symplectic_ice.lattice import Configuration, boundary_assignment, bottom_outcome, spec_rows
from symplectic_ice.weights import cap_map


class ScalarSampler:
    def __init__(self, config):
        self.config = config
        self.spec = config.spec
        self.tables = _conditional_tables(spec_rows(self.spec))
        self.bnd = boundary_assignment(self.spec)

    def sample(self, index: int) -> SampleOutcome:
        spec, bnd = self.spec, self.bnd
        n2, L = 2 * spec.n, spec.L
        seed = self.config.seed
        vert = [[None] * L for _ in range(n2 + 1)]
        hor = [[None] * (L + 1) for _ in range(n2 + 1)]
        vert[n2] = list(bnd.top)
        escaped = False
        for i in range(spec.n, 0, -1):
            r = 2 * i
            table = self.tables[r - 1]
            cur = bnd.left[r - 1]
            hor[r][L] = cur
            for c in range(L, 0, -1):
                u = mix64(seed, index, r, c)
                outs, thresholds = table[(cur, vert[r][c - 1])]
                k = 0
                while u >= thresholds[k]:
                    k += 1
                right, bottom = outs[k]
                hor[r][c - 1] = right
                vert[r - 1][c - 1] = bottom
                cur = right
            r = 2 * i - 1
            table = self.tables[r - 1]
            cur = cap_map(spec.model, cur)
            hor[r][0] = cur
            for c in range(1, L + 1):
                u = mix64(seed, index, r, c)
                outs, thresholds = table[(cur, vert[r][c - 1])]
                k = 0
                while u >= thresholds[k]:
                    k += 1
                left, bottom = outs[k]
                hor[r][c] = left
                vert[r - 1][c - 1] = bottom
                cur = left
            if cur != 0:
                escaped = True
        config = Configuration(spec.model, spec.n, L,
                               tuple(tuple(row) for row in vert),
                               tuple(tuple(row) for row in hor))
        key = ESCAPE if escaped else bottom_outcome(config)
        return SampleOutcome(config, escaped, key)


def scalar_run(config) -> SampleSummary:
    """``run_sampler`` by the scalar sweep: one sample at a time, keys added
    to the histogram in the order of their first sample."""
    sampler = ScalarSampler(config)
    summary = SampleSummary(config.num_samples)
    for index in range(config.num_samples):
        outcome = sampler.sample(index)
        summary.escape_count += outcome.escaped
        summary.histogram[outcome.key] = summary.histogram.get(outcome.key, 0) + 1
    summary.check()
    return summary
