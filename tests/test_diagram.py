import itertools
from fractions import Fraction as F

import pytest

from symplectic_ice import diagram as dg
from symplectic_ice import weights
from symplectic_ice.diagram import DiagramError, Node, WiringDiagram
from symplectic_ice.rationals import sample_point
from symplectic_ice.weights import Family, Model, vertex_weight

UR = Model.UNCOLORED_REFLECTING


def test_single_node_equals_vertex_weight():
    pt = sample_point(1, 2)
    z, q = pt.z[0], pt.q
    d = WiringDiagram(UR, 1, [Node(Family.GAMMA, (z,))], [],
                      [(0, 0), (0, 1), (0, 2), (0, 3)])
    for edges in itertools.product((0, -1), repeat=4):
        assert d.evaluate(edges, q) == vertex_weight(UR, Family.GAMMA, edges, (z,), q)


def test_two_cap_stack_all_plus():
    d = dg.caduceus_rhs(UR)
    assert d.evaluate((0, 0, 0, 0), F(2)) == 1


def test_ybe_all_plus_is_one():
    pt = sample_point(2, 9)
    d = dg.ybe_left(UR, 1, Family.GAMMA, Family.GAMMA, pt.z[0], pt.z[1])
    assert d.evaluate((0,) * 6, pt.q) == 1


def test_evaluate_matches_independent_sum():
    # independent oracle: hand-coded sum over the three internal edges of
    # the left crossing configuration
    pt = sample_point(2, 14)
    zi, zj, q = pt.z[0], pt.z[1], pt.q
    letters = (0, -1)

    def brute(boundary):
        a, b, c, d_, e, f = boundary
        total = F(0)
        for g in letters:
            for h in letters:
                for i in letters:
                    total += (
                        vertex_weight(UR, Family.R_GAMMA_GAMMA, (a, b, g, i), (zi, zj), q)
                        * vertex_weight(UR, Family.GAMMA, (g, c, d_, h), (zi,), q)
                        * vertex_weight(UR, Family.GAMMA, (i, h, e, f), (zj,), q))
        return total

    diag = dg.ybe_left(UR, 1, Family.GAMMA, Family.GAMMA, zi, zj)
    values = diag.evaluate_all(q)
    for boundary in itertools.product(letters, repeat=6):
        assert values.get(boundary, F(0)) == brute(boundary)


def brute_tensor(diag, q):
    """``(values, weights)``: every boundary value of ``diag`` as a Fraction
    sum over all labelings of its slots of products of ``vertex_weight``,
    and the vertex weights met, by (node, edges).  Labels are chosen node
    by node over the whole alphabet; a labeling is dropped as soon as one
    of its factors is 0."""
    nb = len(diag.boundary)
    slot = {end: k for k, end in enumerate(diag.boundary)}
    for k, (p, r) in enumerate(diag.edges):
        slot[p] = slot[r] = nb + k
    nodes = [[slot[(i, s)] for s in range(node.nslots)] for i, node in enumerate(diag.nodes)]
    weights, values, labels = {}, {}, {}

    def visit(i, value):
        if i == len(nodes):
            key = tuple(labels[k] for k in range(nb))
            values[key] = values.get(key, F(0)) + value
            return
        new = [p for p in dict.fromkeys(nodes[i]) if p not in labels]
        for chosen in itertools.product(diag.alphabet, repeat=len(new)):
            labels.update(zip(new, chosen))
            edges = tuple(labels[p] for p in nodes[i])
            if (i, edges) not in weights:
                node = diag.nodes[i]
                weights[i, edges] = vertex_weight(diag.model, node.family, edges, node.params, q)
            if weights[i, edges] != 0:
                visit(i + 1, value * weights[i, edges])
        for p in new:
            del labels[p]

    visit(0, F(1))
    return values, weights


@pytest.mark.parametrize("sides, letters", [
    # the signed cap braid on 5 labels and a positive Delta-Delta crossing
    # pair on 4: both have negative vertex weights at these points
    ((dg.reflection_lhs, dg.reflection_rhs), (-2, -1, 0, 1, 2)),
    ((lambda m, n, zi, zj: dg.ybe_left(m, n, Family.DELTA, Family.DELTA, zi, zj),
      lambda m, n, zi, zj: dg.ybe_right(m, n, Family.DELTA, Family.DELTA, zi, zj)), (0, 1, 2, 3)),
])
def test_colored_values_match_brute_force(sides, letters):
    model = Model.COLORED_SIGNED if min(letters) < 0 else Model.COLORED_POSITIVE
    pt = sample_point(2, 21)
    for side in sides:
        diag = side(model, max(map(abs, letters)), pt.z[0], pt.z[1]).restricted(letters)
        values = diag.evaluate_all(pt.q)
        expected, weights = brute_tensor(diag, pt.q)
        assert min(weights.values()) < 0
        for boundary in itertools.product(letters, repeat=len(diag.boundary)):
            assert values.get(boundary, F(0)) == expected.get(boundary, F(0)), boundary


def test_zero_listed_weight_keys_and_order():
    # at z_i = z_j the straight Gamma-Gamma crossing weights are 0: no
    # labeling through them is walked, so the boundaries only they reach
    # are not keys, and the rest come in the order the sweep reaches them
    z, q = F(1, 3), F(2)
    assert weights.pattern_table(UR, Family.R_GAMMA_GAMMA, (z, z), q, (-1, 0))[(-1, 0, -1, 0)] == 0
    values = dg.ybe_left(UR, 1, Family.GAMMA, Family.GAMMA, z, z).evaluate_all(q)
    assert list(values) == [
        (-1, -1, -1, -1, -1, -1), (-1, -1, 0, -1, -1, 0), (-1, -1, 0, -1, 0, -1),
        (-1, -1, 0, 0, -1, -1), (-1, 0, -1, 0, -1, -1), (-1, 0, -1, -1, -1, 0),
        (-1, 0, -1, -1, 0, -1), (-1, 0, 0, 0, -1, 0), (-1, 0, 0, 0, 0, -1),
        (0, -1, -1, -1, 0, -1), (0, -1, -1, -1, -1, 0), (0, -1, 0, -1, 0, 0),
        (0, -1, 0, 0, 0, -1), (0, -1, 0, 0, -1, 0), (0, 0, -1, 0, 0, -1),
        (0, 0, -1, 0, -1, 0), (0, 0, -1, -1, 0, 0), (0, 0, 0, 0, 0, 0)]
    assert all(type(value) is F for value in values.values())


def test_boundary_sum_closure():
    # summing a stochastic node's diagram over outputs with inputs fixed
    # gives 1: single Gamma vertex, inputs (left, top)
    pt = sample_point(1, 5)
    z, q = pt.z[0], pt.q
    d = WiringDiagram(UR, 1, [Node(Family.GAMMA, (z,))], [],
                      [(0, 0), (0, 1), (0, 2), (0, 3)])
    vals = d.evaluate_all(q)
    for left in (0, -1):
        for top in (0, -1):
            s = sum(vals.get((left, top, r, b), F(0))
                    for r in (0, -1) for b in (0, -1))
            assert s == 1


def test_composite_boundary_sum_closure():
    # stochastic closure survives composition: in the left crossing
    # configuration with Gamma tables, fixing the inputs (a, b, c) and
    # summing over the outputs (d, e, f) gives exactly 1
    pt = sample_point(2, 31)
    q = pt.q
    diag = dg.ybe_left(UR, 1, Family.GAMMA, Family.GAMMA, pt.z[0], pt.z[1])
    vals = diag.evaluate_all(q)
    for a in (0, -1):
        for b in (0, -1):
            for c in (0, -1):
                total = sum(vals.get((a, b, c, d_, e, f), F(0))
                            for d_ in (0, -1) for e in (0, -1) for f in (0, -1))
                assert total == 1


def test_multilinearity_in_nodes(monkeypatch):
    # replacing one node's table by a scalar multiple scales every value
    pt = sample_point(2, 8)
    zi, zj, q = pt.z[0], pt.z[1], pt.q
    diag = dg.ybe_left(UR, 1, Family.GAMMA, Family.DELTA, zi, zj)
    base = diag.evaluate_all(q)

    scale = 3
    true_table = dg.integer_table

    def scaled(model, family, params, q_, letters):
        table, den = true_table(model, family, params, q_, letters)
        # the S node is the unique Gamma node in this diagram
        if family is Family.GAMMA:
            return {edges: scale * w for edges, w in table.items()}, den
        return table, den

    monkeypatch.setattr(dg, "integer_table", scaled)
    bumped = diag.evaluate_all(q)
    for key in set(base) | set(bumped):
        assert bumped.get(key, F(0)) == scale * base.get(key, F(0))


def test_boundary_label_outside_alphabet_is_rejected():
    z = sample_point(1, 2).z[0]
    d = WiringDiagram(UR, 1, [Node(Family.GAMMA, (z,))], [], [(0, 0), (0, 1), (0, 2), (0, 3)])
    with pytest.raises(DiagramError):
        d.evaluate((5, 0, 5, 0), F(2))


def test_construction_errors():
    pt = sample_point(1, 2)
    z = pt.z[0]
    with pytest.raises(DiagramError):
        WiringDiagram(UR, 1, [Node(Family.GAMMA, (z,))], [], [(0, 0), (0, 1), (0, 2)])
    with pytest.raises(DiagramError):
        WiringDiagram(UR, 1, [Node(Family.GAMMA, (z,))], [],
                      [(0, 0), (0, 0), (0, 1), (0, 2), (0, 3)])
    # a 14-cap chain has 13 internal edges, past the documented bound
    caps = [Node(Family.CAP, ()) for _ in range(14)]
    edges = [((k, 1), (k + 1, 0)) for k in range(13)]
    boundary = [(0, 0), (13, 1)]
    with pytest.raises(DiagramError):
        WiringDiagram(UR, 1, caps, edges, boundary)


def test_evaluate_wrong_boundary_length():
    d = dg.caduceus_rhs(UR)
    with pytest.raises(DiagramError):
        d.evaluate((0, 0), F(2))
