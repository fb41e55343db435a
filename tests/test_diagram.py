import itertools
from fractions import Fraction as F

import pytest

from symplectic_ice import diagram as dg
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

    scale = F(3)
    true_table = dg.pattern_table

    def scaled(model, family, params, q_, letters):
        table = true_table(model, family, params, q_, letters)
        # the S node is the unique Gamma node in this diagram
        if family is Family.GAMMA:
            return {edges: scale * w for edges, w in table.items()}
        return table

    monkeypatch.setattr(dg, "pattern_table", scaled)
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
