import hashlib
import itertools
import random
from fractions import Fraction as F

import pytest

from symplectic_ice import diagram as dg
from symplectic_ice import weights
from symplectic_ice.diagram import DiagramError, Node, WiringDiagram
from symplectic_ice.rationals import sample_point
from symplectic_ice.weights import Family, Model, vertex_weight

UR = Model.UNCOLORED_REFLECTING
UA = Model.UNCOLORED_ABSORBING
CS = Model.COLORED_SIGNED
CP = Model.COLORED_POSITIVE
G, D = Family.GAMMA, Family.DELTA
LEMMA = (Family.LEMMA_S, Family.LEMMA_T, Family.R_LEMMA)


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
        expected, weights = brute_tensor(diag, pt.q)
        assert min(weights.values()) < 0
        assert diag.evaluate_all(pt.q) == expected


def _colored(build, model, letters):
    """A colored builder summed over ``letters`` (as the relations reduce it)."""
    return lambda pt: build(model, max(map(abs, letters)), pt).restricted(letters)


#: Every named builder, by name: its diagram at a point.  The colored ones
#: run on the reduced alphabets of ``relations`` and on the paranoid ones,
#: 5 and 7 labels taking 3-bit keys.
NAMED = {
    **{f"ybe_{side} {model.name} {x.value[0]}{y.value[0]}":
       (lambda pt, f=f, model=model, x=x, y=y: f(model, 1, x, y, pt.z[0], pt.z[1]))
       for side, f in (("left", dg.ybe_left), ("right", dg.ybe_right))
       for model in (UR, UA) for x in (G, D) for y in (G, D)},
    **{f"ybe_{side} lemma": (lambda pt, f=f: f(UR, 1, G, G, pt.z[0], pt.z[1], families=LEMMA))
       for side, f in (("left", dg.ybe_left), ("right", dg.ybe_right))},
    **{f"caduceus_lhs {m.name}": (lambda pt, m=m: dg.caduceus_lhs(m, pt.z[0], pt.z[1])) for m in (UR, UA)},
    **{f"caduceus_rhs {m.name}": (lambda pt, m=m: dg.caduceus_rhs(m)) for m in (UR, UA)},
    **{f"fish_lhs {m.name}": (lambda pt, m=m: dg.fish_lhs(m, pt.z[1])) for m in (UR, UA)},
    **{f"fish_rhs {m.name}": (lambda pt, m=m: dg.fish_rhs(m)) for m in (UR, UA)},
    **{f"ybe_{side} {model.name} {x.value[0]}{y.value[0]} {letters}":
       _colored(lambda m, n, pt, f=f, x=x, y=y: f(m, n, x, y, pt.z[0], pt.z[1]), model, letters)
       for side, f in (("left", dg.ybe_left), ("right", dg.ybe_right))
       for model, alphabets in ((CS, ((-1, 0, 1, 2), (-2, -1, 0, 1, 2))),
                                (CP, ((0, 1, 2, 3), (0, 1, 2, 3, 4))))
       for letters in alphabets for x, y in ((D, G), (G, G), (D, D))},
    **{f"reflection_{side} {model.name} {letters}":
       _colored(lambda m, n, pt, f=f: f(m, n, pt.z[0], pt.z[1]), model, letters)
       for side, f in (("lhs", dg.reflection_lhs), ("rhs", dg.reflection_rhs))
       for model, alphabets in ((CS, ((-2, -1, 0, 1, 2), tuple(range(-3, 4)))),
                                (CP, ((0, 1, 2), (0, 1, 2, 3))))
       for letters in alphabets},
}


@pytest.mark.parametrize("name", NAMED)
def test_named_builders_match_brute_force(name):
    # exact dict equality: the same boundaries are keys, a total that
    # cancels to 0 included, and every value agrees
    pt = sample_point(2, 26)
    diag = NAMED[name](pt)
    assert diag.evaluate_all(pt.q) == brute_tensor(diag, pt.q)[0]


@pytest.mark.parametrize("name, digest", [
    # list(evaluate_all(q).items()) at sample_point(2, 11): keys, their
    # order (the order a depth-first walk over the nodes first reaches them)
    # and values
    ("ybe_left UNCOLORED_REFLECTING gd", "b4bdae0f219a76d2acd48f8380a3977d36824c10ad69a01f1e37f03c10e40887"),
    ("ybe_left UNCOLORED_ABSORBING gd", "b4bdae0f219a76d2acd48f8380a3977d36824c10ad69a01f1e37f03c10e40887"),
    ("ybe_left lemma", "67ab6834d3bf07992c54641cd38a90684ad282dc75f7731e88188b9071945e7e"),
    ("ybe_left COLORED_SIGNED dg (-1, 0, 1, 2)", "9c71c0f0b4ac20365d3bb4dd4bde9fa1ba4d2943557481f1415eaffcf8b0a5f4"),
    ("ybe_left COLORED_POSITIVE dd (0, 1, 2, 3)", "0e72a94b758a53d8ff4ada916003562fe425b3868ee96db8836a45e8179b350d"),
    ("ybe_right UNCOLORED_REFLECTING gd", "62797fb879b8a4c972841f3dfc66916f45f6878bdde5549764a3d801259712c2"),
    ("ybe_right UNCOLORED_ABSORBING gd", "62797fb879b8a4c972841f3dfc66916f45f6878bdde5549764a3d801259712c2"),
    ("ybe_right lemma", "c575dce4ee19f691dfc4f6760b9332a4661dab8154a10282180c9e5fe8609ed1"),
    ("ybe_right COLORED_SIGNED dg (-1, 0, 1, 2)", "4b58101ec16c062b097fa38e6207395afde74e2fc6f3d877f346b9b4c6391011"),
    ("ybe_right COLORED_POSITIVE dd (0, 1, 2, 3)", "5f04df9cf8c78d154459cbe8b746d06610bd450f0c14dd931b0ffffa7d9be9ae"),
    ("caduceus_lhs UNCOLORED_REFLECTING", "9b502600a7d9c874faad7aecc6f5199c8bf39cb8483ad2d6d4982759e8077c8a"),
    ("caduceus_rhs UNCOLORED_REFLECTING", "b6f155dd2a18880a0dd7f53487a6f2911ae5e43be28d275bd5995fdd51a5c3ab"),
    ("fish_lhs UNCOLORED_REFLECTING", "a38001e2410d4480c5dd8679f969106ef2542986b5affd4016c422803cba2817"),
    ("fish_rhs UNCOLORED_REFLECTING", "6ac048a4333c1c53360a8395db491ce370d1e460aa25df8abb14264195d33b25"),
    ("caduceus_lhs UNCOLORED_ABSORBING", "199167e9c18d520563ed54e829145d1c714010bc84b3b6c3b5a3726a3320c2b2"),
    ("caduceus_rhs UNCOLORED_ABSORBING", "03f4b56ff7cd354689d9c8d08927141727f2bf374de037bd4d4ed6c436246d4b"),
    ("fish_lhs UNCOLORED_ABSORBING", "a8bbd2f7b1c83c8db6284901771acee768912bb715687bd590c306c6dcd5fb01"),
    ("fish_rhs UNCOLORED_ABSORBING", "a8bbd2f7b1c83c8db6284901771acee768912bb715687bd590c306c6dcd5fb01"),
    ("reflection_lhs COLORED_SIGNED (-2, -1, 0, 1, 2)", "d8ee0d1c4ca63ae5e846a81dc3fbb4a219ed1939709863d8961dd4360d9ae4b9"),
    ("reflection_lhs COLORED_POSITIVE (0, 1, 2)", "596b177ead3222acb896af8b9df41bcfbbe7b6bbc4899ad271f4b8737bf63792"),
    ("reflection_rhs COLORED_SIGNED (-2, -1, 0, 1, 2)", "af613aca7f1f14d9176d5ac79ba41d16bee2e55606efe1995d2f041c747b796a"),
    ("reflection_rhs COLORED_POSITIVE (0, 1, 2)", "04f1e34f8dfa2ae0d0fe080b9c68516386c4261f3548e07f76c3bc9fe85090b1"),
])
def test_named_builders_are_pinned(name, digest):
    pt = sample_point(2, 11)
    values = NAMED[name](pt).evaluate_all(pt.q)
    assert hashlib.sha256(repr(list(values.items())).encode()).hexdigest() == digest


@pytest.mark.parametrize("name", ["ybe_left UNCOLORED_REFLECTING gd",
                                  "caduceus_lhs UNCOLORED_ABSORBING",
                                  "fish_lhs UNCOLORED_REFLECTING",
                                  "ybe_right COLORED_SIGNED dg (-2, -1, 0, 1, 2)",
                                  "reflection_lhs COLORED_SIGNED (-3, -2, -1, 0, 1, 2, 3)"])
def test_frozen_boundaries_match_the_full_tensor(name):
    # every key of the full tensor, and as many boundaries that are none,
    # evaluated on their own
    pt = sample_point(2, 5)
    diag = NAMED[name](pt)
    full = diag.evaluate_all(pt.q)
    rng = random.Random(5)
    others = set()
    while len(others) < min(len(full), 40):
        boundary = tuple(rng.choice(diag.alphabet) for _ in diag.boundary)
        if boundary not in full:
            others.add(boundary)
    for boundary in list(full)[:200] + sorted(others):
        assert diag.evaluate(boundary, pt.q) == full.get(boundary, 0)
        alone = diag.evaluate_all(pt.q, frozen=boundary)
        assert alone == ({boundary: full[boundary]} if boundary in full else {})
    assert dg.contract(diag, pt.q, frozen=(99,) * len(diag.boundary)) == ({}, dg.contract(diag, pt.q)[1])


def test_internal_edge_joining_two_slots_of_one_node():
    # a Gamma vertex whose right slot is wired to its own left slot, above
    # a Delta vertex: the loop label must agree at both ends of the edge
    pt = sample_point(2, 3)
    zi, zj, q = pt.z[0], pt.z[1], pt.q
    nodes = [Node(G, (zi,)), Node(D, (zj,))]
    edges = [((0, 0), (0, 2)), ((0, 3), (1, 1))]
    boundary = [(0, 1), (1, 0), (1, 2), (1, 3)]
    for model, letters in ((UR, None), (CS, (-1, 0, 1))):
        diag = WiringDiagram(model, 1, nodes, edges, boundary, letters=letters)
        values = diag.evaluate_all(q)
        assert values == brute_tensor(diag, q)[0]
        for top, left, right, bottom in itertools.product(diag.alphabet, repeat=4):
            expected = sum(vertex_weight(model, G, (a, top, a, h), (zi,), q)
                           * vertex_weight(model, D, (left, h, right, bottom), (zj,), q)
                           for a in diag.alphabet for h in diag.alphabet)
            assert values.get((top, left, right, bottom), 0) == expected


def test_diagram_without_internal_edges():
    # two unconnected vertices: every value is a product of two weights
    pt = sample_point(2, 7)
    zi, zj, q = pt.z[0], pt.z[1], pt.q
    diag = WiringDiagram(UR, 1, [Node(G, (zi,)), Node(D, (zj,))], [],
                         [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (1, 2), (1, 3)])
    values = diag.evaluate_all(q)
    assert values == brute_tensor(diag, q)[0]
    for key in itertools.product((-1, 0), repeat=8):
        assert values.get(key, 0) == (vertex_weight(UR, G, key[:4], (zi,), q)
                                      * vertex_weight(UR, D, key[4:], (zj,), q))


def test_totals_that_cancel_stay_keys(monkeypatch):
    # two Gamma vertices wired right-to-left and bottom-to-top, on tables of
    # +1 and -1: boundary (-1, 0, -1, 0) has two internal labelings, the
    # straight one weighing +1 and the exchange one -1, so it is a key
    # valued 0; the other boundaries keep their brute-force sums
    z1, z2, q = F(1, 3), F(2, 5), F(2)
    nodes = [Node(G, (z1,)), Node(G, (z2,))]
    edges = [((0, 2), (1, 0)), ((0, 3), (1, 1))]
    diag = WiringDiagram(UR, 1, nodes, edges, [(0, 0), (0, 1), (1, 2), (1, 3)])
    true_table = dg.integer_table

    def signed(model, family, params, q_, letters):
        table, den = true_table(model, family, params, q_, letters)
        sign = (lambda edges: 1) if params == (z1,) else (lambda edges: -1 if edges[0] != edges[2] else 1)
        return {edges: sign(edges) for edges in table}, 1

    monkeypatch.setattr(dg, "integer_table", signed)
    values = diag.evaluate_all(q)
    assert values[(-1, 0, -1, 0)] == 0
    tables = [signed(UR, G, node.params, q, (-1, 0))[0] for node in nodes]
    expected = {}
    for left, top, right, bottom, g, h in itertools.product((-1, 0), repeat=6):
        a = tables[0].get((left, top, g, h), 0)
        b = tables[1].get((g, h, right, bottom), 0)
        if a and b:
            key = (left, top, right, bottom)
            expected[key] = expected.get(key, 0) + a * b
    assert values == expected
    assert 0 in values.values()


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
