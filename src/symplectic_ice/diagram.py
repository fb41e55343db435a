"""Generic evaluator for small wiring diagrams of weighted vertices.

A :class:`WiringDiagram` is a finite list of nodes (each a weight-table
family with parameters and 4 or 2 edge slots) wired together by internal
edges, with the remaining slots exposed as numbered boundary stubs.  Its
value at a boundary assignment is the sum over all labelings of the
internal edges of the product of node weights -- exactly the partition
functions appearing in the braid, cap and crossing relations.  Node
weights come from ``weights.integer_table``, the node's ``pattern_table``
scaled by its common denominator: only a node's nonzero listed patterns
are ever tried, since every other labeling weighs 0.  ``evaluate_all``
divides each ``contract`` total once by the product of the denominators.

``contract`` sweeps the nodes in order over a frontier keyed by packed
ints, as the lattice's column transfer does (``lattice.sweep_vertex``).
Each label is stored as its index in the alphabet, in b =
``lattice.label_bits`` bits per flat position: boundary stubs in the low
bits, internal edges above them.  A node reads the positions already set
with one mask, ORs its new labels in and multiplies integer weights; an
internal edge is cleared after the last node that touches it, so equal
partial labelings merge.  What is left at the end are the boundary
labels, decoded to tuples once.  Merged keys keep their first place, so
the boundaries come in the order a depth-first walk over the same
entries first reaches them.

This evaluator is for identity checking, not whole lattices: diagrams are
capped at MAX_INTERNAL_EDGES internal edges.  Diagrams are immutable after
construction and evaluation is pure, so distinct boundary assignments may
be evaluated concurrently.

Builders for every named configuration are provided at the bottom so the
relation verifiers never hand-assemble geometry: the two three-vertex
crossing configurations (ybe_left / ybe_right), the four-crossing braid
against two bare caps (caduceus_lhs / caduceus_rhs), the one-crossing cap
collapse (fish_lhs / fish_rhs) and the two cap-decorated double-crossing
configurations (reflection_lhs / reflection_rhs).
"""

from __future__ import annotations

import copy
import functools
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction

from .lattice import label_bits, pack_word
from .rationals import DomainError, zprime
from .weights import Family, Model, alphabet, integer_table

MAX_INTERNAL_EDGES = 12

ZERO = Fraction(0)
ONE = Fraction(1)


class DiagramError(ValueError):
    """Malformed diagram: unattached or doubly-attached slot."""


@dataclass(frozen=True)
class Node:
    family: Family
    params: tuple

    @property
    def nslots(self) -> int:
        return 2 if self.family in (Family.CAP, Family.NEW_CAP) else 4


class WiringDiagram:
    """Nodes, internal edges and boundary stubs over a model's alphabet.

    nodes     list of Node
    edges     list of ((node, slot), (node, slot)) internal connections
    boundary  list of (node, slot), position k = boundary stub k
    """

    def __init__(self, model: Model, n: int, nodes, edges, boundary, letters=None):
        self.model = model
        self.alphabet = tuple(letters) if letters is not None else alphabet(model, n)
        self.nodes = tuple(nodes)
        self.edges = tuple(edges)
        self.boundary = tuple(boundary)
        if len(self.edges) > MAX_INTERNAL_EDGES:
            raise DiagramError(f"too many internal edges ({len(self.edges)} > {MAX_INTERNAL_EDGES})")
        seen = set()
        for end in [e for pair in self.edges for e in pair] + list(self.boundary):
            if end in seen:
                raise DiagramError(f"slot {end} attached twice")
            seen.add(end)
        for i, node in enumerate(self.nodes):
            for s in range(node.nslots):
                if (i, s) not in seen:
                    raise DiagramError(f"slot ({i}, {s}) unattached")
        # slot -> index into the flat label vector (boundary stubs first)
        self._slot_pos = {}
        for k, end in enumerate(self.boundary):
            self._slot_pos[end] = k
        for k, (p, r) in enumerate(self.edges):
            self._slot_pos[p] = len(self.boundary) + k
            self._slot_pos[r] = len(self.boundary) + k

    def restricted(self, letters) -> "WiringDiagram":
        """The same diagram summed over a sub-alphabet (color reduction).

        Its wiring is this diagram's, already checked, so it is copied
        rather than validated again."""
        diag = copy.copy(self)
        diag.alphabet = tuple(letters)
        return diag

    def evaluate(self, boundary_labels, q) -> Fraction:
        """Sum over internal labelings of the product of node weights."""
        boundary_labels = tuple(boundary_labels)
        if len(boundary_labels) != len(self.boundary):
            raise DiagramError("boundary assignment has wrong length")
        if any(label not in self.alphabet for label in boundary_labels):
            raise DiagramError(f"boundary labels {boundary_labels} are not all "
                               f"in the alphabet {self.alphabet}")
        return self.evaluate_all(q, frozen=boundary_labels).get(boundary_labels, ZERO)

    def evaluate_all(self, q, frozen=None) -> dict:
        """Map from boundary tuple to value, for all admissible boundaries.

        With ``frozen`` set, only that single boundary assignment is
        explored.  Each value is a ``contract`` total divided once by the
        contraction's denominator.
        """
        totals, den = contract(self, q, frozen)
        return {key: Fraction(total, den) for key, total in totals.items()}


def contract(diag: WiringDiagram, q, frozen=None, tables=None) -> tuple:
    """``(totals, den)``: the boundary tensor of ``diag`` on integer weights.

    A node-by-node frontier sweep on packed-integer keys.  Each label is
    its index in ``diag.alphabet``, b = ``lattice.label_bits`` bits a flat
    position: boundary stub k in bits b*k..b*k+b-1, internal edge k after
    them.  The frontier maps a key (the labels set so far) to the integer
    sum of the partial products that reach it; it starts from the empty
    key, or from the ``frozen`` boundary packed.  Each distinct node's
    ``weights.integer_table`` (its ``pattern_table`` times D, the lcm of
    its denominators) is built once; for each node, its nonzero entries
    are indexed by the masked value of the positions already set (frozen
    stubs, edges to earlier nodes), each listing the OR of the node's new
    labels and its weight.  An entry whose two slots on one edge disagree
    is dropped.  After the last node that touches an internal edge, its
    bits are cleared, so equal partial labelings merge; at the end only
    boundary bits are left, and each key is decoded to its label tuple
    once.  Every internal labeling takes one pattern from each node, so
    boundary ``key`` has the exact value ``totals[key] / den`` with
    ``den`` the product of the node D's.

    ``totals`` holds every boundary that some labeling of nonzero weights
    reaches, a total that cancels to 0 included; with ``frozen`` set, only
    that one (none if a frozen label is not in the alphabet).  Its order
    is the order in which a depth-first walk over the nodes' entries (in
    listing order) first reaches each boundary: each node's frontier is
    made in the order of the previous one, entry by entry, and a merged
    key keeps the place of its first insertion, which is its
    lexicographically first partial labeling.

    The scaled tables are kept in ``tables`` by node.  A caller may pass
    one dict to several contractions of the same model, alphabet and q, so
    that the nodes they share are built once; by default it lives for this
    call only.
    """
    letters = diag.alphabet
    nb = len(diag.boundary)
    b = label_bits(letters)
    label_mask = (1 << b) - 1
    index = {label: i for i, label in enumerate(letters)}
    front, known = {0: 1}, set()
    if frozen is not None:
        known.update(range(nb))
        front = ({pack_word(frozen, index, b) >> b: 1}
                 if all(label in index for label in frozen) else {})
    if tables is None:
        tables = {}
    last = {nb + k: max(p[0], r[0]) for k, (p, r) in enumerate(diag.edges)}
    den = 1
    for i, node in enumerate(diag.nodes):
        built = tables.get(node)
        if built is None:
            scaled, d = integer_table(diag.model, node.family, node.params, q, letters)
            built = tables[node] = d, [(tuple(index[label] for label in edges), w)
                                       for edges, w in scaled.items() if w != 0]
        d, entries = built
        den *= d
        first, pairs = {}, []   # position -> its first slot; slots sharing a position
        for s in range(node.nslots):
            p = diag._slot_pos[(i, s)]
            if p in first:
                pairs.append((first[p], s))
            else:
                first[p] = s
        bound = [(s, b * p) for p, s in first.items() if p in known]
        free = [(s, b * p) for p, s in first.items() if p not in known]
        mask = sum(label_mask << shift for _, shift in bound)
        keep = ~sum(label_mask << b * p for p in first if last.get(p) == i)
        known.update(first)
        step: dict = {}
        for edges, w in entries:
            if pairs and any(edges[s] != edges[t] for s, t in pairs):
                continue
            key = new = 0
            for s, shift in bound:
                key |= edges[s] << shift
            for s, shift in free:
                new |= edges[s] << shift
            step.setdefault(key, []).append((new, w))
        nxt: dict = {}
        for key, acc in front.items():
            for new, w in step.get(key & mask, ()):
                new = (key | new) & keep
                nxt[new] = nxt.get(new, 0) + acc * w
        front = nxt
    return dict(zip(_decode(list(front), letters, nb), front.values())), den


@functools.lru_cache(maxsize=None)
def _chunk_labels(letters: tuple, width: int) -> list:
    """The label tuple of every packed run of ``width`` labels of
    ``letters`` (label k in bits b*k..b*k+b-1), by its value; None where a
    field holds no label's index.  Memoised on its arguments, as the few
    alphabets a diagram uses come back on every call."""
    b = label_bits(letters)
    out = [None] * (1 << b * width)
    for combo in itertools.product(range(len(letters)), repeat=width):
        out[sum(i << b * k for k, i in enumerate(combo))] = tuple(letters[i] for i in combo)
    return out


def _decode(keys: list, letters: tuple, length: int) -> list:
    """The ``length`` boundary labels of each packed key, up to 9 bits'
    worth of labels per table lookup."""
    b = label_bits(letters)
    width = max(1, 9 // b)
    chunk = (1 << b * width) - 1
    labels = [()] * len(keys)
    for k in range(0, length, width):
        table, shift = _chunk_labels(letters, min(width, length - k)), b * k
        labels = list(map(operator.add, labels, [table[key >> shift & chunk] for key in keys]))
    return labels


# ---------------------------------------------------------------------------
# Named configurations.
#
# Boundary stub order follows the figures: the crossing configurations use
# (a, b, c, d, e, f); the cap relations use (eps1, eps2, eps3, eps4) from
# top to bottom on the open side, and the fish relation uses (eps1, eps2).
# ---------------------------------------------------------------------------

_R_KIND = {
    (Family.GAMMA, Family.GAMMA): Family.R_GAMMA_GAMMA,
    (Family.DELTA, Family.GAMMA): Family.R_DELTA_GAMMA,
    (Family.DELTA, Family.DELTA): Family.R_DELTA_DELTA,
    (Family.GAMMA, Family.DELTA): Family.R_GAMMA_DELTA,
}


def ybe_left(model: Model, n: int, X: Family, Y: Family, zi, zj,
             families=None) -> WiringDiagram:
    """S = X(z_i) over T = Y(z_j), crossing R = X-Y(z_i, z_j) on the left.

    Boundary: a, b on the crossing's left legs; c, d on S's top/right;
    e, f on T's right/bottom.  ``families`` may override the three node
    families as (S, T, R) -- used by the free-parameter tables.
    """
    S, T, R = families or (X, Y, _R_KIND[(X, Y)])
    sp = (zi,) if S in (Family.GAMMA, Family.DELTA, Family.LEMMA_S) else (zi, zj)
    tp = (zj,) if T in (Family.GAMMA, Family.DELTA, Family.LEMMA_T) else (zi, zj)
    nodes = [Node(R, (zi, zj)), Node(S, sp), Node(T, tp)]
    # R slots: (sw, nw, ne, se) = (a, b, g, i); S: (g, c, d, h); T: (i, h, e, f)
    edges = [((0, 2), (1, 0)),   # g
             ((1, 3), (2, 1)),   # h
             ((0, 3), (2, 0))]   # i
    boundary = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3)]
    return WiringDiagram(model, n, nodes, edges, boundary)


def ybe_right(model: Model, n: int, X: Family, Y: Family, zi, zj,
              families=None) -> WiringDiagram:
    """T over S with the crossing moved to the right; same boundary order."""
    S, T, R = families or (X, Y, _R_KIND[(X, Y)])
    sp = (zi,) if S in (Family.GAMMA, Family.DELTA, Family.LEMMA_S) else (zi, zj)
    tp = (zj,) if T in (Family.GAMMA, Family.DELTA, Family.LEMMA_T) else (zi, zj)
    nodes = [Node(T, tp), Node(S, sp), Node(R, (zi, zj))]
    # T: (b, c, j, k); S: (a, k, l, f); R: (sw, nw, ne, se) = (l, j, d, e)
    edges = [((0, 2), (2, 1)),   # j
             ((0, 3), (1, 1)),   # k
             ((1, 2), (2, 0))]   # l
    boundary = [(1, 0), (0, 0), (0, 1), (2, 2), (2, 3), (1, 3)]
    return WiringDiagram(model, n, nodes, edges, boundary)


def caduceus_lhs(model: Model, zi, zj) -> WiringDiagram:
    """Four-crossing braid closed by the model's two caps.

    Rising strands carry z_i, falling strands carry z_j.  Uncolored only.
    Boundary stubs (eps1..eps4) are the four open ends, top to bottom.
    """
    nodes = [
        Node(Family.R_GAMMA_DELTA, (zi, zj)),   # 0: D, wires w3 x w4
        Node(Family.R_GAMMA_GAMMA, (zi, zj)),   # 1: A, wires w3 x w2
        Node(Family.R_DELTA_DELTA, (zi, zj)),   # 2: B, wires w1 x w4
        Node(Family.R_DELTA_GAMMA, (zi, zj)),   # 3: C, wires w1 x w2
        Node(Family.CAP, ()),                   # 4: top cap
        Node(Family.CAP, ()),                   # 5: bottom cap
    ]
    edges = [
        ((0, 2), (1, 0)),   # e1: w3 between D and A
        ((1, 2), (4, 0)),   # e2: w3 into top-cap top
        ((0, 3), (2, 1)),   # e3: w4 between D and B
        ((2, 3), (5, 1)),   # e4: w4 into bottom-cap bottom
        ((1, 3), (3, 1)),   # e5: w2 between A and C
        ((3, 3), (5, 0)),   # e6: w2 into bottom-cap top
        ((2, 2), (3, 0)),   # e7: w1 between B and C
        ((3, 2), (4, 1)),   # e8: w1 into top-cap bottom
    ]
    boundary = [(1, 1), (0, 1), (0, 0), (2, 0)]   # eps1..eps4
    return WiringDiagram(model, 1, nodes, edges, boundary)


def caduceus_rhs(model: Model) -> WiringDiagram:
    """Two bare caps: top cap takes (eps1, eps2), bottom cap (eps3, eps4)."""
    nodes = [Node(Family.CAP, ()), Node(Family.CAP, ())]
    boundary = [(0, 0), (0, 1), (1, 0), (1, 1)]
    return WiringDiagram(model, 1, nodes, [], boundary)


def caduceus_scalar(zi, zj, q) -> Fraction:
    """The exact proportionality factor between the two caduceus sides.

    Its denominator ``q (z_i + z_j - (q+1) z_i z_j)^2`` vanishes where
    the R_DELTA_GAMMA(z_i, z_j) node does, since z_i + z_j - (q+1) z_i z_j
    = z_i (1 - z_i' z_j); there it raises DomainError.
    """
    den = q * (zi + zj - (q + 1) * zi * zj) ** 2
    if den == 0:
        raise DomainError(f"singular point: caduceus factor and {Family.R_DELTA_GAMMA.value} "
                          f"weights undefined at ({zi}, {zj}), q = {q}")
    num = (q * zi * zj - 1) * (1 - (q + 1) * (zi + zj) + (q * q + q + 1) * zi * zj)
    return num / den


def fish_lhs(model: Model, z) -> WiringDiagram:
    """One fish crossing (parameter z) closed by the flipped cap."""
    nodes = [Node(Family.R_FISH, (z,)), Node(Family.NEW_CAP, ())]
    # R: (sw, nw, ne, se) = (eps2, eps1, x, y); cap top = x, bottom = y
    edges = [((0, 2), (1, 0)), ((0, 3), (1, 1))]
    boundary = [(0, 1), (0, 0)]   # eps1, eps2
    return WiringDiagram(model, 1, nodes, edges, boundary)


def fish_rhs(model: Model) -> WiringDiagram:
    """The bare flipped cap with boundary (eps1, eps2) = (top, bottom)."""
    nodes = [Node(Family.NEW_CAP, ())]
    return WiringDiagram(model, 1, nodes, [], [(0, 0), (0, 1)])


def fish_scalar(model: Model, z, q) -> Fraction:
    """Proportionality factor of the fish relation for the given cap choice.

    Absorbing: 1.  Reflecting: -(z' - (q+1) z z' + q z) / (z' - (q+1) + q z),
    defined at z' = 0.  Its denominator q z - 1/z vanishes where the
    R_FISH(z) node does; there it raises DomainError.
    """
    if model is Model.UNCOLORED_ABSORBING:
        return ONE
    zp = zprime(z, q)
    den = zp - (q + 1) + q * z
    if den == 0:
        raise DomainError(f"singular point: fish factor and {Family.R_FISH.value} "
                          f"weights undefined at ({z}), q = {q}")
    return -(zp - (q + 1) * z * zp + q * z) / den


def reflection_lhs(model: Model, n: int, zi, zj) -> WiringDiagram:
    """Crossings S = Gamma-Gamma(z_i, z_j), T = Delta-Gamma(z_i, z_j) braided
    into the two caps.  Boundary (eps1..eps4) top to bottom."""
    nodes = [
        Node(Family.R_GAMMA_GAMMA, (zi, zj)),   # 0: S
        Node(Family.R_DELTA_GAMMA, (zi, zj)),   # 1: T
        Node(Family.CAP, ()),                   # 2: top cap (pair i)
        Node(Family.CAP, ()),                   # 3: bottom cap (pair j)
    ]
    # S: (eps2, eps1, c1, d1); T: (eps3, d1, b1, d2)
    edges = [
        ((0, 2), (2, 0)),   # c1 -> top-cap top
        ((0, 3), (1, 1)),   # d1
        ((1, 2), (2, 1)),   # b1 -> top-cap bottom
        ((1, 3), (3, 0)),   # d2 -> bottom-cap top
    ]
    boundary = [(0, 1), (0, 0), (1, 0), (3, 1)]
    return WiringDiagram(model, n, nodes, edges, boundary)


def reflection_rhs(model: Model, n: int, zi, zj) -> WiringDiagram:
    """Mirror braiding: S' = Delta-Delta(z_j, z_i), T' = Delta-Gamma(z_j, z_i)."""
    nodes = [
        Node(Family.R_DELTA_DELTA, (zj, zi)),   # 0: S'
        Node(Family.R_DELTA_GAMMA, (zj, zi)),   # 1: T'
        Node(Family.CAP, ()),                   # 2: top cap (pair j)
        Node(Family.CAP, ()),                   # 3: bottom cap (pair i)
    ]
    # S': (eps4, eps3, w1, q1); T': (w1, eps2, w2, r1)
    edges = [
        ((0, 2), (1, 0)),   # w1
        ((0, 3), (3, 1)),   # q1 -> bottom-cap bottom
        ((1, 2), (2, 1)),   # w2 -> top-cap bottom
        ((1, 3), (3, 0)),   # r1 -> bottom-cap top
    ]
    boundary = [(2, 0), (1, 1), (0, 1), (0, 0)]
    return WiringDiagram(model, n, nodes, edges, boundary)
