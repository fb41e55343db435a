"""The 2n x L U-turn lattice: boundaries, state enumeration, partition functions.

Geometry and conventions (matching the model figures):

* Rows are numbered 1..2n from bottom to top.  Odd rows are Delta rows,
  even rows are Gamma rows; the pair (2i-1, 2i) shares the spectral
  parameter z_i and is joined on the right by a cap whose top edge is the
  Gamma row's right end and whose bottom edge is the Delta row's right end.
* Columns are numbered 1..L from *right to left* (column 1 touches the
  caps, column L the open left boundary).
* Boundary labels: top all "+"; left boundary carries the occupied label
  ("-" or color c_sigma(i)) on each Gamma row and "+" on each Delta row;
  the bottom carries the occupied label (or c_tau(i)) exactly at the
  columns lambda_i + n' + 1 - i and "+" elsewhere.

Internal storage uses 0-based column *indices* ``c-1`` for column ``c``:

    vert[r][c-1]   vertical edge between row r and row r+1 at column c
                   (r = 0 is the bottom boundary, r = 2n the top boundary)
    hor[r][c]      horizontal edge of row r between column c+1 and column c
                   (c = L is the left boundary stub, c = 0 the cap side)

so the vertex in row r, column c reads
``(left, top, right, bottom) = (hor[r][c], vert[r][c-1], hor[r][c-1], vert[r-1][c-1])``.

Weights are looked up, never recomputed: ``spec_rows`` builds a ``Rows``
per call, the boundary and row r's ``weights.integer_classes``, each order
class's weight times D_r, the row's common denominator.  Every state has
exactly L vertices in each row, so ``Z * Rows.scale`` (``prod_r D_r**L``)
is an integer.  ``Rows.tables`` fills row r's ``weights.integer_table``
(each listed pattern ``(left, top, right, bottom)`` with its integer) and
``step_table`` re-keys it by the two input slots a sweep reads.
``packed_step`` gives that re-keying on packed label indices: a packed
listing, memoised on (model, family, letters, slots) since it holds no
parameter point, with the row's class integers filled in.

A transfer frontier is keyed by packed ints.  With b = ``label_bits``
bits a label and each label stored as its index in the spec's alphabet,
a key holds the carried label in bits 0..b-1 and letter k of the word in
bits b(k+1)..b(k+2)-1.  ``pack_word`` and ``unpack_word`` convert a word
once at each end of a transfer, so every result is keyed by label tuples.

There is one engine for ``Z``: ``partition_function`` is the sparse column
transfer (columns L down to 1, each resolved vertex by vertex top to
bottom, merging equal frontiers) contracted with the caps inside column
1: once row 2i-1 is swept there, keys whose rows 2i and 2i-1 do not end
in a cap's pair are dropped, so the keys left are the closing states and
no word is unpacked.  Its vertex
step ``sweep_vertex`` reads and writes labels with masks and shifts, and
also runs the exact outcome law along rows
(``dynamics.exact_outcome_probabilities``).  Each frontier entry carries
a pair: the integer weight of the partial fillings that reach it and
their number, entries of weight 0 included.  So one transfer sums both
(``partition_and_count``), and divides the weight once by the scale
(``transfer_right_edge_weights`` keeps the right ends open, unpacks them
and divides each entry), giving
the exact, normalised ``Fraction``; ``partition_function`` and
``count_states`` read one element each.  ``enumerate_states`` yields
every admissible state with its weight by a column-ordered depth-first
search over the integer rows, one ``Fraction`` per state; it is the
state stream for rendering and ``partition --method enumeration``, and
an oracle for the transfer in the tests and criterion 7; it closes the
caps by ``_closes``.

Everything is pure and immutable; distinct specs may be evaluated
concurrently.  The state stream from ``enumerate_states`` is a generator
(single consumer).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .rationals import ParamPoint
from .weights import (Family, Model, alphabet, cap_map, filled_table, integer_classes,
                      listed_patterns)


class SpecError(ValueError):
    """Inconsistent lattice specification."""


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing tuple of nonnegative integers."""

    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(int(p) for p in self.parts))
        if any(p < 0 for p in self.parts):
            raise SpecError("partition parts must be nonnegative")
        if any(self.parts[i] < self.parts[i + 1] for i in range(len(self.parts) - 1)):
            raise SpecError("partition parts must be weakly decreasing")

    @property
    def nparts(self) -> int:
        return len(self.parts)

    @property
    def first(self) -> int:
        return self.parts[0] if self.parts else 0


class SignedPermutation:
    """Element of the hyperoctahedral group B_n as images of 1..n.

    ``images[k]`` is sigma(k+1) in {-n..-1, 1..n}; the extension
    sigma(-i) = -sigma(i) is implied.  Composition is right-to-left:
    (sigma * tau)(i) = sigma(tau(i)).  Plain permutations (all images
    positive) double as elements of the symmetric group for the
    positive-colored model.
    """

    def __init__(self, images):
        self.images = tuple(int(v) for v in images)
        n = len(self.images)
        if sorted(abs(v) for v in self.images) != list(range(1, n + 1)) or 0 in self.images:
            raise SpecError(f"not a signed permutation of 1..{n}: {images}")

    @property
    def n(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> "SignedPermutation":
        return cls(range(1, n + 1))

    def __call__(self, i: int) -> int:
        if i > 0:
            return self.images[i - 1]
        return -self.images[-i - 1]

    def __mul__(self, other: "SignedPermutation") -> "SignedPermutation":
        return SignedPermutation(tuple(self(other(i)) for i in range(1, self.n + 1)))

    def times_s(self, i: int) -> "SignedPermutation":
        """Right action by a generator: sigma * s_i.

        For i < n this swaps the images at positions i, i+1; for i = n it
        negates the image at position n.
        """
        images = list(self.images)
        if i == self.n:
            images[-1] = -images[-1]
        else:
            images[i - 1], images[i] = images[i], images[i - 1]
        return SignedPermutation(images)

    @property
    def all_positive(self) -> bool:
        return all(v > 0 for v in self.images)

    def __eq__(self, other):
        return isinstance(other, SignedPermutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"SignedPermutation({list(self.images)})"


def all_signed_permutations(n: int):
    """All 2^n n! elements of B_n."""
    import itertools
    for perm in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            yield SignedPermutation(tuple(s * p for s, p in zip(signs, perm)))


def all_plain_permutations(n: int):
    import itertools
    for perm in itertools.permutations(range(1, n + 1)):
        yield SignedPermutation(perm)


@dataclass(frozen=True)
class LatticeSpec:
    """A fully specified model instance: family, size, boundary data, point."""

    model: Model
    n: int
    L: int
    lam: Partition
    point: ParamPoint
    sigma: Optional[SignedPermutation] = None
    tau: Optional[SignedPermutation] = None

    def __post_init__(self):
        if self.n < 1:
            raise SpecError(f"need n >= 1, got n = {self.n}")
        if self.point.n != self.n:
            raise SpecError("point has wrong number of spectral parameters")
        nprime = self.lam.nparts
        if self.L < self.lam.first + nprime:
            raise SpecError("need L >= lambda_1 + n'")
        if self.model is Model.UNCOLORED_REFLECTING and nprime != self.n:
            raise SpecError("reflecting model requires n' = n")
        if self.model.colored:
            if nprime != self.n:
                raise SpecError("colored models require n' = n")
            if self.sigma is None or self.tau is None:
                raise SpecError("colored models require sigma and tau")
            if self.sigma.n != self.n or self.tau.n != self.n:
                raise SpecError("sigma, tau must lie in B_n")
            if self.model is Model.COLORED_POSITIVE:
                if not (self.sigma.all_positive and self.tau.all_positive):
                    raise SpecError("positive-colored model takes plain permutations")
        elif self.sigma is not None or self.tau is not None:
            raise SpecError("uncolored models take no sigma/tau")

    @property
    def nprime(self) -> int:
        return self.lam.nparts

    @property
    def alphabet(self) -> tuple:
        return alphabet(self.model, self.n)

    def with_point(self, point: ParamPoint) -> "LatticeSpec":
        return LatticeSpec(self.model, self.n, self.L, self.lam, point, self.sigma, self.tau)

    def with_sigma(self, sigma: SignedPermutation) -> "LatticeSpec":
        return LatticeSpec(self.model, self.n, self.L, self.lam, self.point, sigma, self.tau)


@dataclass(frozen=True)
class Boundary:
    """Explicit boundary labels: left by row 1..2n, top/bottom by column."""

    left: tuple    # index r-1 -> label on the left stub of row r
    top: tuple     # index c-1 -> label above row 2n at column c
    bottom: tuple  # index c-1 -> label below row 1 at column c


def particle_columns(lam: Partition) -> tuple:
    """Columns lambda_i + n' + 1 - i carrying bottom particles (decreasing)."""
    np = lam.nparts
    return tuple(lam.parts[i - 1] + np + 1 - i for i in range(1, np + 1))


def boundary_assignment(spec: LatticeSpec) -> Boundary:
    """Boundary labels determined by (lambda, sigma, tau) and the family."""
    left = []
    for r in range(1, 2 * spec.n + 1):
        if row_family(r) is Family.DELTA:
            left.append(0)
        else:
            i = r // 2
            left.append(spec.sigma(i) if spec.model.colored else -1)
    top = tuple(0 for _ in range(spec.L))
    bottom = [0] * spec.L
    for i, col in enumerate(particle_columns(spec.lam), start=1):
        bottom[col - 1] = spec.tau(i) if spec.model.colored else -1
    return Boundary(tuple(left), top, tuple(bottom))


@dataclass(frozen=True)
class Configuration:
    """A full admissible edge labeling (see module docstring for indexing)."""

    model: Model
    n: int
    L: int
    vert: tuple   # rows 0..2n, each a tuple of L labels (index c-1)
    hor: tuple    # rows 0..2n (row 0 unused), each a tuple of L+1 labels

    def vertex_edges(self, r: int, c: int) -> tuple:
        return (self.hor[r][c], self.vert[r][c - 1], self.hor[r][c - 1], self.vert[r - 1][c - 1])


def row_family(r: int) -> Family:
    """The family of row r: Gamma for even r, Delta for odd r (row 2i is
    the Gamma row of pair i, the row below it its Delta row)."""
    return Family.GAMMA if r % 2 == 0 else Family.DELTA


@dataclass(frozen=True)
class Rows:
    """One spec's rows on integer weights: ``classes[r-1]`` is row r's
    ``weights.integer_classes`` (each order class's int, None -> D_r).  A
    state, column filling or outcome-law path takes L vertices per row, so
    its weight is its integer product over ``scale`` = prod_r D_r**L."""

    spec: LatticeSpec
    boundary: Boundary
    classes: tuple

    @property
    def dens(self) -> tuple:
        """D_r of row r at index r-1."""
        return tuple(ints[None] for ints in self.classes)

    @property
    def scale(self) -> int:
        return math.prod(self.dens) ** self.spec.L

    @functools.cached_property
    def tables(self) -> tuple:
        """Row r's ``weights.integer_table`` at index r-1, filled from its classes."""
        return tuple(filled_table(self.spec.model, row_family(r), self.spec.alphabet, ints)
                     for r, ints in enumerate(self.classes, start=1))

    def step(self, r: int, carried: int, letter: int) -> dict:
        """Row r's ``packed_step`` table."""
        return packed_step(self.spec.model, row_family(r), self.spec.alphabet,
                           self.classes[r - 1], carried, letter)


def spec_rows(spec: LatticeSpec) -> Rows:
    """The spec's boundary and its rows' class ints."""
    return Rows(spec, boundary_assignment(spec),
                tuple(integer_classes(spec.model, row_family(r), (spec.point.z[(r - 1) // 2],),
                                      spec.point.q, spec.alphabet)
                      for r in range(1, 2 * spec.n + 1)))


def _closes(model: Model, ends) -> bool:
    """Whether right-end labels ``ends`` (row r at index r-1) close at the
    caps: each Gamma row's end maps to the end of the Delta row below."""
    return all(cap_map(model, ends[r]) == ends[r - 1] for r in range(1, len(ends), 2))


def enumerate_states(spec: LatticeSpec) -> Iterator[tuple]:
    """Yield every admissible (Configuration, exact weight) exactly once."""
    rows = spec_rows(spec)
    bnd, scale = rows.boundary, rows.scale
    tables = [step_table(table, 0, 1) for table in rows.tables]
    n2, L = 2 * spec.n, spec.L
    hor = [[None] * (L + 1) for _ in range(n2 + 1)]
    vert = [[None] * L for _ in range(n2 + 1)]
    for r in range(1, n2 + 1):
        hor[r][L] = bnd.left[r - 1]
    vert[n2] = list(bnd.top)

    def sweep(c: int, r: int, weight: int):
        if c == 0:
            if _closes(spec.model, [row[0] for row in hor[1:]]):
                yield Configuration(
                    spec.model, spec.n, L,
                    tuple(tuple(row) for row in vert),
                    tuple(tuple(row) for row in hor)), Fraction(weight, scale)
            return
        if r == 0:
            yield from sweep(c - 1, n2, weight)
            return
        for right, bottom, w in tables[r - 1][(hor[r][c], vert[r][c - 1])]:
            if r == 1 and bottom != bnd.bottom[c - 1]:
                continue
            hor[r][c - 1] = right
            vert[r - 1][c - 1] = bottom
            yield from sweep(c, r - 1, weight * w)
        hor[r][c - 1] = None
        if r > 1:
            vert[r - 1][c - 1] = None

    yield from sweep(L, n2, 1)


def step_table(table: dict, carried: int, letter: int) -> dict:
    """A row table keyed ``(carried, letter) -> [(carried out, letter out,
    weight), ...]`` for ``sweep_vertex``, in table order.  ``carried`` and
    ``letter`` are input slots of (left, top, right, bottom); their outputs
    are the opposite slots, ``slot ^ 2``."""
    out: dict = {}
    for edges, w in table.items():
        out.setdefault((edges[carried], edges[letter]), []).append(
            (edges[carried ^ 2], edges[letter ^ 2], w))
    return out


def label_bits(letters) -> int:
    """Bits b of one label of ``letters`` in a packed key (at least 1)."""
    return max(len(letters) - 1, 1).bit_length()


def pack_word(word, index: dict, b: int) -> int:
    """The packed key of ``word`` with carried label index 0: letter k's
    ``index`` in bits b(k+1)..b(k+2)-1."""
    key = 0
    for label in reversed(word):
        key = (key | index[label]) << b
    return key


def unpack_word(key: int, letters, b: int, length: int) -> tuple:
    """The ``length`` letters of a packed key's word, by their indices in
    ``letters``; the carried label is dropped."""
    mask = (1 << b) - 1
    return tuple(letters[(key >> (b * k)) & mask] for k in range(1, length + 1))


@functools.lru_cache(maxsize=None)
def _packed_listing(model: Model, family: Family, letters: tuple, carried: int,
                    letter: int) -> tuple:
    """The listing of ``family`` over ``letters`` keyed as ``packed_step``
    keys it, each entry with its order class in place of its weight.  It
    holds no parameter point, so it is memoised on its structural key."""
    index = {label: i for i, label in enumerate(letters)}
    b = label_bits(letters)
    out: dict = {}
    for edges, order in listed_patterns(model, family, letters):
        out.setdefault(index[edges[carried]] | index[edges[letter]] << b, []).append(
            (index[edges[carried ^ 2]], index[edges[letter ^ 2]] << b, order))
    return tuple((key, tuple(entries)) for key, entries in out.items())


def packed_step(model: Model, family: Family, letters: tuple, ints: dict, carried: int,
                letter: int) -> dict:
    """``step_table`` of the ``family`` table over ``letters`` with class ints
    ``ints`` (``weights.integer_classes``), on packed labels for
    ``sweep_vertex``: ``cur | letter << b -> [(out, put << b, weight), ...]``
    in listing order, where each label is its index in ``letters`` and b
    its ``label_bits``.  Only the weights are filled in per call."""
    return {key: [(out, put, ints[order]) for out, put, order in entries]
            for key, entries in _packed_listing(model, family, letters, carried, letter)}


def sweep_vertex(front: dict, table: dict, k: int, b: int) -> dict:
    """Resolve one vertex for every frontier entry, on integer weights.

    ``front`` maps a packed key to a pair (weight, count): the summed
    integer weight of the partial fillings that reach it, and how many
    there are.  A key is one int holding the carried label's index in bits
    0..b-1 and letter k of the word in bits b(k+1)..b(k+2)-1.  The vertex
    reads the carried label and letter k with masks from a ``packed_step``
    table, writes its letter out at k and carries the other output on;
    each listed pattern multiplies the weight by its own and passes the
    count through.  Entries of weight 0 are carried like any other, so
    the count includes the fillings that weigh 0, and equal frontier
    entries merge at once."""
    shift = b * k
    cur_mask = (1 << b) - 1
    letter_mask = cur_mask << b
    keep = ~(cur_mask | letter_mask << shift)
    nxt: dict = {}
    for key, (weight, count) in front.items():
        rest = key & keep
        for out, put, w in table[key & cur_mask | (key >> shift) & letter_mask]:
            new = rest | out | put << shift
            old = nxt.get(new)
            nxt[new] = ((weight * w, count) if old is None
                        else (old[0] + weight * w, old[1] + count))
    return nxt


def _column_transfer(rows: Rows, close: bool) -> dict:
    """Integer weight and number of column fillings, by packed right ends.

    A column is resolved by ``sweep_vertex`` from the top, carrying the
    vertical label down the packed word of horizontal labels; row 1 reads
    only the completions whose bottom is the column's boundary label.  The
    left boundary is packed once.  With ``close``, column 1 drops each key
    whose right ends on rows 2i and 2i-1 do not close at the cap as soon
    as it has swept row 2i-1, so only closing right ends are returned.
    """
    spec, bnd = rows.spec, rows.boundary
    letters = spec.alphabet
    index = {label: i for i, label in enumerate(letters)}
    b = label_bits(letters)
    columns = [rows.step(r, 1, 0) for r in range(1, 2 * spec.n + 1)]
    row_1 = {label: {inputs: [entry for entry in entries if entry[0] == index[label]]
                     for inputs, entries in columns[0].items()}
             for label in set(bnd.bottom)}
    # the packed (row 2i-1, row 2i) right ends that close at a cap
    pair_mask = (1 << 2 * b) - 1
    caps = {index[cap_map(spec.model, top)] | index[top] << b for top in letters}
    states = {pack_word(bnd.left, index, b): (1, 1)}
    carried = (1 << b) - 1
    for c in range(spec.L, 0, -1):
        front = {h | index[bnd.top[c - 1]]: pair for h, pair in states.items()}
        for r in range(2 * spec.n, 0, -1):
            table = row_1[bnd.bottom[c - 1]] if r == 1 else columns[r - 1]
            front = sweep_vertex(front, table, r - 1, b)
            if close and c == 1 and r % 2:
                shift = b * r
                front = {key: pair for key, pair in front.items()
                         if (key >> shift) & pair_mask in caps}
        states = {key & ~carried: pair for key, pair in front.items()}
    return states


def _capped(rows: Rows) -> tuple:
    """The column transfer contracted with the caps: its (integer weight,
    count) summed over the closing right ends."""
    weight = count = 0
    for w, num in _column_transfer(rows, close=True).values():
        weight, count = weight + w, count + num
    return weight, count


def transfer_right_edge_weights(spec: LatticeSpec) -> dict:
    """Column transfer without the final cap contraction.

    Returns the map from the tuple of 2n right-end horizontal labels
    (rows ordered 1..2n) to the exact sum of weights of all column
    fillings producing them -- the lattice with its right boundary left
    open; a right end that only fillings of weight 0 reach maps to 0.
    Contracting against the cap tables gives partition_function.
    """
    rows = spec_rows(spec)
    scale, letters = rows.scale, spec.alphabet
    b = label_bits(letters)
    return {unpack_word(h, letters, b, 2 * spec.n): Fraction(weight, scale)
            for h, (weight, _) in _column_transfer(rows, close=False).items()}


def partition_and_count(spec: LatticeSpec) -> tuple:
    """(Z, number of admissible states) from one column transfer; the
    count includes the states of weight 0."""
    rows = spec_rows(spec)
    weight, count = _capped(rows)
    return Fraction(weight, rows.scale), count


def partition_function(spec: LatticeSpec) -> Fraction:
    """Exact sum of state weights: the column transfer contracted with the caps."""
    return partition_and_count(spec)[0]


def count_states(spec: LatticeSpec) -> int:
    """Number of admissible states, the length of ``enumerate_states``,
    states of weight 0 included: the count of ``partition_and_count``."""
    return partition_and_count(spec)[1]


def bottom_row_outcome(model: Model, bottom_row) -> tuple:
    """(lambda parts, colors) read off a bottom row of labels (index c-1).

    Positions are the particle columns in decreasing order; part i is
    recovered as column - (n' + 1 - i).  colors is None for uncolored
    models, else the tuple (tau(1), .., tau(n')).
    """
    cols = [c for c in range(len(bottom_row), 0, -1) if bottom_row[c - 1] != 0]
    np = len(cols)
    parts = tuple(col - (np + 1 - i) for i, col in enumerate(cols, start=1))
    if model.colored:
        return parts, tuple(bottom_row[col - 1] for col in cols)
    return parts, None


def bottom_outcome(config: Configuration):
    """(lambda parts, colors) read off the bottom boundary of a state."""
    return bottom_row_outcome(config.model, config.vert[0])
