"""Seeded Monte Carlo sampling of the stochastic dynamics, and statistics.

The vertex-level sampler is canonical: a sample is one lattice filling
generated row by row from the top (row 2n) down, using the stochastic
orientation of each table.  Gamma rows are swept left to right sampling
(right, bottom) from the conditional law given (left, top); the cap then
maps the row's final right edge deterministically; the Delta row below is
swept right to left sampling (left, bottom) given (right, top).  The
product of the conditional probabilities consumed while generating a
non-escaping sample is exactly the Boltzmann weight of the generated
configuration.

A sample whose Delta-row left output is not "+" corresponds to a particle
leaving the system past column L; such samples are first-class outcomes
binned under ``escape``, not errors.

Randomness is a counter-based generator: each vertex decision consumes one
64-bit word, ``mix64`` of (seed, sample_index, row, column) (a
splitmix64-style chain), so samples are independent of iteration order,
reproducible, and trivially parallel.  Cumulative weights are compared
against the drawn word through integer thresholds ceil(c * 2^64); the
2^-64 quantization is far below every statistical tolerance used here.
The conditional laws are the rows of ``lattice.spec_rows``, re-keyed by
their inputs and checked by ``_checked_row``: each must sum to 1.

``Sampler`` is the one sweep: numpy arrays indexed by sample carry it for
up to ``_CHUNK`` samples at once, the hash chain split so that only its
column round runs per vertex, and every vertex writes its outputs into
the chunk's edge arrays.  The histogram of ``run_sampler`` is read off
their bottom row and each Delta row's last output, equal rows grouped by
``group_rows`` on packed integer keys; the per-chunk
``each`` hook of ``run_sampler`` (which ``sample --trajectories`` uses)
reads their vertical labels, and ``Sampler.sample`` the one
``Configuration`` of a one-sample sweep.  Because the generator is
counter-based, the sweep draws exactly the words a per-vertex loop over
``mix64`` would draw; the tests keep such a loop as the oracle.

``exact_outcome_probabilities`` is the exact law of the bottom outcome
in one pass: a row transfer from the top over the words of vertical
labels between row pairs by ``lattice.sweep_vertex``, summing the same
conditional probabilities the sampler draws from, checked the same way.
It runs on packed-integer keys, one ``lattice.packed_step`` table per
row (``Rows.step``), the row's class integers filled into a memoised
packed listing and checked by ``_checked_row``: the cap map and the
left-boundary filter act on the carried label's bits, and a word is
unpacked only to read its outcome.
Every path takes exactly L vertices from each row, so its probability is
an integer over ``Rows.scale``, and each outcome's mass, and the escape
mass ``(scale - total) / scale``, is one exact ``Fraction`` division.
Like ``SamplerConfig``, it refuses a point outside the stochastic regime.
``compare_empirical_to_exact`` tests the histogram against the law with
z-scores and a chi-square statistic, its quantile from ``chi2_quantile``.
``exhaustive_distribution`` replaces the random word by a recursive sum
over all branch choices with exact rational probabilities; it is kept as
an independent oracle for the law, and for small systems it reproduces
every partition function exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from statistics import NormalDist

import numpy as np

from .lattice import (Configuration, LatticeSpec, Rows, boundary_assignment, bottom_outcome,
                      bottom_row_outcome, label_bits, pack_word, row_family, spec_rows,
                      step_table, sweep_vertex, unpack_word)
from .rationals import in_stochastic_regime
from .weights import STOCHASTIC_INPUT_SLOTS, Family, cap_map, vertex_weight

ZERO = Fraction(0)
ONE = Fraction(1)

_MASK = (1 << 64) - 1
_TWO64 = 1 << 64

ESCAPE = "escape"


class SamplerSoundnessError(RuntimeError):
    """A sampler invariant failed: an outcome of exact probability 0 was
    sampled, a conditional row does not sum to 1, or the histogram lost a
    sample.  Always a bug, never bad luck."""


def mix64(*words: int) -> int:
    """Counter-based 64-bit word: a splitmix64 finalizer chained over words."""
    h = 0x9E3779B97F4A7C15
    for w in words:
        h = (h + (w & _MASK)) & _MASK
        h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & _MASK
        h ^= h >> 31
    return h


@dataclass(frozen=True)
class SamplerConfig:
    spec: LatticeSpec
    seed: int
    num_samples: int

    def __post_init__(self):
        if not in_stochastic_regime(self.spec.point):
            raise ValueError("sampler requires a point in the stochastic regime")
        if self.num_samples < 1:
            raise ValueError(f"sampler needs at least 1 sample, got {self.num_samples}")


def _checked_row(rows: Rows, r: int, table: dict, inputs=lambda key: key) -> dict:
    """``table``, row r re-keyed by its ``STOCHASTIC_INPUT_SLOTS`` (for the
    sampler or the exact law), once each input's weights are found to sum
    to D_r, i.e. each conditional law sums to 1.  SamplerSoundnessError
    names the first input that does not, by the labels ``inputs`` reads
    off its key."""
    den = rows.dens[r - 1]
    for key, entries in table.items():
        total = sum(w for _, _, w in entries)
        if total != den:
            raise SamplerSoundnessError(
                f"row {r} inputs {inputs(key)} sum to {Fraction(total, den)}, not 1")
    return table


def _conditional_tables(rows: Rows):
    """Per row: dict inputs -> (outputs list, integer cumulative thresholds).

    Each row's ``step_table`` keyed by its ``STOCHASTIC_INPUT_SLOTS``
    (Gamma rows by (left, top) to (right, bottom), Delta rows by (right,
    top) to (left, bottom)) and checked by ``_checked_row``, the output
    that passes the carried label straight through first; thresholds are
    ceil(cum * 2^64 / D_r).
    """
    tables = []
    for r, den in enumerate(rows.dens, start=1):
        table = step_table(rows.tables[r - 1], *STOCHASTIC_INPUT_SLOTS[row_family(r)])
        conditional = {}
        for (cur, top), entries in _checked_row(rows, r, table).items():
            entries = sorted(entries, key=lambda entry: entry[0] != cur)
            cum, thresholds = 0, []
            for _, _, w in entries:
                cum += w
                thresholds.append(-(-(cum * _TWO64) // den))
            conditional[(cur, top)] = ([(out, bottom) for out, bottom, _ in entries], thresholds)
        tables.append(conditional)
    return tables


@dataclass
class SampleOutcome:
    config: Configuration
    escaped: bool
    key: object   # ESCAPE, or (lambda parts, colors-or-None)


@dataclass
class SampleSummary:
    num_samples: int
    histogram: dict = field(default_factory=dict)   # key -> count
    escape_count: int = 0

    def check(self):
        counted = sum(self.histogram.values())
        if counted != self.num_samples:
            raise SamplerSoundnessError(
                f"histogram counts {counted} samples, expected {self.num_samples}")


# ---------------------------------------------------------------------------
# The sweep
# ---------------------------------------------------------------------------

#: Samples swept together; bounds the sampler's working memory (the edge
#: arrays of a chunk and a few integer arrays of L x _CHUNK) whatever the
#: number of samples.
_CHUNK = 1 << 14

_U64 = np.uint64
_MIX_START = np.array([0x9E3779B97F4A7C15], dtype=np.uint64)
_MIX_A, _MIX_B = _U64(0xBF58476D1CE4E5B9), _U64(0x94D049BB133111EB)
_SHIFT_A, _SHIFT_B, _SHIFT_C = _U64(30), _U64(27), _U64(31)
_NEVER = _MASK    # a limit no 64-bit word exceeds


def _mix_round(h, word):
    """One round of ``mix64`` on uint64 arrays, broadcasting ``h`` against
    ``word``; numpy's uint64 arithmetic wraps modulo 2^64, which is the
    masking ``mix64`` does by hand."""
    h = h + word
    h = (h ^ (h >> _SHIFT_A)) * _MIX_A
    h = (h ^ (h >> _SHIFT_B)) * _MIX_B
    return h ^ (h >> _SHIFT_C)


def _seed_round(seed: int):
    """``mix64``'s state after the seed word: a one-element uint64 array."""
    return _mix_round(_MIX_START, _U64(seed & _MASK))


def _pack_row(conditional: dict, index: dict):
    """One row of ``_conditional_tables`` as arrays over label indices.

    The inputs (cur, top) become the key ``index[cur] * A + index[top]``
    (A letters).  Slot k of a key holds its k-th output in
    ``outs[key * K + k]`` and ``bottoms[key * K + k]`` and, for k < K - 1,
    its threshold minus 1 in ``limits[k][key]``, so the draw's
    ``u >= threshold`` is ``u > limit``.  Outputs of threshold 0 are
    left out (no word falls below them), so every stored threshold is at
    least 1.  The last threshold of a key is 2^64 (its row sums to 1),
    which no word reaches, so it is not stored; a threshold of 2^64 before
    it and every padding slot hold 2^64 - 1, which no word exceeds.
    Counting the thresholds <= u gives the drawn output only if they rise,
    so a falling one is an error.
    """
    A = len(index)
    if len(conditional) != A * A:
        raise SamplerSoundnessError(f"a row has {len(conditional)} of {A * A} input pairs")
    K = max(len(pairs) for pairs, _ in conditional.values())
    outs = np.zeros(A * A * K, dtype=np.intp)
    bottoms = np.zeros(A * A * K, dtype=np.intp)
    limits = np.full((K - 1, A * A), _NEVER, dtype=np.uint64)
    for (cur, top), (pairs, thresholds) in conditional.items():
        if any(b < a for a, b in zip(thresholds, thresholds[1:])):
            raise SamplerSoundnessError(f"inputs {(cur, top)} have a negative weight")
        key = index[cur] * A + index[top]
        kept = [(pair, t) for pair, t in zip(pairs, thresholds) if t > 0]
        for k, ((out, bottom), t) in enumerate(kept):
            outs[key * K + k] = index[out]
            bottoms[key * K + k] = index[bottom]
            if k < K - 1:
                limits[k, key] = t - 1
    return limits, outs, bottoms, K


def _pick(limits, keys, u):
    """Slot drawn by each word: how many stored thresholds of its key are
    <= u.  A key's thresholds rise (``_pack_row`` checks it), so this slot
    holds the first output whose threshold exceeds u."""
    k = np.zeros(u.shape, dtype=np.intp)
    for limit in limits:
        k += u > limit[keys]
    return k


def group_rows(rows):
    """``(first, inverse, counts)`` for the distinct rows of a 2-D integer
    array of m rows: group g is the row ``rows[first[g]]`` and holds
    ``counts[g]`` rows, row i is in group ``inverse[i]`` (always 1-D), and
    groups are numbered in order of first occurrence.

    The labels are shifted to start at 0 and packed, b bits each, into one
    int64 key per row: each pass packs as many columns as fit beside a key
    below m (``m.bit_length()`` bits), and between passes a 1-D
    ``np.unique`` re-ranks the keys to 0..m-1, so rows of any width are
    grouped exactly by one integer sort per pass.  The labels must span
    fewer than 2 ** (63 - m.bit_length()) values.
    """
    rows = np.asarray(rows, dtype=np.int64)
    m, k = rows.shape
    if rows.size:
        rows = rows - rows.min()
    bits = max(int(rows.max(initial=0)).bit_length(), 1)
    width = (63 - m.bit_length()) // bits
    # reshape(m): in some numpy 2.0.x releases an inverse is not 1-D
    key = np.zeros(m, dtype=np.int64)
    for lo in range(0, k, width):
        if lo:
            key = np.unique(key, return_inverse=True)[1].reshape(m)
        for column in rows[:, lo:lo + width].T:
            key = (key << bits) | column
    _, first, inverse, counts = np.unique(key, return_index=True, return_inverse=True,
                                          return_counts=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return first[order], rank[inverse.reshape(m)], counts[order]


class Sampler:
    """The seeded sampler of one spec: one sweep over sample indices.

    Labels are handled as their indices in the spec's alphabet.  A chunk
    of m samples is swept row by row from the top, and every vertex writes
    its outputs into the chunk's edge arrays, ``vert`` of shape
    (2n+1, L, m) and ``hor`` of shape (2n+1, L+1, m), indexed like
    ``Configuration`` (row 0 of ``hor`` is unused).  Each vertex reads the
    ``mix64`` word of (seed, index, row, column) of every sample: the seed
    round runs once, the index round once per chunk, the row round once
    per row and only the column round per vertex.
    """

    def __init__(self, config: SamplerConfig):
        spec = config.spec
        self.spec = spec
        self.letters = np.array(spec.alphabet)
        self.dtype = np.min_scalar_type(len(spec.alphabet) - 1)
        index = {label: i for i, label in enumerate(spec.alphabet)}
        rows = spec_rows(spec)
        self.rows = [_pack_row(table, index) for table in _conditional_tables(rows)]
        self.left = [index[label] for label in rows.boundary.left]
        self.top = np.array([index[label] for label in rows.boundary.top], dtype=self.dtype)
        self.cap = np.array([index[cap_map(spec.model, label)] for label in spec.alphabet],
                            dtype=np.intp)
        self.empty = index[0]
        self.columns = np.arange(1, spec.L + 1, dtype=np.uint64)[:, None]
        self.seed_hash = _seed_round(config.seed)

    def _sweep_row(self, r, vert, hor, h_index):
        """Sweep row r of a chunk, reading ``vert[r]`` and writing
        ``vert[r - 1]`` and ``hor[r]``.  A Gamma row (even r) runs from
        column L down to 1 from its left boundary label, a Delta row from
        column 1 up to L from the cap's image of the Gamma row's output."""
        limits, outs, bottoms, K = self.rows[r - 1]
        A, L = len(self.letters), self.spec.L
        u = _mix_round(_mix_round(h_index, _U64(r)), self.columns)
        gamma = row_family(r) is Family.GAMMA
        if gamma:
            hor[r, L] = self.left[r - 1]
        else:
            hor[r, 0] = self.cap[hor[r + 1, 0]]
        cur = hor[r, L if gamma else 0].astype(np.intp)
        for c in (range(L, 0, -1) if gamma else range(1, L + 1)):
            keys = cur * A + vert[r, c - 1]
            slot = keys * K + _pick(limits, keys, u[c - 1])
            cur = outs[slot]
            hor[r, c - 1 if gamma else c] = cur
            vert[r - 1, c - 1] = bottoms[slot]

    def sweep(self, start: int, stop: int):
        """Yield ``(first index, vert, hor)`` for samples start..stop-1,
        in chunks of at most ``_CHUNK`` samples."""
        n, L = self.spec.n, self.spec.L
        for lo in range(start, stop, _CHUNK):
            hi = min(lo + _CHUNK, stop)
            h_index = _mix_round(self.seed_hash, np.arange(lo, hi, dtype=np.uint64))
            vert = np.empty((2 * n + 1, L, hi - lo), dtype=self.dtype)
            hor = np.zeros((2 * n + 1, L + 1, hi - lo), dtype=self.dtype)
            vert[2 * n] = self.top[:, None]
            for r in range(2 * n, 0, -1):
                self._sweep_row(r, vert, hor, h_index)
            yield lo, vert, hor

    def _escaped(self, hor):
        """Per sample: whether some Delta row's last output, past column L,
        carries a particle."""
        return (hor[1::2, self.spec.L] != self.empty).any(axis=0)

    def record(self, summary: SampleSummary, vert, hor):
        """Add a chunk's samples to the summary, each keyed by its bottom
        row (or ESCAPE), keys in the order of their first sample."""
        escaped = self._escaped(hor)
        kept = np.flatnonzero(~escaped)
        groups, _, counts = group_rows(vert[0][:, kept].T)
        first = kept[groups]
        found = [(f, bottom_row_outcome(self.spec.model, self.letters[row].tolist()), n)
                 for f, row, n in zip(first, vert[0][:, first].T, counts)]
        escapes = np.flatnonzero(escaped)
        if escapes.size:
            found.append((escapes[0], ESCAPE, escapes.size))
            summary.escape_count += int(escapes.size)
        for _, key, count in sorted(found, key=lambda entry: entry[0]):
            summary.histogram[key] = summary.histogram.get(key, 0) + int(count)

    def sample(self, index: int) -> SampleOutcome:
        """Deterministic function of (seed, index), for 0 <= index < 2**63."""
        if not 0 <= index < 1 << 63:
            raise ValueError(f"sample index must satisfy 0 <= index < 2**63, got {index}")
        spec = self.spec
        (_, vert, hor), = self.sweep(index, index + 1)
        escaped = bool(self._escaped(hor)[0])
        config = Configuration(
            spec.model, spec.n, spec.L,
            tuple(map(tuple, self.letters[vert[:, :, 0]].tolist())),
            ((None,) * (spec.L + 1),) + tuple(map(tuple, self.letters[hor[1:, :, 0]].tolist())))
        return SampleOutcome(config, escaped, ESCAPE if escaped else bottom_outcome(config))


def sample_configuration(config: SamplerConfig, index: int) -> SampleOutcome:
    """One seeded sample; see Sampler for the sweep description."""
    return Sampler(config).sample(index)


def run_sampler(config: SamplerConfig, each=None) -> SampleSummary:
    """SampleSummary over num_samples draws; pure in (spec, seed, num_samples).

    ``each``, if given, is called once per chunk of ``Sampler.sweep`` in
    index order, as ``each(first_index, labels, escaped)``: the chunk's
    vertical labels, shape (2n+1, L, m) like ``Configuration.vert``, and
    its m escape flags.  So a caller can export the samples the summary
    counts without drawing them a second time.
    """
    sampler = Sampler(config)
    summary = SampleSummary(config.num_samples)
    for start, vert, hor in sampler.sweep(0, config.num_samples):
        sampler.record(summary, vert, hor)
        if each is not None:
            each(start, sampler.letters[vert], sampler._escaped(hor))
    summary.check()
    return summary


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

def trajectory_from_configuration(config: Configuration):
    """Particle positions at times t = 0..2n.

    Entry t is the list of (column, label) for the occupied vertical edges
    crossed by the sweep line after t row updates (top boundary at t = 0,
    bottom boundary at t = 2n), ordered left to right (decreasing column
    number).
    """
    return trajectory_from_rows(config.vert)


def trajectory_from_rows(vert):
    """The trajectory of vertical label rows 0..2n (index c-1 for column c)."""
    return [[(c, layer[c - 1]) for c in range(len(layer), 0, -1) if layer[c - 1] != 0]
            for layer in reversed(vert)]


# ---------------------------------------------------------------------------
# Exact reference distributions
# ---------------------------------------------------------------------------

def configuration_weight(spec: LatticeSpec, config: Configuration) -> Fraction:
    """Product of vertex weights of a (not necessarily admissible) filling."""
    q = spec.point.q
    w = ONE
    for r in range(1, 2 * spec.n + 1):
        z = spec.point.z[(r + 1) // 2 - 1]
        for c in range(1, spec.L + 1):
            w *= vertex_weight(spec.model, row_family(r), config.vertex_edges(r, c), (z,), q)
    return w


def exhaustive_distribution(spec: LatticeSpec) -> dict:
    """Exact law of the sampler: key -> probability, summing to 1.

    Walks every branch of the sampling process with its exact conditional
    probability (no randomness).  Non-escaping leaves carry exactly the
    Boltzmann weight of their configuration, so the mass of an outcome key
    equals the partition function with that bottom boundary.
    """
    bnd = boundary_assignment(spec)
    n2, L = 2 * spec.n, spec.L
    q = spec.point.q
    letters = spec.alphabet
    dist: dict = {}
    vert = [[None] * L for _ in range(n2 + 1)]
    vert[n2] = list(bnd.top)

    def pair(i: int, prob: Fraction, escaped: bool):
        if i == 0:
            key = ESCAPE if escaped else bottom_row_outcome(spec.model, vert[0])
            dist[key] = dist.get(key, ZERO) + prob
            return
        r = 2 * i
        z = spec.point.z[i - 1]

        def gamma(c, cur, p):
            if c == 0:
                delta(1, cap_map(spec.model, cur), p)
                return
            top = vert[r][c - 1]
            cands = [(cur, top), (top, cur)] if cur != top else [(cur, cur)]
            for right, bottom in cands:
                w = vertex_weight(spec.model, Family.GAMMA, (cur, top, right, bottom), (z,), q)
                if w == 0:
                    continue
                vert[r - 1][c - 1] = bottom
                gamma(c - 1, right, p * w)

        def delta(c, cur, p):
            rr = 2 * i - 1
            if c == L + 1:
                pair(i - 1, p, escaped or cur != 0)
                return
            top = vert[rr][c - 1]
            cands = [(cur, top), (top, cur)] if cur != top else [(cur, cur)]
            for left, bottom in cands:
                w = vertex_weight(spec.model, Family.DELTA, (left, top, cur, bottom), (z,), q)
                if w == 0:
                    continue
                vert[rr - 1][c - 1] = bottom
                delta(c + 1, left, p * w)

        gamma(L, bnd.left[r - 1], prob)

    pair(spec.n, ONE, False)
    return dist


# ---------------------------------------------------------------------------
# The exact outcome law and empirical-vs-exact comparison
# ---------------------------------------------------------------------------

def exact_outcome_probabilities(spec: LatticeSpec) -> dict:
    """key -> exact probability for every outcome of nonzero mass, plus ESCAPE.

    One row transfer from the top, the forward equation of the particle
    system.  Its state maps each word of vertical labels between two row
    pairs (index c-1 for column c) to its mass on integer numerators
    (``lattice.spec_rows``), divided by the common scale once at
    the end.  A step sweeps the Gamma row left to right from its left
    boundary label, maps the row's right end through the cap, then sweeps
    the Delta row right to left; paths whose Delta row emits a particle
    past column L escape and are dropped.  In the stochastic regime the
    mass of an outcome is the partition function with that bottom
    boundary, and the escape mass is the complement.  Keys are packed as
    in ``lattice.sweep_vertex``: the cap and the left-boundary filter
    act on the carried label's bits, and words are unpacked only for
    ``bottom_row_outcome``.  ValueError outside
    the stochastic regime, as for ``SamplerConfig``: there the masses are
    no probabilities.
    """
    if not in_stochastic_regime(spec.point):
        raise ValueError("the exact outcome law requires a point in the stochastic regime")
    rows = spec_rows(spec)
    bnd, scale, L = rows.boundary, rows.scale, spec.L
    letters = spec.alphabet
    index = {label: i for i, label in enumerate(letters)}
    b = label_bits(letters)
    carried = (1 << b) - 1
    cap = [index[cap_map(spec.model, label)] for label in letters]

    def packed_row(r: int) -> dict:
        table = rows.step(r, *STOCHASTIC_INPUT_SLOTS[row_family(r)])
        return _checked_row(rows, r, table, lambda key: (letters[key & carried], letters[key >> b]))

    words = {pack_word(bnd.top, index, b): (1, 1)}
    for i in range(spec.n, 0, -1):
        front = {word | index[bnd.left[2 * i - 1]]: pair for word, pair in words.items()}
        gamma = packed_row(2 * i)
        for c in range(L, 0, -1):
            front = sweep_vertex(front, gamma, c - 1, b)
        front = {key & ~carried | cap[key & carried]: pair for key, pair in front.items()}
        delta = packed_row(2 * i - 1)
        for c in range(1, L + 1):
            front = sweep_vertex(front, delta, c - 1, b)
        left = index[bnd.left[2 * i - 2]]
        words = {key & ~carried: pair for key, pair in front.items() if key & carried == left}
    masses = {bottom_row_outcome(spec.model, unpack_word(word, letters, b, L)): p
              for word, (p, _) in words.items() if p != 0}
    total = sum(masses.values())
    if total > scale:
        raise SamplerSoundnessError(
            f"outcome probabilities sum to {Fraction(total, scale)} > 1")
    out = {key: Fraction(p, scale) for key, p in masses.items()}
    if total != scale:
        out[ESCAPE] = Fraction(scale - total, scale)
    return out


@dataclass
class OutcomeStat:
    key: object
    count: int
    probability: Fraction
    z_score: float


POOLED = "(pooled rare outcomes)"

#: Outcomes with expected count below this are pooled into one bucket; the
#: normal approximation behind z-scores and the chi-square distribution of
#: the aggregate statistic are both invalid for near-empty cells (a single
#: observation of a probability-1e-7 outcome is unremarkable but would blow
#: past any z cutoff), so the stated tolerances are applied at the
#: resolution where they mean something.  Soundness of rare outcomes is
#: still fully checked: a sampled outcome with exact probability 0 is a
#: hard error regardless of pooling.
POOL_MIN_EXPECTED = 10.0
CHI2_LEVEL = 0.999


@dataclass
class StatReport:
    """Per-outcome z-scores and an aggregate chi-square test.

    Outcomes with expected count under POOL_MIN_EXPECTED appear as one
    pooled row.  The chi-square statistic runs over the pooled table
    (including rows never sampled) with num_rows - 1 degrees of freedom;
    ``chi2_quantile`` is its CHI2_LEVEL (0.999) quantile.
    """

    num_samples: int
    rows: list
    chi2_stat: float
    dof: int
    chi2_quantile: float

    @property
    def max_z(self) -> float:
        return max((row.z_score for row in self.rows), default=0.0)

    def within(self, z_limit: float = 5.0) -> bool:
        return self.max_z < z_limit and self.chi2_stat < self.chi2_quantile


def _upper_gamma(a: float, x: float) -> float:
    """The regularised upper incomplete gamma function Q(a, x), x > 0: one
    minus the series of P(a, x) below a + 1, a continued fraction
    (modified Lentz) above."""
    front = math.exp(a * math.log(x) - x - math.lgamma(a))
    if x < a + 1:
        term = total = 1 / a
        k = a
        while abs(term) > abs(total) * 1e-17:
            k += 1
            term *= x / k
            total += term
        return 1 - front * total
    tiny = 1e-300
    b = x + 1 - a
    c, d = 1 / tiny, 1 / b
    h, i = d, 0
    while True:
        i += 1
        an = -i * (i - a)
        b += 2
        d = an * d + b
        d = 1 / (d if abs(d) > tiny else tiny)
        c = b + an / c
        c = c if abs(c) > tiny else tiny
        h *= d * c
        if abs(d * c - 1) < 1e-16:
            return front * h


def chi2_quantile(dof: int) -> float:
    """The CHI2_LEVEL (0.999) quantile of the chi-square law with ``dof``
    degrees of freedom: Newton steps on Q(dof/2, x/2) = 1 - CHI2_LEVEL
    from the Wilson-Hilferty start, to about 3e-14 relative for dof
    1..3000."""
    a, tail = dof / 2, 1 - CHI2_LEVEL
    h = 2 / (9 * dof)
    y = a * (1 - h + NormalDist().inv_cdf(CHI2_LEVEL) * math.sqrt(h)) ** 3
    for _ in range(50):
        density = math.exp((a - 1) * math.log(y) - y - math.lgamma(a))
        step = (_upper_gamma(a, y) - tail) / density
        y = y + step if y + step > 0 else y / 2
        if abs(step) <= 1e-12 * y:
            break
    return 2 * y


def compare_empirical_to_exact(summary: SampleSummary, exact: dict) -> StatReport:
    """Statistics report; raises SamplerSoundnessError on impossible outcomes."""
    N = summary.num_samples
    for key, count in summary.histogram.items():
        if count > 0 and exact.get(key, ZERO) == 0:
            raise SamplerSoundnessError(f"sampled outcome {key} has exact probability 0")
    cells = []
    pooled_p, pooled_count = ZERO, 0
    for key, p in sorted(exact.items(), key=repr):
        count = summary.histogram.get(key, 0)
        if float(p) * N < POOL_MIN_EXPECTED:
            pooled_p += p
            pooled_count += count
        else:
            cells.append((key, count, p))
    if pooled_p > 0:
        cells.append((POOLED, pooled_count, pooled_p))
    rows = []
    chi = 0.0
    for key, count, p in cells:
        pf = float(p)
        se = math.sqrt(pf * (1 - pf) / N)
        zscore = abs(count / N - pf) / se if se > 0 else 0.0
        chi += (count - N * pf) ** 2 / (N * pf)
        rows.append(OutcomeStat(key, count, p, zscore))
    dof = max(len(cells) - 1, 1)
    return StatReport(N, rows, chi, dof, chi2_quantile(dof))
