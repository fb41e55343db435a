"""Computations made apart from the package, used to check its outputs.

Nothing here calls the package's engines: partition functions and
wiring-diagram values are plain sums over every labeling of the internal
edges, using only the vertex and cap weight tables; statistics are
recomputed from the histogram and the exact law; trajectory files are
read back and compared with the histogram the same command printed.
Every ``check_*`` function returns a list of error strings, empty when
the output is right.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

from scipy.stats import chi2

from symplectic_ice.weights import Family, Model, cap_weight, vertex_weight

ESCAPE = "escape"
Z_LIMIT = 5.0
CHI2_LEVEL = 0.999
POOL_MIN_EXPECTED = 10.0


def full_alphabet(model: Model, n: int) -> tuple:
    if model is Model.COLORED_SIGNED:
        return tuple(range(-n, n + 1))
    if model is Model.COLORED_POSITIVE:
        return tuple(range(0, n + 1))
    return (-1, 0)


# ---------------------------------------------------------------------------
# Partition functions by brute force
# ---------------------------------------------------------------------------

def brute_partition_function(model: Model, n: int, L: int, parts, z, q,
                             sigma=None, tau=None) -> Fraction:
    """Sum over all labelings of the internal edges of the 2n x L lattice.

    Rows 1..2n bottom to top (odd rows Delta, even rows Gamma, pair i uses
    z_i and one cap), columns 1..L right to left.  Top boundary empty;
    left stubs carry sigma(i) (or "-") on Gamma rows; the bottom carries
    tau(i) (or "-") at columns parts_i + n' + 1 - i.
    """
    letters = full_alphabet(model, n)
    n2, nparts = 2 * n, len(parts)
    colored = model.colored
    # hor[r][c]: row r, between column c+1 and c (c = L left stub, c = 0 cap side)
    # vert[r][c-1]: between rows r and r+1 at column c (r = 0 bottom, r = 2n top)
    hor = [[None] * (L + 1) for _ in range(n2 + 1)]
    vert = [[0] * L for _ in range(n2 + 1)]
    for r in range(1, n2 + 1):
        hor[r][L] = (sigma[r // 2 - 1] if colored else -1) if r % 2 == 0 else 0
    bottom = [0] * L
    for i in range(1, nparts + 1):
        bottom[parts[i - 1] + nparts + 1 - i - 1] = tau[i - 1] if colored else -1
    vert[0] = bottom
    slots = [("h", r, c) for r in range(1, n2 + 1) for c in range(L)] + \
            [("v", r, c) for r in range(1, n2) for c in range(L)]
    total = Fraction(0)
    for labels in itertools.product(letters, repeat=len(slots)):
        for (kind, r, c), label in zip(slots, labels):
            if kind == "h":
                hor[r][c] = label
            else:
                vert[r][c] = label
        w = Fraction(1)
        for i in range(1, n + 1):
            w *= cap_weight(model, hor[2 * i][0], hor[2 * i - 1][0])
        for r in range(1, n2 + 1):
            if w == 0:
                break
            fam = Family.GAMMA if r % 2 == 0 else Family.DELTA
            zi = z[(r + 1) // 2 - 1]
            for c in range(1, L + 1):
                edges = (hor[r][c], vert[r][c - 1], hor[r][c - 1], vert[r - 1][c - 1])
                w *= vertex_weight(model, fam, edges, (zi,), q)
                if w == 0:
                    break
        total += w
    return total


def check_partition_value(value, expected, regime: bool) -> list:
    errors = []
    if expected is not None and value != expected:
        errors.append(f"Z = {value}, brute-force sum gives {expected}")
    if regime and not 0 <= value <= 1:
        errors.append(f"Z = {value} outside [0, 1] at a stochastic-regime point")
    return errors


# ---------------------------------------------------------------------------
# Wiring diagrams by brute force
# ---------------------------------------------------------------------------

def brute_diagram_value(diagram, boundary, q, letters) -> Fraction:
    """Sum over labelings of the diagram's internal edges by ``letters``."""
    fixed = {end: label for end, label in zip(diagram.boundary, boundary)}
    total = Fraction(0)
    for labels in itertools.product(letters, repeat=len(diagram.edges)):
        at = dict(fixed)
        for (a, b), label in zip(diagram.edges, labels):
            at[a] = at[b] = label
        w = Fraction(1)
        for i, node in enumerate(diagram.nodes):
            nslots = 2 if node.family in (Family.CAP, Family.NEW_CAP) else 4
            edges = tuple(at[(i, s)] for s in range(nslots))
            w *= vertex_weight(diagram.model, node.family, edges, node.params, q)
            if w == 0:
                break
        total += w
    return total


def caduceus_scalar(zi, zj, q) -> Fraction:
    num = (q * zi * zj - 1) * (1 - (q + 1) * (zi + zj) + (q * q + q + 1) * zi * zj)
    return num / (q * (zi + zj - (q + 1) * zi * zj) ** 2)


def fish_scalar(model: Model, z, q) -> Fraction:
    if model is Model.UNCOLORED_ABSORBING:
        return Fraction(1)
    zp = q + 1 - 1 / z
    return -(1 - (q + 1) * z + q * z / zp) / (1 - (q + 1) / zp + q * z / zp)


def check_relation_report(report, name: str, expected_combos: int) -> list:
    errors = []
    if report.relation != name:
        errors.append(f"report names {report.relation!r}, expected {name!r}")
    if report.combos_tested != expected_combos:
        errors.append(f"{name}: {report.combos_tested} combos, expected {expected_combos}")
    if not report.passed:
        errors.append(f"{name}: {len(report.failures)} failing boundaries")
    return errors


def check_identity_at(lhs, rhs, scale, q, boundaries, letters, name) -> list:
    """Both sides by brute force at the given boundaries: lhs = scale * rhs."""
    errors = []
    for b in boundaries:
        left = brute_diagram_value(lhs, b, q, letters)
        right = brute_diagram_value(rhs, b, q, letters)
        if left != scale * right:
            errors.append(f"{name}: boundary {b}: {left} != {scale} * {right}")
    return errors


# ---------------------------------------------------------------------------
# Exact laws and sampled histograms
# ---------------------------------------------------------------------------

def check_exact_law(exact: dict) -> list:
    errors = [f"negative probability {p} for {k}" for k, p in exact.items() if p < 0]
    total = sum(exact.values(), Fraction(0))
    if total != 1:
        errors.append(f"exact law sums to {total}, not 1")
    return errors


def check_histogram(histogram: dict, exact: dict) -> list:
    """Pooled 5-sigma per-outcome test and chi-square at the 0.999 quantile.

    Outcomes whose expected count is below POOL_MIN_EXPECTED are merged
    into one cell; a sampled outcome of probability 0 is an error.
    """
    N = sum(histogram.values())
    errors = [f"sampled outcome {k} has probability 0"
              for k, c in histogram.items() if c and not exact.get(k)]
    if N == 0:
        return errors + ["empty histogram"]
    cells, pooled_p, pooled_c = [], Fraction(0), 0
    for key, p in exact.items():
        count = histogram.get(key, 0)
        if float(p) * N < POOL_MIN_EXPECTED:
            pooled_p += p
            pooled_c += count
        else:
            cells.append((key, count, float(p)))
    if pooled_p > 0:
        cells.append(("pooled", pooled_c, float(pooled_p)))
    stat = 0.0
    for key, count, p in cells:
        se = math.sqrt(p * (1 - p) / N)
        if se > 0 and abs(count / N - p) / se >= Z_LIMIT:
            errors.append(f"outcome {key}: {count}/{N} against p = {p:.6g} is beyond {Z_LIMIT} sigma")
        stat += (count - N * p) ** 2 / (N * p)
    limit = chi2.ppf(CHI2_LEVEL, max(len(cells) - 1, 1))
    if stat >= limit:
        errors.append(f"chi-square {stat:.6g} >= {limit:.6g} ({len(cells) - 1} dof)")
    return errors


# ---------------------------------------------------------------------------
# Trajectory files
# ---------------------------------------------------------------------------

def outcome_text(final, colored: bool) -> str:
    """The CLI's outcome label for bottom positions [(column, label), ...]."""
    np_ = len(final)
    parts = [col - (np_ + 1 - i) for i, (col, _) in enumerate(final, start=1)]
    text = "lambda=(" + ",".join(str(p) for p in parts) + ")"
    if colored:
        text += ";tau=(" + ",".join(str(label) for _, label in final) + ")"
    return text


def check_trajectories(lines, payload: dict, n: int, colored: bool, conserving: bool) -> list:
    """One record per sample, indices 0..N-1, final positions matching the
    outcome, and per-outcome counts equal to the printed histogram."""
    errors = []
    N = payload["num_samples"]
    records = [json.loads(line) for line in lines]
    if [r["index"] for r in records] != list(range(N)):
        errors.append(f"record indices are not 0..{N - 1}")
    tally, escapes = {}, 0
    for rec in records:
        traj = rec["trajectory"]
        if len(traj) != 2 * n + 1 or traj[0]:
            errors.append(f"record {rec['index']}: {len(traj)} steps or occupied top boundary")
            continue
        final = traj[-1]
        if rec["escaped"]:
            escapes += 1
            if rec["outcome"] != ESCAPE:
                errors.append(f"record {rec['index']}: escaped but outcome {rec['outcome']!r}")
            elif conserving and len(final) >= n:
                errors.append(f"record {rec['index']}: escaped with {len(final)} particles at the bottom")
        elif rec["outcome"] != outcome_text(final, colored):
            errors.append(f"record {rec['index']}: outcome {rec['outcome']!r} but final "
                          f"positions give {outcome_text(final, colored)!r}")
        tally[rec["outcome"]] = tally.get(rec["outcome"], 0) + 1
    if tally != payload["histogram"]:
        errors.append(f"file counts {tally} differ from printed histogram {payload['histogram']}")
    if escapes != payload["escape_count"]:
        errors.append(f"{escapes} escaped records, printed escape_count {payload['escape_count']}")
    return errors[:10]
