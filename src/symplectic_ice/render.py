"""ASCII and SVG drawings of admissible lattice states.

Both formats draw the lattice with column L on the left and column 1
against the caps, rows 2n..1 from top to bottom, and trace each particle
strand as a connected polyline through vertices and caps.

ASCII glyph set (stable, relied on by tests):

    '.'  empty vertical edge          '-'  empty horizontal edge
    '*'  occupied edge, uncolored     'A'..'Z' colors c_1..c_n
    'a'..'z' colors c_{-1}..c_{-n}    '+'  vertex
    '\\', '|', '/'  the cap joining a Gamma row to the Delta row below
    'G' / 'D'  row kind markers in the left margin

The last line reports ``strands: k``; the SVG render contains exactly one
``<path class="strand">`` element per strand, in the same deterministic
order (top-to-bottom entry point, caps after left stubs).
"""

from __future__ import annotations

from .lattice import Configuration, row_family
from .weights import Family, Model, UsageError

CELL = 40
MARGIN = 40


def _edge_glyph(model: Model, label: int, vertical: bool) -> str:
    if label == 0:
        return "." if vertical else "-"
    if not model.colored:
        return "*"
    if label > 0:
        return chr(ord("A") + label - 1)
    return chr(ord("a") - label - 1)


# ---------------------------------------------------------------------------
# Strand tracing
# ---------------------------------------------------------------------------

def trace_strands(config: Configuration):
    """Connected particle paths, each a list of (kind, payload) steps.

    Steps are ('enter-left', r), ('vertex', r, c), ('cap', i),
    ('exit-bottom', c), ('absorbed', i), ('emitted', i),
    ('exit-left', r).  Strands are ordered by their source: left stubs
    from the top row down, then emitting caps from the top down.
    """
    n2, L = 2 * config.n, config.L
    model = config.model
    hor, vert = config.hor, config.vert

    def run(start_state, first_steps):
        steps = list(first_steps)
        state = start_state
        while True:
            kind = state[0]
            if kind == "H":
                _, r, c, direction = state
                if direction == "R":
                    if c == 0:
                        i = (r + 1) // 2
                        if model.colored or model is Model.UNCOLORED_REFLECTING:
                            steps.append(("cap", i))
                            state = ("H", r - 1, 0, "L")
                            continue
                        steps.append(("absorbed", i))
                        return steps
                    target = (r, c)        # enters vertex (r, c) from the left
                    entered = "left"
                else:
                    if c == L:
                        steps.append(("exit-left", r))
                        return steps
                    target = (r, c + 1)    # enters vertex (r, c+1) from the right
                    entered = "right"
            else:
                _, r, c = state
                if r == 0:
                    steps.append(("exit-bottom", c))
                    return steps
                target = (r, c)
                entered = "top"
            tr, tc = target
            left, top, right, bottom = config.vertex_edges(tr, tc)
            color = {"left": left, "top": top, "right": right}[entered]
            steps.append(("vertex", tr, tc))
            # exit through the output edge carrying the strand's color;
            # when both outputs carry it (all-equal pattern) pass straight
            if row_family(tr) is Family.GAMMA:   # outputs (right, bottom)
                outs = (("right", right), ("bottom", bottom))
                straight = "right" if entered == "left" else "bottom"
            else:                                # Delta: outputs (left, bottom)
                outs = (("left", left), ("bottom", bottom))
                straight = "left" if entered == "right" else "bottom"
            matches = [name for name, lab in outs if lab == color]
            out = matches[0] if len(matches) == 1 else straight
            if out == "right":
                state = ("H", tr, tc - 1, "R")
            elif out == "left":
                state = ("H", tr, tc, "L")
            else:
                state = ("V", tr - 1, tc)

    strands = []
    for r in range(n2, 0, -1):
        if row_family(r) is Family.GAMMA and hor[r][L] != 0:
            strands.append(run(("H", r, L, "R"), [("enter-left", r)]))
    if model is Model.UNCOLORED_ABSORBING:
        for i in range(config.n, 0, -1):
            if hor[2 * i][0] == 0 and hor[2 * i - 1][0] != 0:
                strands.append(run(("H", 2 * i - 1, 0, "L"), [("emitted", i)]))
    return strands


# ---------------------------------------------------------------------------
# ASCII
# ---------------------------------------------------------------------------

def render_ascii(config: Configuration) -> str:
    n2, L = 2 * config.n, config.L
    model = config.model
    lines = []
    margin = "      "

    def vert_line(r):
        # vertical edges vert[r][.] aligned under the vertices
        chars = list(margin + " " * (4 + 6 * L))
        for k in range(L):
            c = L - k
            chars[len(margin) + 3 + 6 * k] = _edge_glyph(model, config.vert[r][c - 1], True)
        if 0 < r < n2 and row_family(r) is Family.DELTA:
            chars[len(margin) + 3 + 6 * L] = "|"
        return "".join(chars).rstrip()

    lines.append(vert_line(n2))
    for r in range(n2, 0, -1):
        row = []
        i = (r + 1) // 2
        gamma = row_family(r) is Family.GAMMA
        kind = "G" if gamma else "D"
        row.append(f"{r:>3} {kind} ")
        row.append(_edge_glyph(model, config.hor[r][L], False) + "--")
        for k in range(L):
            c = L - k
            row.append("+--" + _edge_glyph(model, config.hor[r][c - 1], False) + "--")
        row.append("\\" if gamma else "/")
        lines.append("".join(row))
        lines.append(vert_line(r - 1))
    lines.append(f"strands: {len(trace_strands(config))}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------

_PALETTE = ["#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#e377c2", "#17becf"]


def _xy(config, r, c):
    x = MARGIN + (config.L - c) * CELL
    y = MARGIN + (2 * config.n - r) * CELL
    return x, y


def render_svg(config: Configuration) -> str:
    n2, L = 2 * config.n, config.L
    width = MARGIN * 2 + L * CELL + CELL
    height = MARGIN * 2 + (n2 - 1) * CELL + CELL
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
           f'viewBox="0 0 {width} {height}">']
    out.append('<rect width="100%" height="100%" fill="white"/>')
    grid = 'stroke="#bbbbbb" stroke-width="1"'
    for r in range(n2, 0, -1):
        x0, y = _xy(config, r, L)
        x1, _ = _xy(config, r, 1)
        out.append(f'<line x1="{x0 - CELL // 2}" y1="{y}" x2="{x1 + CELL // 2}" y2="{y}" {grid}/>')
    for c in range(L, 0, -1):
        x, y0 = _xy(config, n2, c)
        _, y1 = _xy(config, 1, c)
        out.append(f'<line x1="{x}" y1="{y0 - CELL // 2}" x2="{x}" y2="{y1 + CELL // 2}" {grid}/>')
    for i in range(config.n, 0, -1):
        xg, yg = _xy(config, 2 * i, 1)
        _, yd = _xy(config, 2 * i - 1, 1)
        xr = xg + CELL // 2
        out.append(f'<polyline points="{xr},{yg} {xr + CELL // 2},{(yg + yd) / 2:.1f} {xr},{yd}" '
                   f'fill="none" {grid}/>')

    for k, strand in enumerate(trace_strands(config)):
        pts = []
        color = "#d62728"
        for step in strand:
            if step[0] == "enter-left":
                x, y = _xy(config, step[1], L)
                pts.append((x - CELL // 2, y))
                label = config.hor[step[1]][L]
                color = _PALETTE[(abs(label) - 1) % len(_PALETTE)] if config.model.colored else _PALETTE[0]
            elif step[0] == "vertex":
                pts.append(_xy(config, step[1], step[2]))
            elif step[0] == "cap":
                xg, yg = _xy(config, 2 * step[1], 1)
                _, yd = _xy(config, 2 * step[1] - 1, 1)
                pts.append((xg + CELL, (yg + yd) / 2))
            elif step[0] in ("absorbed", "emitted"):
                xg, yg = _xy(config, 2 * step[1], 1)
                _, yd = _xy(config, 2 * step[1] - 1, 1)
                pts.append((xg + CELL, (yg + yd) / 2))
            elif step[0] == "exit-bottom":
                x, y = _xy(config, 1, step[1])
                pts.append((x, y + CELL // 2))
            elif step[0] == "exit-left":
                x, y = _xy(config, step[1], L)
                pts.append((x - CELL // 2, y))
        d = "M " + " L ".join(f"{x:.1f} {y:.1f}" for x, y in pts)
        out.append(f'<path class="strand" id="strand-{k}" d="{d}" fill="none" '
                   f'stroke="{color}" stroke-width="3"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_state(config: Configuration, format: str = "ascii") -> str:
    """Deterministic drawing of one state; format is 'ascii' or 'svg'."""
    if format == "ascii":
        return render_ascii(config)
    if format == "svg":
        return render_svg(config)
    raise UsageError(f"unknown render format: {format!r}")
