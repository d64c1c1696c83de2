"""Lattice-path picture of standard tableaux.

A tableau embeds as a walk on an exponent lattice: one vertex per box
plus a start, each step one unit right (SE, positive entry) or left
(SW, negative entry), under a row holding the configuration's markers
at positions congruent to the marker anchor mod 2.  The start vertex
and the residue a step reads are tableaux.walk_start and step_residue.

Here live the tile diagram between a path and its shape's distinguished
path, the degree read off the tiles, the reduced word peeled off them in
a canonical order, the same degree pushed through the residue sequence
by that word, and the ladder rule.

walk_tables builds what the walks of each shape read (ShapeTables)
once per (configuration, n), with residues interned as small ids.
Every exact command reads them: decomp's Delta, graded dimensions and
ladder bounds; here degree_tiles (n row lookups per tableau), the tile
order (_tile_order) of tau_order, reduced_word and degree_klr, and the
ladder rule (walkers, split_walkers, ladder_tableaux), a subset
construction over the walk states.  The two degrees stay independent:
degree_tiles scores rows, degree_klr swaps residue ids.  No path is
embedded: a walk is its vertex positions, and max_shape reads only its
two ends.  cstd and residue_class_tableaux stay on Residue objects; the
embedded paths and the similarity moves are test oracles
(tests/oracles.py).
"""

from __future__ import annotations

from collections import defaultdict
from typing import NamedTuple, Optional

from .params import ALPHA_LABELS
from .tableaux import (
    Shape,
    box_contents,
    enumerate_std,
    is_valid_shape,
    max_negatives,
    residue_seq,
    shapes,
    step_residue,
    t_lambda,
    walk_start,
)

__all__ = [
    "residue_class_tableaux",
    "Tile",
    "ShapeTables",
    "walk_tables",
    "tile_degree",
    "degree_tiles",
    "row_degrees",
    "tau_order",
    "reduced_word",
    "degree_klr",
    "max_shape",
    "walkers",
    "split_walkers",
    "ladder_tableaux",
    "is_ladder",
]

def residue_class_tableaux(cfg, n, t):
    """Tableaux of every shape sharing t's residue sequence.  It stays
    for the span perfbench/tracer.py names until ROADMAP item 3 drops it."""
    from .tableaux import cstd

    target = residue_seq(cfg, n, t)
    out = []
    for shape in shapes(n):
        out.extend(cstd(cfg, n, shape, target))
    return out


# -- tiles and degrees ---------------------------------------------------

class Tile(NamedTuple):
    xc: int
    yc: int
    side: str  # "L" or "R" of the distinguished path

    @property
    def top_x(self):
        return self.xc

    @property
    def top_y(self):
        return self.yc - 1

    @property
    def content(self):
        return self.yc - 1


class ShapeTables(NamedTuple):
    """What the walks of the tableaux of one (n, shape) read, built by
    walk_tables for every shape of n at once.

    A tableau with c negative entries walks on `orbit` from x0 + 2c,
    where x0 is tableaux.walk_start at c = 0, and xs_l are the vertex
    positions of t_lambda's walk.  After j steps with r SW steps still
    to come a walk sits at x = x0 + j + 2r, so the state (j, r) fixes x;
    step j + 1 then reads the residue id se[j + r] going SE and sw[r]
    going SW (tableaux.step_residue).  row is row_degrees of the orbit
    over a span holding every vertex the walks of its shapes reach,
    shared by those shapes.  seq is t_lambda's residue sequence as ids
    and pairs the block invariant: the sorted ids min(c, c^-1) over the
    box contents c.  Ids are interned once per (configuration, n), so
    the ids of different shapes compare directly.  The tables shared by
    all shapes map an id to the id of its inverse (inverse) and to the
    degree of s_0 acting on it (s0); near holds the id pairs (a, b) with
    b = a q^(+-2).
    """
    orbit: str
    x0: int
    xs_l: tuple
    row: object
    se: tuple
    sw: tuple
    seq: tuple
    pairs: tuple
    inverse: tuple
    s0: tuple
    near: frozenset


def walk_tables(cfg, n):
    """{shape: ShapeTables} over the shapes of n, memoized on the
    configuration."""
    memo = cfg._walk_tables
    tabs = memo.get(n)
    if tabs is None:
        tabs = memo[n] = _build_walk_tables(cfg, n)
    return tabs


def _build_walk_tables(cfg, n):
    ids = {}       # Residue -> id, each interned together with its inverse

    def intern(r):
        i = ids.get(r)
        if i is None:
            i = ids[r] = len(ids)
            ids.setdefault(cfg.res_invert(r), len(ids))
        return i

    starts = {shape: walk_start(cfg, n, shape, 0) for shape in shapes(n)}
    spans = {}
    for orbit, x0 in starts.values():
        lo, hi = spans.get(orbit, (x0, x0))
        spans[orbit] = (min(lo, x0), max(hi, x0))
    rows = {orbit: row_degrees(cfg, orbit, lo - 1, hi + 2 * n)
            for orbit, (lo, hi) in spans.items()}
    parts = {}
    for shape, (orbit, x0) in starts.items():
        t0 = t_lambda(n, shape)
        parts[shape] = (
            orbit, x0, tuple(_positions(x0, n, t0.negated_set())), rows[orbit],
            tuple(intern(step_residue(cfg, orbit, x0 + 2 * s + 1, 0, True))
                  for s in range(n)),
            tuple(intern(step_residue(cfg, orbit, x0 + 2 * r - 1, 0, False))
                  for r in range(max_negatives(n, shape) + 1)),
            tuple(intern(r) for r in residue_seq(cfg, n, t0)),
            tuple(sorted(min(intern(c), intern(cfg.res_invert(c)))
                         for c in box_contents(cfg, n, shape)[1:])),
        )
    res = list(ids)
    inverse = tuple(ids[cfg.res_invert(r)] for r in res)
    alphas = {cfg.point_residue(lbl) for lbl in ALPHA_LABELS}
    s0 = tuple(-2 if inverse[i] == i else 1 if r in alphas else 0
               for i, r in enumerate(res))
    near = frozenset((i, ids[s]) for i, r in enumerate(res)
                     for s in (cfg.res_shift(r, 1), cfg.res_shift(r, -1))
                     if s in ids)
    return {shape: ShapeTables(*part, inverse, s0, near)
            for shape, part in parts.items()}


def _walk(cfg, n, t):
    """The shape's tables and the vertex positions of t's walk."""
    tab = walk_tables(cfg, n)[t.shape]
    return tab, _positions(tab.x0, n, t.negated_set())


def _positions(x0, n, negs):
    """Vertex positions of the walk with SW steps at negs, from the
    shape's walk start x0 at no negatives; no path is embedded."""
    x = x0 + 2 * len(negs)
    xs = [x]
    for j in range(1, n + 1):
        x += -1 if j in negs else 1
        xs.append(x)
    return xs


def tile_degree(cfg, orbit, tile):
    """Degree contribution of one tile, read off its top vertex.

    Tiles touching the marker row score by the marker they touch; lower
    tiles score -2 on a wall and +1 next to one.
    """
    x = tile.top_x
    if tile.top_y == 0:
        label = cfg.marker_label_at(orbit, x)
        if label in ALPHA_LABELS:
            return 1
        if label is not None:
            return 0  # a theta-type marker
        return -2 if cfg.on_hyperplane(orbit, x) else 0
    if cfg.on_hyperplane(orbit, x):
        return -2
    beside = int(cfg.on_hyperplane(orbit, x - 1)) + int(cfg.on_hyperplane(orbit, x + 1))
    return 1 if beside == 1 else 0


def degree_tiles(cfg, n, t):
    """Sum of tile_degree over the tiles of t, one row_degrees lookup
    per row of the shape's tables (walk_tables).  It reads no residue,
    and degree_klr reads no row degree.  The tile-by-tile sum over the
    embedded paths is kept in the tests as the oracle
    (``degree_tiles_tilewise`` in tests/oracles.py)."""
    tab, xs_t = _walk(cfg, n, t)
    row, xs_l = tab.row, tab.xs_l
    return sum(row(yc, xs_t[yc - 1], xs_l[yc - 1]) for yc in range(1, n + 1))


def row_degrees(cfg, orbit, lo, hi):
    """Degrees of single rows of the tile diagram on one orbit, as a
    function f(yc, a, b) costing O(1) per row: the degree of row yc for
    a walk whose vertex yc - 1 sits at x = a against a distinguished
    path at x = b, for a and b in lo..hi with a = b mod 2 (a walk and
    the distinguished path at the same vertex).

    degree_tiles is the sum of these over the rows; each row depends on
    the walk only through a, which is what lets a transfer DP over walk
    positions replace the per-tableau sum.  A tile scores by its x alone
    within row 1, where it touches the marker row, and within the rows
    below (tile_degree), so a row is a difference of prefix sums over
    the positions of one parity.  The tile-by-tile sum is kept in the
    tests as the oracle (``row_degree`` in tests/oracles.py).
    """
    sums = []
    for yc in (1, 2):
        acc = {lo - 2: 0, lo - 1: 0}   # acc[x]: tiles at x, x - 2, ... >= lo
        for x in range(lo, hi + 1):
            acc[x] = acc[x - 2] + tile_degree(cfg, orbit, Tile(x, yc, "L"))
        sums.append(acc)
    first, below = sums

    def degree(yc, a, b):
        acc = first if yc == 1 else below
        return acc[max(a, b) - 1] - acc[min(a, b) - 1]

    return degree


# -- tile order and reduced words ----------------------------------------

def _tile_order(xs_t, xs_l):
    """tau_order as runs (side, k, ycs): the tiles between the walks xs_t
    and xs_l on the diagonal xc - yc = k at rows ycs, bucketed by diagonal."""
    left, right = defaultdict(list), defaultdict(list)
    for yc in range(len(xs_t) - 1, 0, -1):
        a, b = xs_t[yc - 1], xs_l[yc - 1]
        if a < b:
            for k in range(a + 1 - yc, b - yc, 2):
                left[k].append(yc)
        else:
            for k in range(b + 1 - yc, a - yc, 2):
                right[k].append(yc)
    return ([("L", k, left[k]) for k in sorted(left, reverse=True)]
            + [("R", k, right[k][::-1]) for k in sorted(right)])


def tau_order(cfg, n, t):
    """Canonical removal order: greedy topological, a left tile before
    its diagonal neighbours one column left (a right tile: right), least
    (yc, -xc) first on the left, then least (-yc, xc) on the right
    (``tau_order_scan`` in tests/oracles.py).  _tile_order reads it off
    the diagonals: left tiles by xc - yc, then yc, both descending; right
    tiles by yc - xc descending, then yc ascending.  Why: in u = xc + yc,
    w = xc - yc the precedence is the product order; a_y +- y, b_y +- y
    are monotone in y for walks a, b of +-1 steps, so each row is
    contiguous along both diagonals and the region is a skew shape.  Its
    available tiles form an antichain with yc strictly monotone along
    it, so the first key decides (the xc tie-break never fires) and picks
    the extreme (w, u) cell on the left, (y - x, -(x + y)) on the right.
    It stays for the span perfbench/tracer.py names until ROADMAP item 3
    drops it; reduced_word and degree_klr read _tile_order directly.
    """
    tab, xs_t = _walk(cfg, n, t)
    return [Tile(yc + k, yc, side)
            for side, k, ycs in _tile_order(xs_t, tab.xs_l) for yc in ycs]


def reduced_word(cfg, n, t):
    """Letters of a reduced expression for the group element moving the
    distinguished tableau to t, printed last-applied-first: the tile
    contents yc - 1 in reversed tau_order, read off _tile_order."""
    tab, xs_t = _walk(cfg, n, t)
    word = [yc - 1 for _, _, ycs in _tile_order(xs_t, tab.xs_l) for yc in ycs]
    return word[::-1]


def degree_klr(cfg, n, t):
    """Degree recomputed by threading the reduced word (the contents
    yc - 1 of _tile_order) through the residue sequence of the
    distinguished tableau: s_0 scores by the residue it inverts, s_j by
    the pair it swaps (-2 if equal, +1 if q^(+-2) apart), as interned
    ids of the shape's tables (walk_tables).  No row degree is read, so
    this stays an independent check of degree_tiles.  The form on
    Residue objects is kept in the tests as the oracle
    (``degree_klr_residues`` in tests/oracles.py)."""
    tab, xs_t = _walk(cfg, n, t)
    seq = list(tab.seq)
    inverse, s0, near = tab.inverse, tab.s0, tab.near
    deg = 0
    for _, _, ycs in _tile_order(xs_t, tab.xs_l):
        for yc in ycs:          # the letter s_(yc - 1)
            if yc == 1:
                r = seq[0]
                deg += s0[r]
                seq[0] = inverse[r]
            else:
                a, b = seq[yc - 2], seq[yc - 1]
                if a == b:
                    deg -= 2
                elif (a, b) in near:
                    deg += 1
                seq[yc - 2], seq[yc - 1] = b, a
    return deg


# -- widest realization --------------------------------------------------

def max_shape(cfg, n, orbit, x0, xn) -> Optional[Shape]:
    """Shape of the widest tableau a walk on the orbit from x0 to xn (or
    its mirror) presents; it reads only the two ends.

    A walk with x0 > xn is mirrored through inversion first: it then runs
    on invert_orbit(orbit) between the raw inverses of its ends.  Walking
    right from the start, the first alpha-type marker decides; if the
    shape it implies is not admissible the answer can only be the zero
    shape, checked at the far endpoint.
    """
    if x0 > xn:
        return max_shape(cfg, n, cfg.invert_orbit(orbit),
                         cfg.raw_invert_position(orbit, x0),
                         cfg.raw_invert_position(orbit, xn))
    m = 0
    while xn - x0 - 2 * m >= 1:
        label = cfg.marker_label_at(orbit, x0 + 1 + 2 * m)
        if label in ALPHA_LABELS:
            shape = Shape(xn - x0 - 2 * m, label)
            if is_valid_shape(n, shape):
                return shape
            break
        m += 1
    if n % 2 == 0:
        if cfg.marker_label_at(orbit, xn + 1) == "theta":
            return Shape(0, "theta")
        if cfg.marker_label_at(orbit, xn - 1) == "theta_inv":
            return Shape(0, "theta")
    elif cfg.marker_label_at(orbit, xn) in ("theta", "theta_inv"):
        return Shape(0, "theta")
    return None


def walkers(cfg, n):
    """The shapes of n, their ShapeTables, the walkers {(i, c, c): 1}
    before the first step, and widest.  A walker (i, c, r) walks shape i
    with c SW steps, r still to come; widest[i][c] is the max_shape of
    those walks, which all run from x0 + 2c to x0 + n."""
    tabs = walk_tables(cfg, n)
    order = list(tabs)
    tables = [tabs[shape] for shape in order]
    widest = [[max_shape(cfg, n, tab.orbit, tab.x0 + 2 * c, tab.x0 + n)
               for c in range(len(tab.sw))] for tab in tables]
    start = {(i, c, c): 1 for i, row in enumerate(widest)
             for c in range(len(row))}
    return order, tables, start, widest


def split_walkers(tables, j, counts):
    """Step j + 1 of {walker: tableaux}, grouped by the residue id read,
    se[j + r] going SE and sw[r] going SW: {id: {successor: tableaux}}."""
    out = {}
    for (i, c, r), k in counts.items():
        se, sw = tables[i].se, tables[i].sw
        steps = [(sw[r], r - 1)] if r else []
        if j + r < len(se):
            steps.append((se[j + r], r))
        for rid, s in steps:
            group = out.setdefault(rid, {})
            group[i, c, s] = group.get((i, c, s), 0) + k
    return out


def _ladder_rule(cfg, n):
    """The ladder test: a tableau's residue ids lead from all walkers to
    the support of its class (moves memoized); it is a ladder when its c
    is the least there (the widest path) and widest[shape][c] agrees."""
    order, tables, start, widest = walkers(cfg, n)
    index = {shape: i for i, shape in enumerate(order)}
    root, moves = frozenset(start), {}  # (j, support) -> {id: next support}

    def ladder(t):
        i = index[t.shape]
        se, sw = tables[i].se, tables[i].sw
        negs = t.negated_set()
        c = r = len(negs)
        support = root
        for j in range(n):
            rid, r = (sw[r], r - 1) if j + 1 in negs else (se[j + r], r)
            key = j, support
            if key not in moves:
                moves[key] = {k: frozenset(sub) for k, sub in split_walkers(
                    tables, j, dict.fromkeys(support, 1)).items()}
            support = moves[key][rid]
        return c == min(w[1] for w in support) and widest[i][c] == t.shape

    return ladder


def ladder_tableaux(cfg, n, shapes):
    """The ladder tableaux of the shapes in enumerate_std order
    (_ladder_rule; ``is_ladder_class`` in tests/oracles.py over cstd)."""
    ladder = _ladder_rule(cfg, n)
    return [t for shape in shapes for t in enumerate_std(n, shape)
            if ladder(t)]


def is_ladder(cfg, n, t):
    """Whether t is a ladder tableau (_ladder_rule).  It stays for the
    span perfbench/tracer.py names until ROADMAP item 3 drops it."""
    return _ladder_rule(cfg, n)(t)
