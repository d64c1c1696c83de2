"""Lattice-path picture of standard tableaux.

A tableau embeds as a walk on an exponent lattice: one vertex per box
plus a start, each step one unit right (SE, positive entry) or left
(SW, negative entry), under a row holding the configuration's markers
at positions congruent to the marker anchor mod 2.  The start vertex
and the residue a step reads are tableaux.walk_start and step_residue.

Here live the tile diagram between a path and its shape's distinguished
path, the degree read off the tiles, the reduced word peeled off them in
a canonical order, the same degree pushed through the residue sequence
by that word, and the ladder rule.  A tile has no type of its own: it is
the plain tuple (xc, yc, side), its top vertex at x = xc on row
yc - 1 and the side ("L" or "R") of the distinguished path it lies on;
tile_degree reads only its x and whether it touches the marker row.

walk_tables builds what the walks of each shape read (ShapeTables)
once per (configuration, n), with residues interned as small ids.
Every exact command reads them: decomp's Delta, graded dimensions and
ladder bounds; here the ladder rule (walkers, split_walkers,
ladder_rows), a subset construction over the walk states, and the walk
kernel of degree and word (degree_rows, word_rows), one pass per group
of shapes sharing k.  Both read negated-value sets, build no Tableau and
print through one tableaux.tableau_texts.
t_lambda's negated values, read off tableaux.t_lambda (_lambda_negs),
depend on k alone, and so do the tiles of a tableau on each diagonal,
which form one interval of rows given the diagonal's entry value: the
per-k tables (_diagonals) hold each such run's letters and word text.
From them a pass builds the marker-free half of every row once
(_halves: entries text, letters in tile order, word text) and, per
shape, threads t_lambda's residue ids through the letters (degree_klr)
and sums degree_tiles as differences of tail sums along the diagonals
the walk runs on (_tail_sums), O(1) per negated value.  degree_tiles,
tau_order, reduced_word and degree_klr are the kernel on one tableau.
The two degrees stay independent: degree_tiles scores rows, degree_klr
swaps residue ids.  No path is embedded: max_shape reads a walk's two
ends.  cstd and residue_class_tableaux stay on Residue objects; the
embedded paths, the similarity moves, the per-tableau runs of the tile
order and their threading, and its per-tile bucket form are test
oracles (tests/oracles.py).
"""

from __future__ import annotations

from itertools import chain
from operator import getitem
from typing import NamedTuple, Optional

from .params import ALPHA_LABELS
from .tableaux import (
    Shape,
    is_valid_shape,
    max_negatives,
    negated_sets,
    residue_seq,
    shape_str,
    shapes,
    step_residue,
    t_lambda,
    tableau_texts,
    walk_start,
)

__all__ = [
    "residue_class_tableaux",
    "ShapeTables",
    "walk_tables",
    "tile_degree",
    "degree_tiles",
    "row_degrees",
    "degree_rows",
    "word_rows",
    "tau_order",
    "reduced_word",
    "degree_klr",
    "max_shape",
    "walkers",
    "split_walkers",
    "ladder_rows",
    "is_ladder",
]

def residue_class_tableaux(cfg, n, t):
    """Tableaux of every shape sharing t's residue sequence.  It stays
    for the span perfbench/tracer.py names until ROADMAP item 4 drops it."""
    from .tableaux import cstd

    target = residue_seq(cfg, n, t)
    out = []
    for shape in shapes(n):
        out.extend(cstd(cfg, n, shape, target))
    return out


# -- tiles and degrees ---------------------------------------------------

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
    box contents c, read off seq as each res_i is a content or its
    inverse.  Ids are interned once per (configuration, n), so
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
        )
    res = list(ids)
    inverse = tuple(ids[cfg.res_invert(r)] for r in res)
    # s_0 scores -2 on a wall (a self-inverse residue), +1 on an alpha
    s0 = tuple(-2 if inverse[i] == i
               else 1 if cfg.marker_label_at(*r) in ALPHA_LABELS else 0
               for i, r in enumerate(res))
    near = frozenset((i, ids[s]) for i, r in enumerate(res)
                     for s in (cfg.res_shift(r, 1), cfg.res_shift(r, -1))
                     if s in ids)
    # pairs: each res_i of seq is a box content or its inverse
    return {shape: ShapeTables(*head, seq,
                               tuple(sorted(min(i, inverse[i]) for i in seq)),
                               inverse, s0, near)
            for shape, (*head, seq) in parts.items()}


def _positions(x0, n, negs):
    """Vertex positions of the walk with SW steps at negs, from the
    shape's walk start x0 at no negatives; no path is embedded."""
    x = x0 + 2 * len(negs)
    xs = [x]
    for j in range(1, n + 1):
        x += -1 if j in negs else 1
        xs.append(x)
    return xs


def tile_degree(cfg, orbit, x, marker_row):
    """Degree contribution of one tile, read off its top vertex at x.

    Tiles touching the marker row (row 1) score by the marker they
    touch; lower tiles score -2 on a wall and +1 next to one.
    """
    label = cfg.marker_label_at(orbit, x) if marker_row else None
    if label is not None:
        return int(label in ALPHA_LABELS)  # a theta-type marker scores 0
    if cfg.on_hyperplane(orbit, x):
        return -2
    if marker_row:
        return 0
    return int(cfg.on_hyperplane(orbit, x - 1) + cfg.on_hyperplane(orbit, x + 1) == 1)


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
            acc[x] = acc[x - 2] + tile_degree(cfg, orbit, x, yc == 1)
        sums.append(acc)
    first, below = sums

    def degree(yc, a, b):
        acc = first if yc == 1 else below
        return acc[max(a, b) - 1] - acc[min(a, b) - 1]

    return degree


# -- the walk kernel: degrees and reduced words ----------------------------

def _lambda_negs(n, shape):
    """t_lambda's negated values, descending."""
    return sorted(t_lambda(n, shape).negated_set(), reverse=True)


def _diagonals(n, lam, top):
    """The per-k tables: (left, right), where left[m][a] and right[m][a]
    are the tiles on the diagonal xc - yc = x0 + 2m of a tableau whose
    m-th largest negated value is a (0 past the end), for m < top (the
    most negated values of a shape) and a in 0..n.

    After j steps a walk is at x0 + j + 2r, r its SW steps to come, so
    row j + 1 has left tiles on the diagonals r <= m < r_lambda, right
    ones on r_lambda <= m < r.  With b entry m of lam (t_lambda's
    negated values, descending, 0 past the end), r <= m just when
    j >= a and r_lambda <= m just when j >= b: left tiles at rows
    a + 1..b, right ones at b + 1..a.  An entry is (letters, text): the
    letters yc - 1 of its tiles in tau_order (rows descending on the
    left, ascending on the right) and, as word_rows prints them,
    reversed.  lam depends on k alone, so the tables serve every marker
    of k.
    """
    def entry(letters):
        return letters, " ".join(map(str, reversed(letters)))

    empty = ((), "")
    left, right = [], []
    for m in range(top):
        b = lam[m] if m < len(lam) else 0
        left.append([entry(tuple(range(b - 1, a - 1, -1))) if a < b
                     else empty for a in range(n + 1)])
        right.append([entry(tuple(range(b, a))) if a > b else empty
                      for a in range(n + 1)])
    return left, right


def _entry_values(negs, lam):
    """The entry values a of a tableau's diagonals 0, 1, ...: its
    negated values negs (ascending) read descending, 0 past the end,
    over at least the diagonals of t_lambda's lam."""
    return tuple(negs[::-1]) + (0,) * (len(lam) - len(negs))


def _halves(n, group, tabs, sets):
    """The marker-free half of each row of the shapes in group, which
    share k: (entries, negs, letters, text) for each negated-value set
    negs (ascending) in sets, read off the per-k tables (_diagonals).
    letters are the letters of the tiles in tau_order, text the word as
    word_rows prints it and entries the tableau's entries as
    tableau_texts prints them."""
    if len({shape.k for shape in group}) != 1:
        raise ValueError("the shapes of one kernel pass share k")
    lam = _lambda_negs(n, group[0])
    left, right = _diagonals(n, lam, len(tabs[0].sw) - 1)
    entries = tableau_texts(n)
    out = []
    for negs in sets:
        values = _entry_values(negs, lam)
        runs = list(map(getitem, left, values))
        runs.reverse()
        runs += map(getitem, right, values)
        out.append((entries(negs), negs,
                    tuple(chain.from_iterable([r[0] for r in runs])),
                    " ".join([r[1] for r in reversed(runs) if r[1]])))
    return out


def _tail_sums(n, tab):
    """tail[r][j]: the sum of the row degrees of rows j + 1, j + 2, ...
    along the SE diagonal of the walks with r SW steps to come, which
    sit at x0 + j + 2r after j steps, up to that diagonal's last row
    (n - r + 1, n at r = 0); 0 past it.  A walk with negated values
    v_1 < ... < v_c runs along diagonal c - t at the rows v_t + 1 ..
    v_(t+1) (v_0 = 0, v_(c+1) = n), so its degree_tiles is c + 1
    differences of tail sums."""
    x0, xs, row = tab.x0, tab.xs_l, tab.row
    tail = []
    for r in range(len(tab.sw)):
        acc = [0] * (n + 1)
        for j in range(min(n - 1, n - r), -1, -1):
            acc[j] = acc[j + 1] + row(j + 1, x0 + j + 2 * r, xs[j])
        tail.append(acc)
    return tail


def degree_rows(cfg, n, group, sets):
    """(text, degree_tiles, degree_klr) of the tableaux of the shapes in
    group, which share k, with negated values (ascending tuples) in
    sets, shape by shape, building no Tableau.  The marker-free halves
    of the rows (_halves) are built once for the group; per shape,
    degree_tiles sums tail sums (_tail_sums) and degree_klr threads
    t_lambda's residue ids through the shared letters.  The two degrees
    read disjoint data: row degrees, and residue ids."""
    tabs = [walk_tables(cfg, n)[shape] for shape in group]
    halves = _halves(n, group, tabs, sets)
    for shape, tab in zip(group, tabs):
        head, tail = shape_str(shape) + ":", _tail_sums(n, tab)
        seq0, inverse, s0, near = tab.seq, tab.inverse, tab.s0, tab.near
        for entries, negs, letters, _ in halves:
            tiles, j, r = 0, 0, len(negs)
            for v in negs:
                sums = tail[r]
                tiles += sums[j] - sums[v]
                j, r = v, r - 1
            tiles += tail[0][j]
            seq, klr = list(seq0), 0
            for c in letters:       # the letter s_c
                if c:
                    a, b = seq[c - 1], seq[c]
                    if a == b:
                        klr -= 2
                    elif (a, b) in near:
                        klr += 1
                    seq[c - 1], seq[c] = b, a
                else:
                    a = seq[0]
                    klr += s0[a]
                    seq[0] = inverse[a]
            yield head + entries, tiles, klr


def word_rows(cfg, n, group, sets):
    """(text, word, word text) of the tableaux of the shapes in group,
    which share k, with negated values (ascending tuples) in sets, shape
    by shape, building no Tableau: the word, the letters of reversed
    tau_order, and its text are built once for the group (_halves)."""
    tabs = [walk_tables(cfg, n)[shape] for shape in group]
    halves = [(entries, letters[::-1], text)
              for entries, _, letters, text in _halves(n, group, tabs, sets)]
    for shape in group:
        head = shape_str(shape) + ":"
        for entries, word, text in halves:
            yield head + entries, word, text


def _one(t):
    """The kernel's arguments for the one tableau t."""
    return [t.shape], [tuple(sorted(t.negated_set()))]


def degree_tiles(cfg, n, t):
    """Sum of tile_degree over the tiles of t, as differences of tail
    sums (degree_rows); the oracle sums tile by tile over embedded
    paths (``degree_tiles_tilewise`` in tests/oracles.py).  It stays for
    the span perfbench/tracer.py names until ROADMAP item 4 drops it."""
    return next(degree_rows(cfg, n, *_one(t)))[1]


def tau_order(cfg, n, t):
    """Canonical removal order: greedy topological, a left tile before
    its diagonal neighbours one column left (a right tile: right), least
    (yc, -xc) first on the left, then least (-yc, xc) on the right
    (``tau_order_scan`` in tests/oracles.py).  In u = xc + yc, w = xc -
    yc the precedence is the product order on a skew shape (_diagonals),
    so the available tiles form an antichain with yc strictly monotone:
    the first key decides, and left tiles come by xc - yc, then yc, both
    descending, right tiles by yc - xc descending, then yc ascending.
    It stays for the span perfbench/tracer.py names until ROADMAP item 4
    drops it.
    """
    tab = walk_tables(cfg, n)[t.shape]
    lam = _lambda_negs(n, t.shape)
    left, right = _diagonals(n, lam, len(tab.sw) - 1)
    values = _entry_values(_one(t)[1][0], lam)
    ms = range(len(values))
    return [(c + 1 + tab.x0 + 2 * m, c + 1, side)
            for side, table, order in (("L", left, reversed(ms)),
                                       ("R", right, ms))
            for m in order for c in table[m][values[m]][0]]


def reduced_word(cfg, n, t):
    """Letters of a reduced expression for the group element moving the
    distinguished tableau to t, printed last-applied-first: the tile
    contents yc - 1 in reversed tau_order (word_rows)."""
    return list(next(word_rows(cfg, n, *_one(t)))[1])


def degree_klr(cfg, n, t):
    """Degree recomputed by threading the reduced word through the
    residue ids of the distinguished tableau (degree_rows): s_0 scores
    by the residue it inverts, s_j by the pair it swaps (-2 if equal, +1
    if q^(+-2) apart); the oracle threads Residue objects
    (``degree_klr_residues`` in tests/oracles.py).  It stays for the
    span perfbench/tracer.py names until ROADMAP item 4 drops it."""
    return next(degree_rows(cfg, n, *_one(t)))[2]


# -- widest realization --------------------------------------------------

def max_shape(cfg, n, orbit, x0, xn) -> Optional[Shape]:
    """Shape of the widest tableau a walk on the orbit from x0 to xn (or
    its mirror) presents; it reads only the two ends.

    A walk with x0 > xn is mirrored through inversion first: it then runs
    between the sites invert_site gives for its ends.  Walking
    right from the start, the first alpha-type marker decides; if the
    shape it implies is not admissible the answer can only be the zero
    shape, checked at the far endpoint.
    """
    if x0 > xn:
        (orbit, x0), (_, xn) = cfg.invert_site(orbit, x0), cfg.invert_site(orbit, xn)
    m = 0
    while xn - x0 - 2 * m >= 1:
        label = cfg.marker_label_at(orbit, x0 + 1 + 2 * m)
        if label in ALPHA_LABELS:
            shape = Shape(xn - x0 - 2 * m, label)
            if is_valid_shape(n, shape):
                return shape
            break
        m += 1
    if n % 2:
        theta = cfg.marker_label_at(orbit, xn) in ("theta", "theta_inv")
    else:
        theta = (cfg.marker_label_at(orbit, xn + 1) == "theta"
                 or cfg.marker_label_at(orbit, xn - 1) == "theta_inv")
    return Shape(0, "theta") if theta else None


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
    """The ladder test on ascending negated values: the tableau's residue ids
    lead from all walkers to the support of its class (moves memoized); it is
    a ladder when its c is the least there and widest[shape][c] agrees."""
    order, tables, start, widest = walkers(cfg, n)
    index = {shape: i for i, shape in enumerate(order)}
    root, moves = frozenset(start), {}  # (j, support) -> {id: next support}

    def ladder(shape, negs):
        i = index[shape]
        se, sw = tables[i].se, tables[i].sw
        c = r = len(negs)
        support = root
        for j in range(n):
            rid, r = (sw[r], r - 1) if r and negs[c - r] == j + 1 else (se[j + r], r)
            key = j, support
            if key not in moves:
                moves[key] = {k: frozenset(sub) for k, sub in split_walkers(
                    tables, j, dict.fromkeys(support, 1)).items()}
            support = moves[key][rid]
        return c == min(w[1] for w in support) and widest[i][c] == shape

    return ladder


def ladder_rows(cfg, n, shapes):
    """The rows "(k,marker):[entries]" of the ladder tableaux of the
    shapes, in negated_sets order, building no Tableau (_ladder_rule;
    ``is_ladder_class`` in tests/oracles.py over cstd)."""
    ladder, entries = _ladder_rule(cfg, n), tableau_texts(n)
    return [head + entries(negs) for shape in shapes
            for head in [shape_str(shape) + ":"]
            for negs in negated_sets(n, shape) if ladder(shape, negs)]


def is_ladder(cfg, n, t):
    """Whether t is a ladder tableau (_ladder_rule).  It stays for the
    span perfbench/tracer.py names until ROADMAP item 4 drops it."""
    return _ladder_rule(cfg, n)(t.shape, sorted(t.negated_set()))
