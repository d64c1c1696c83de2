"""Slow reference implementations that the fast library code is
differentially tested against.

The cstd oracle filters the full enumeration by residue sequence.  The
marker oracle compares a position with all six special points in turn,
without ParamConfig.marker_label_at's lookup table.  The row
degree oracle scores a tile row tile by tile.  The tableau statistics
oracles read no per-shape tables: they embed both paths of every
tableau, score it tile by tile, order its tiles by a scan over all tile
pairs, and thread the reduced word through Residue objects.  The graded
oracles are the plain per-tableau definitions: they enumerate every
standard tableau of the shape (or, for Delta, every coloured tableau
through cstd) and score each by the tile-by-tile degree.  The ladder
oracles are the per-tableau rule, which compares a tableau's width
with every tableau of its residue class through cstd, and the
walk-by-walk tally, which visits every walk of every shape and keeps
a bitmask of negative counts per class.  The norm oracle is the exact
spectral norm.  The seminormal partner oracle applies the signed
permutation to a tableau's entries and tests the result for
standardness.
"""

import heapq

import numpy as np

from blobalg import laurent
from blobalg.decomp import GradedMatrix
from blobalg.params import ALPHA_LABELS, MARKER_LABELS
from blobalg.paths import (
    EmbeddedPath,
    Tile,
    embed,
    max_shape,
    positions,
    residue_class_tableaux,
    tile_degree,
    walk_tables,
)
from blobalg.tableaux import (
    Tableau,
    _target_residues,
    cstd,
    enumerate_std,
    is_standard,
    residue_seq,
    shapes,
    t_lambda,
    weyl_act,
)


def marker_label_at_loop(cfg, orbit, x):
    """Oracle for ParamConfig.marker_label_at: the first label in
    MARKER_LABELS whose residue is that of (orbit, x), or None."""
    r = cfg.residue(orbit, x)
    for label in MARKER_LABELS:
        if r == cfg.point_residue(label):
            return label
    return None


def cstd_brute(cfg, n, shape, target):
    """Oracle for tableaux.cstd: filter the full enumeration by residue
    sequence, with the target read as cstd reads it."""
    R = _target_residues(cfg, n, target)
    return [t for t in enumerate_std(n, shape) if residue_seq(cfg, n, t) == R]


def row_degree(cfg, orbit, yc, a, b):
    """Oracle for paths.row_degrees: the degree of row yc of the tile
    diagram, tile by tile, for a walk whose vertex yc - 1 sits at x = a
    against a distinguished path at x = b."""
    lo, hi = min(a, b), max(a, b)
    return sum(tile_degree(cfg, orbit, Tile(xc, yc, "L" if xc < b else "R"))
               for xc in range(lo + 1, hi, 2))


def tiles_embedded(cfg, n, t):
    """Oracle for paths.tiles: the tiles between the embedded paths of
    t and of its shape's t_lambda, row by row."""
    xs_t = positions(embed(cfg, n, t))
    xs_l = positions(embed(cfg, n, t_lambda(n, t.shape)))
    out = []
    for yc in range(1, n + 1):
        a, b = xs_t[yc - 1], xs_l[yc - 1]
        lo, hi = min(a, b), max(a, b)
        for xc in range(lo + 1, hi, 2):
            out.append(Tile(xc, yc, "L" if xc < b else "R"))
    return out


def degree_tiles_tilewise(cfg, n, t):
    """Oracle for paths.degree_tiles: tile_degree summed tile by tile
    over tiles_embedded."""
    orbit = embed(cfg, n, t).orbit
    return sum(tile_degree(cfg, orbit, tile)
               for tile in tiles_embedded(cfg, n, t))


def _linearize_scan(ts, before, key):
    """paths._linearize with the adjacency found by scanning every pair
    of tiles."""
    succ = {u: [] for u in ts}
    indeg = {u: 0 for u in ts}
    for u in ts:
        for v in ts:
            if (u is not v and abs(u.xc - v.xc) == 1
                    and abs(u.yc - v.yc) == 1 and before(u, v)):
                succ[u].append(v)
                indeg[v] += 1
    heap = [(key(u), u) for u in ts if indeg[u] == 0]
    heapq.heapify(heap)
    out = []
    while heap:
        _, u = heapq.heappop(heap)
        out.append(u)
        for v in succ[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(heap, (key(v), v))
    if len(out) != len(ts):
        raise RuntimeError("tile precedence is cyclic")
    return out


def tau_order_scan(cfg, n, t):
    """Oracle for paths.tau_order: the same canonical removal order over
    tiles_embedded, adjacency by the pair scan."""
    ts = tiles_embedded(cfg, n, t)
    left = [u for u in ts if u.side == "L"]
    right = [u for u in ts if u.side == "R"]
    ordered = _linearize_scan(
        left, lambda u, v: u.xc > v.xc, key=lambda u: (u.top_y, -u.xc))
    ordered += _linearize_scan(
        right, lambda u, v: u.xc < v.xc, key=lambda u: (-u.top_y, u.xc))
    return ordered


def degree_klr_residues(cfg, n, t):
    """Oracle for paths.degree_klr: tau_order_scan threaded through
    t_lambda's residue sequence as Residue objects, inverted and
    shifted by the ParamConfig methods at every tile."""
    seq = list(residue_seq(cfg, n, t_lambda(n, t.shape)))
    alphas = {cfg.point_residue(lbl) for lbl in ALPHA_LABELS}
    deg = 0
    for u in tau_order_scan(cfg, n, t):
        c = u.content
        if c == 0:
            r = seq[0]
            if cfg.res_invert(r) == r:
                deg -= 2
            elif r in alphas:
                deg += 1
            seq[0] = cfg.res_invert(r)
        else:
            a, b = seq[c - 1], seq[c]
            if a == b:
                deg -= 2
            elif b == cfg.res_shift(a, 1) or b == cfg.res_shift(a, -1):
                deg += 1
            seq[c - 1], seq[c] = b, a
    return deg


def delta_graded_dim_enum(cfg, n, shape):
    """Oracle for decomp.delta_graded_dim: sum of v^degree over every
    standard tableau of the shape, scored by degree_tiles_tilewise."""
    out = {}
    for t in enumerate_std(n, shape):
        out = laurent.add(out, {degree_tiles_tilewise(cfg, n, t): 1})
    return out


def delta_matrix_cstd(cfg, n):
    """Oracle for decomp.delta_matrix: every entry (la, mu) summed over
    the tableaux cstd lists for la coloured like t_mu, each scored by
    degree_tiles_tilewise, with no block filter and no invariant
    check."""
    order = shapes(n)
    cols = []
    for mu in order:
        target = residue_seq(cfg, n, t_lambda(n, mu))
        col = []
        for la in order:
            ent = {}
            for s in cstd(cfg, n, la, target):
                ent = laurent.add(ent, {degree_tiles_tilewise(cfg, n, s): 1})
            col.append(ent)
        cols.append(col)
    return GradedMatrix(tuple(order), tuple(
        tuple(col[i] for col in cols) for i in range(len(order))))


def is_ladder_class(cfg, n, t):
    """Oracle for paths.ladder_tableaux and is_ladder: t's own path is
    the widest rightward presentation within its residue class, found
    by cstd over every shape (residue_class_tableaux), and t's shape is
    the max_shape of that path."""
    p = embed(cfg, n, t)
    if max_shape(cfg, n, p) != t.shape:
        return False
    w = _width(p)
    for u in residue_class_tableaux(cfg, n, t):
        if _width(embed(cfg, n, u)) > w:
            return False
    return True


def _width(path):
    """x(n) - x(0) of an embedded path."""
    xs = positions(path)
    return xs[-1] - xs[0]


def simple_dim_lower_bounds_enum(cfg, n):
    """Oracle for decomp.simple_dim_lower_bounds: group each shape's
    tableaux by residue sequence and count the groups that hold a
    ladder tableau (is_ladder_class, one residue class walk per
    tableau)."""
    out = {}
    for la in shapes(n):
        by_res = {}
        for t in enumerate_std(n, la):
            by_res.setdefault(residue_seq(cfg, n, t), []).append(t)
        bound = 0
        for group in by_res.values():
            if any(is_ladder_class(cfg, n, t) for t in group):
                bound += len(group)
        out[la] = bound
    return out


def _tally_walks(n, c, se, sw, groups, least):
    """Visit every n-step walk with exactly c SW steps, sharing
    prefixes: step j + 1 from the state (j, r) reads the residue id
    se[j + r] going SE and sw[r] going SW.  Each leaf's residue-id
    tuple counts in ``groups[key] = [tableaux, mask of negative
    counts]`` and lowers ``least[key]`` to c."""
    seq = []
    bit = 1 << c

    def walk(j, r):
        if j == n:
            key = tuple(seq)
            grp = groups.setdefault(key, [0, 0])
            grp[0] += 1
            grp[1] |= bit
            least[key] = min(least.get(key, c), c)
            return
        if r < n - j:
            seq.append(se[j + r])
            walk(j + 1, r)
            seq.pop()
        if r:
            seq.append(sw[r])
            walk(j + 1, r - 1)
            seq.pop()

    walk(0, c)


def simple_dim_lower_bounds_walks(cfg, n):
    """Oracle for decomp.simple_dim_lower_bounds: every walk of every
    shape visited once and keyed by its residue ids, with per (shape,
    class) the tableau count and a bitmask of the counts c present,
    and per class the least c over all shapes, c*.  A class adds its
    count to shape la exactly when c* is in la's mask and the max_shape
    of a walk of la with c* SW steps is la."""
    least = {}
    per_shape = []
    for shape, tab in walk_tables(cfg, n).items():
        groups = {}
        widest = []
        for c in range(len(tab.sw)):
            _tally_walks(n, c, tab.se, tab.sw, groups, least)
            rep_path = EmbeddedPath(tab.orbit, tab.x0 + 2 * c,
                                    (False,) * c + (True,) * (n - c))
            widest.append(max_shape(cfg, n, rep_path))
        per_shape.append((shape, groups, widest))
    out = {}
    for shape, groups, widest in per_shape:
        out[shape] = sum(count for key, (count, mask) in groups.items()
                         if mask >> least[key] & 1
                         and widest[least[key]] == shape)
    return out


def spectral_norm(mat, tol):
    """Oracle for calibrated._norm: the exact spectral norm (one SVD),
    whatever the tolerance."""
    return float(np.linalg.norm(mat, 2))


def seminormal_partner(n, t, i):
    """Oracle for the partner rule of calibrated.build_calibrated: s_i t
    by weyl_act on the entries, or None when that is not standard."""
    moved = weyl_act(i, t.entries)
    if is_standard(n, t.shape, moved):
        return Tableau(t.shape, moved)
    return None
