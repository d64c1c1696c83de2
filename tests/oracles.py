"""Slow reference implementations that the fast library code is
differentially tested against.

The marker oracle compares a position with all six special points in
turn, without ParamConfig.marker_label_at's lookup table.  The row
degree oracle scores a tile row tile by tile.  The graded oracles are
the plain per-tableau definitions: they enumerate every standard
tableau of the shape (or, for Delta, every coloured tableau through
cstd) and ask the per-tableau question directly.  The norm oracle is
the exact spectral norm.
"""

import numpy as np

from blobalg import laurent
from blobalg.decomp import GradedMatrix
from blobalg.params import MARKER_LABELS
from blobalg.paths import Tile, degree_tiles, is_ladder, tile_degree
from blobalg.tableaux import cstd, enumerate_std, residue_seq, shapes, t_lambda


def marker_label_at_loop(cfg, orbit, x):
    """Oracle for ParamConfig.marker_label_at: the first label in
    MARKER_LABELS whose residue is that of (orbit, x), or None."""
    r = cfg.residue(orbit, x)
    for label in MARKER_LABELS:
        if r == cfg.point_residue(label):
            return label
    return None


def row_degree(cfg, orbit, yc, a, b):
    """Oracle for paths.row_degrees: the degree of row yc of the tile
    diagram, tile by tile, for a walk whose vertex yc - 1 sits at x = a
    against a distinguished path at x = b."""
    lo, hi = min(a, b), max(a, b)
    return sum(tile_degree(cfg, orbit, Tile(xc, yc, "L" if xc < b else "R"))
               for xc in range(lo + 1, hi, 2))


def delta_graded_dim_enum(cfg, n, shape):
    """Oracle for decomp.delta_graded_dim: sum of v^degree_tiles over
    every standard tableau of the shape."""
    out = {}
    for t in enumerate_std(n, shape):
        out = laurent.add(out, {degree_tiles(cfg, n, t): 1})
    return out


def delta_matrix_cstd(cfg, n):
    """Oracle for decomp.delta_matrix: every entry (la, mu) summed over
    the tableaux cstd lists for la coloured like t_mu, each scored by
    degree_tiles, with no block filter and no invariant check."""
    order = shapes(n)
    cols = []
    for mu in order:
        target = residue_seq(cfg, n, t_lambda(n, mu))
        col = []
        for la in order:
            ent = {}
            for s in cstd(cfg, n, la, target):
                ent = laurent.add(ent, {degree_tiles(cfg, n, s): 1})
            col.append(ent)
        cols.append(col)
    return GradedMatrix(tuple(order), tuple(
        tuple(col[i] for col in cols) for i in range(len(order))))


def simple_dim_lower_bounds_enum(cfg, n):
    """Oracle for decomp.simple_dim_lower_bounds: group each shape's
    tableaux by residue sequence and count the groups that hold a
    ladder tableau (is_ladder, one residue class walk per tableau)."""
    out = {}
    for la in shapes(n):
        by_res = {}
        for t in enumerate_std(n, la):
            by_res.setdefault(residue_seq(cfg, n, t), []).append(t)
        bound = 0
        for group in by_res.values():
            if any(is_ladder(cfg, n, t) for t in group):
                bound += len(group)
        out[la] = bound
    return out


def spectral_norm(mat, tol):
    """Oracle for calibrated._norm: the exact spectral norm (one SVD),
    whatever the tolerance."""
    return float(np.linalg.norm(mat, 2))
