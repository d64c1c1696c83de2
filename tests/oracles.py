"""Slow reference implementations that the fast library code is
differentially tested against.

The marker oracle compares a position with all six special points in
turn, without ParamConfig.marker_label_at's lookup table.  The graded
oracles are the plain per-tableau definitions: they enumerate every
standard tableau of the shape and ask the per-tableau question
directly.  The norm oracle is the exact spectral norm.
"""

import numpy as np

from blobalg import laurent
from blobalg.params import MARKER_LABELS
from blobalg.paths import degree_tiles, is_ladder
from blobalg.tableaux import enumerate_std, residue_seq, shapes


def marker_label_at_loop(cfg, orbit, x):
    """Oracle for ParamConfig.marker_label_at: the first label in
    MARKER_LABELS whose residue is that of (orbit, x), or None."""
    r = cfg.residue(orbit, x)
    for label in MARKER_LABELS:
        if r == cfg.point_residue(label):
            return label
    return None


def delta_graded_dim_enum(cfg, n, shape):
    """Oracle for decomp.delta_graded_dim: sum of v^degree_tiles over
    every standard tableau of the shape."""
    out = {}
    for t in enumerate_std(n, shape):
        out = laurent.add(out, {degree_tiles(cfg, n, t): 1})
    return out


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
