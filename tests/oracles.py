"""Slow reference implementations that the fast library code is
differentially tested against.

Each is the plain per-tableau definition: it enumerates every standard
tableau of the shape and asks the per-tableau question directly.
"""

from blobalg import laurent
from blobalg.paths import degree_tiles, is_ladder
from blobalg.tableaux import enumerate_std, residue_seq, shapes


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
