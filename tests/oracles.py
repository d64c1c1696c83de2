"""Slow reference implementations that the fast library code is
differentially tested against, and the objects that tests state
criteria about but no command computes.

The cstd oracle filters the full enumeration by residue sequence.  The
wall oracle tests a position against the reflection center of its
orbit, where ParamConfig.on_hyperplane asks whether the residue is its
own inverse.  The residue oracle reads res_i(t) off the box contents
(box_contents), where tableaux.residue_seq reads it off the walk.  The
marker oracle compares a position with all six special points in turn,
without ParamConfig.marker_label_at's lookup table.  The row
degree oracle scores a tile row tile by tile.  The tableau statistics
oracles read no per-shape tables: they embed both paths of every
tableau, score it tile by tile, order its tiles by a scan over all tile
pairs or by bucketing them per diagonal, thread the reduced word
through Residue objects, and print the tableau from its entries.  The graded
oracles are the plain per-tableau definitions: they enumerate every
standard tableau of the shape (or, for Delta, every coloured tableau
through cstd) and score each by the tile-by-tile degree.  The ladder
oracles are the per-tableau rule, which compares a tableau's width
with every tableau of its residue class through cstd, and the
walk-by-walk tally, which visits every walk of every shape and keeps
a bitmask of negative counts per class.  The norm oracle is the exact
spectral norm.  The seminormal partner oracle applies the signed
permutation to a tableau's entries and tests the result for
standardness.  The calibrated module oracles are the dense builder,
which stores every generator as a dim x dim array, and the four
relation checkers that evaluate every relation by dense matrix
products.

The library embeds no path: an EmbeddedPath (orbit, start, steps) and
the similarity moves on it (negate, translate, reflect), whose closure
is the residue-class lemma of tests/test_acceptance.py, live here, as
do the signed permutations (weyl_act, perm_from_tableau,
coxeter_length, word_to_tableau) that the word and tiling criteria are
stated in, the canonical shape order key, the orbit names of a
configuration and the JSON reader of a Laurent polynomial.
"""

import cmath
import heapq
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from blobalg import laurent
from blobalg.calibrated import (
    _DENOM_FLOOR,
    CalibratedModule,
    NonGenericSeedError,
    _bracket,
    _norm,
    _report,
    _x_chain,
    residue_value,
)
from blobalg.decomp import GradedMatrix
from blobalg.params import (
    ALPHA_LABELS,
    DEFAULT_TOL,
    INTEGRAL_ORBIT,
    MARKER_LABELS,
    Formal,
    SelfInverse,
)
from blobalg.paths import (
    max_shape,
    residue_class_tableaux,
    tile_degree,
    walk_tables,
)
from blobalg.tableaux import (
    SHAPE_MARKERS,
    Tableau,
    _target_residues,
    bead,
    cstd,
    enumerate_std,
    from_negated_set,
    is_standard,
    max_negatives,
    residue_seq,
    shape_str,
    shapes,
    step_residue,
    t_lambda,
    walk_start,
)


# -- embedded paths and the similarity moves ----------------------------

@dataclass(frozen=True)
class EmbeddedPath:
    orbit: str
    start: int
    steps: tuple  # True = SE (x+1), False = SW (x-1)

    @property
    def n(self):
        return len(self.steps)


def embed(cfg, n, t):
    """Embed a standard tableau as a path anchored at its marker."""
    negs = t.negated_set()
    orbit, start = walk_start(cfg, n, t.shape, len(negs))
    return EmbeddedPath(orbit, start, tuple(j not in negs for j in range(1, n + 1)))


def positions(path):
    """x(0), ..., x(n)."""
    xs = [path.start]
    for se in path.steps:
        xs.append(xs[-1] + (1 if se else -1))
    return xs


def ends(path):
    """(orbit, x(0), x(n)): what paths.max_shape reads of a path."""
    xs = positions(path)
    return path.orbit, xs[0], xs[-1]


def path_residues(cfg, path):
    """Residue of each step (tableaux.step_residue)."""
    xs = positions(path)
    return tuple(step_residue(cfg, path.orbit, xs[j - 1], j, se)
                 for j, se in enumerate(path.steps, start=1))


def realize(cfg, n, path):
    """All (shape, tableau) pairs this path presents.

    A shape matches when the SW count respects the bead bound and the
    path starts at that shape's walk_start, up to a 2e-translate.
    """
    if path.n != n:
        raise ValueError("path has %d steps, expected %d" % (path.n, n))
    negs = frozenset(j for j, se in enumerate(path.steps, start=1) if not se)
    here = cfg.residue(path.orbit, path.start)
    out = []
    for shape in shapes(n):
        if len(negs) <= max_negatives(n, shape) and (
                cfg.residue(*walk_start(cfg, n, shape, len(negs))) == here):
            out.append((shape, from_negated_set(n, shape, negs)))
    return out


def negate(cfg, path):
    """Mirror the whole picture through inversion; residues persist."""
    return EmbeddedPath(
        *cfg.invert_site(path.orbit, path.start),
        tuple(not se for se in path.steps),
    )


def translate(cfg, path, r=1):
    """Shift by r full periods; only meaningful at finite e."""
    if cfg.e is None:
        raise ValueError("translation needs finite e")
    return EmbeddedPath(path.orbit, path.start + 2 * cfg.e * r, path.steps)


def reflect(cfg, path, i):
    """Reflect the tail after vertex i, which must sit on a wall."""
    xs = positions(path)
    if not 0 <= i <= path.n:
        raise ValueError("vertex index out of range")
    if not cfg.on_hyperplane(path.orbit, xs[i]):
        raise ValueError("vertex %d is not on a wall" % i)
    return EmbeddedPath(
        path.orbit,
        path.start,
        path.steps[:i] + tuple(not se for se in path.steps[i:]),
    )


def sim_neighbors(cfg, path):
    yield negate(cfg, path)
    if cfg.e is not None:
        yield translate(cfg, path, 1)
        yield translate(cfg, path, -1)
    xs = positions(path)
    for i in range(path.n + 1):
        if cfg.on_hyperplane(path.orbit, xs[i]):
            yield reflect(cfg, path, i)


def canonical_key(cfg, path):
    start = path.start if cfg.e is None else path.start % (2 * cfg.e)
    return (path.orbit, start, path.steps)


def sim_class_paths(cfg, path):
    """Breadth-first closure of a path under the similarity moves."""
    seen = {canonical_key(cfg, path): path}
    frontier = [path]
    while frontier:
        nxt = []
        for p in frontier:
            for q in sim_neighbors(cfg, p):
                key = canonical_key(cfg, q)
                if key not in seen:
                    seen[key] = q
                    nxt.append(q)
        frontier = nxt
    return list(seen.values())


def sim_class_tableaux(cfg, n, t):
    """Tableaux realized anywhere in the similarity class of embed(t)."""
    out = set()
    for p in sim_class_paths(cfg, embed(cfg, n, t)):
        for _, u in realize(cfg, n, p):
            out.add(u)
    return out


# -- signed permutations -------------------------------------------------

def weyl_act(j, entries):
    """Apply the signed-permutation generator s_j to the entries.

    s_0 flips the sign of the entry +-1; s_j for j >= 1 swaps the values
    j and j+1, signs riding along.  Boxes stay put, so the result need
    not be standard.
    """
    if j == 0:
        return tuple(-v if abs(v) == 1 else v for v in entries)
    out = []
    for v in entries:
        a = abs(v)
        if a == j:
            a = j + 1
        elif a == j + 1:
            a = j
        out.append(a if v > 0 else -a)
    return tuple(out)


def word_to_tableau(n, shape, word, check=False):
    """Apply a reduced word (printed order) to the distinguished
    tableau.  With check=True every intermediate must stay standard."""
    entries = t_lambda(n, shape).entries
    for c in reversed(word):
        entries = weyl_act(c, entries)
        if check and not is_standard(n, shape, entries):
            raise ValueError("word leaves the standard tableaux at letter %d" % c)
    return Tableau(shape, entries)


def perm_from_tableau(n, t):
    """The signed permutation w with t = w(t_lambda), as the tuple
    (w(1), ..., w(n))."""
    source = t_lambda(n, t.shape).entries
    w = [0] * (n + 1)
    for a, b in zip(source, t.entries):
        if a > 0:
            w[a] = b
        else:
            w[-a] = -b
    return tuple(w[1:])


def coxeter_length(w):
    """Length in the signed permutation group: inversions of the signed
    value sequence plus the sum of the absolute negative values."""
    n = len(w)
    inv = sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])
    return inv + sum(-v for v in w if v < 0)


# -- shapes, configurations and polynomials ------------------------------

def shape_sort_key(shape):
    """Sort key for the canonical total order (largest shape first)."""
    return (-shape.k, SHAPE_MARKERS.index(shape.marker))


def orbits(cfg):
    """All orbit names the configuration knows about."""
    names = {INTEGRAL_ORBIT}
    names.update(cfg.inversions)
    for spec in cfg.points.values():
        if isinstance(spec, Formal):
            names.add(spec.orbit)
    return names


def from_json_obj(obj):
    """Inverse of laurent.to_json_obj.  Strict about types, tolerant of
    zeros."""
    if not isinstance(obj, dict):
        raise ValueError("polynomial must be a JSON object, got %r" % type(obj).__name__)
    f = {}
    for k, c in obj.items():
        try:
            e = int(k)
        except (TypeError, ValueError):
            raise ValueError("bad exponent key %r" % (k,)) from None
        if isinstance(c, bool) or not isinstance(c, int):
            raise ValueError("coefficient of v^%d must be an integer, got %r" % (e, c))
        if c:
            f[e] = f.get(e, 0) + c
    return laurent.normalized(f)


# -- reference implementations ------------------------------------------

def on_hyperplane_center(cfg, orbit, x):
    """Oracle for ParamConfig.on_hyperplane by the reflection center: a
    paired orbit has no walls; the integral lattice (center 0) and a
    self-inverse orbit with center 2c have them at x = c, and at finite
    e at every x = c mod e."""
    inv = SelfInverse(0) if orbit == INTEGRAL_ORBIT else cfg.inversions[orbit]
    if not isinstance(inv, SelfInverse):
        return False
    c = inv.center // 2
    if cfg.e is None:
        return x == c
    return (x - c) % cfg.e == 0


def box_contents(cfg, n, shape):
    """Content residues of boxes 1..n (index 0 unused): box j holds
    marker * q^(2(j - p)), p the bead box."""
    pr = cfg.point_residue(shape.marker)
    p = bead(n, shape.k)
    return [None] + [cfg.res_shift(pr, j - p) for j in range(1, n + 1)]


def residue_seq_boxes(cfg, n, t):
    """Oracle for tableaux.residue_seq: res_i(t) is the content of the
    box holding +-i, inverted when the entry is negative."""
    contents = box_contents(cfg, n, t.shape)
    out = [None] * n
    for box, v in enumerate(t.entries, start=1):
        r = contents[box]
        out[abs(v) - 1] = r if v > 0 else cfg.res_invert(r)
    return tuple(out)


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
    return sum(tile_degree(cfg, orbit, xc, yc == 1)
               for xc in range(lo + 1, hi, 2))


def tiles_embedded(cfg, n, t):
    """The tiles (xc, yc, side) between the embedded paths of t and of
    its shape's t_lambda, row by row: the tile diagram that
    paths.degree_tiles, tau_order, reduced_word and degree_klr read off
    walk_tables."""
    xs_t = positions(embed(cfg, n, t))
    xs_l = positions(embed(cfg, n, t_lambda(n, t.shape)))
    out = []
    for yc in range(1, n + 1):
        a, b = xs_t[yc - 1], xs_l[yc - 1]
        lo, hi = min(a, b), max(a, b)
        for xc in range(lo + 1, hi, 2):
            out.append((xc, yc, "L" if xc < b else "R"))
    return out


def degree_tiles_tilewise(cfg, n, t):
    """Oracle for paths.degree_tiles: tile_degree summed tile by tile
    over tiles_embedded."""
    orbit = embed(cfg, n, t).orbit
    return sum(tile_degree(cfg, orbit, xc, yc == 1)
               for xc, yc, _ in tiles_embedded(cfg, n, t))


def _linearize_scan(ts, before, key):
    """paths._linearize with the adjacency found by scanning every pair
    of tiles."""
    succ = {u: [] for u in ts}
    indeg = {u: 0 for u in ts}
    for u in ts:
        for v in ts:
            if (abs(u[0] - v[0]) == 1 and abs(u[1] - v[1]) == 1
                    and before(u, v)):
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
    left = [u for u in ts if u[2] == "L"]
    right = [u for u in ts if u[2] == "R"]
    ordered = _linearize_scan(
        left, lambda u, v: u[0] > v[0], key=lambda u: (u[1], -u[0]))
    ordered += _linearize_scan(
        right, lambda u, v: u[0] < v[0], key=lambda u: (-u[1], u[0]))
    return ordered


def tile_order_buckets(cfg, n, t):
    """Oracle for paths._tile_runs: tau_order as runs (side, k, ycs), the
    tiles between the embedded paths of t and of t_lambda on the
    diagonal xc - yc = k at rows ycs, appended tile by tile to one
    bucket per diagonal and the buckets sorted."""
    xs_t = positions(embed(cfg, n, t))
    xs_l = positions(embed(cfg, n, t_lambda(n, t.shape)))
    left, right = defaultdict(list), defaultdict(list)
    for yc in range(n, 0, -1):
        a, b = xs_t[yc - 1], xs_l[yc - 1]
        if a < b:
            for k in range(a + 1 - yc, b - yc, 2):
                left[k].append(yc)
        else:
            for k in range(b + 1 - yc, a - yc, 2):
                right[k].append(yc)
    return ([("L", k, left[k]) for k in sorted(left, reverse=True)]
            + [("R", k, right[k][::-1]) for k in sorted(right)])


def degree_klr_residues(cfg, n, t):
    """Oracle for paths.degree_klr: tau_order_scan threaded through
    t_lambda's residue sequence as Residue objects, inverted and
    shifted by the ParamConfig methods at every tile."""
    seq = list(residue_seq(cfg, n, t_lambda(n, t.shape)))
    alphas = {cfg.point_residue(lbl) for lbl in ALPHA_LABELS}
    deg = 0
    for _, yc, _ in tau_order_scan(cfg, n, t):
        c = yc - 1
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


def tableau_str_entries(t):
    """Oracle for tableaux.tableau_texts: the text form printed from the
    tableau's entries."""
    return "%s:[%s]" % (shape_str(t.shape), ",".join(map(str, t.entries)))


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
    if max_shape(cfg, n, *ends(p)) != t.shape:
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
            widest.append(max_shape(cfg, n, *ends(rep_path)))
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


# -- dense calibrated modules -------------------------------------------
# Oracles for calibrated.build_calibrated and its four checkers: every
# generator a dense array, every relation a product of dense arrays.

def build_calibrated_dense(cfg, n, shape, seed):
    """Assemble the generator matrices on the standard tableaux basis.

    Every T_i, T_0 included, follows one seminormal rule (Ram,
    "Calibrated representations of affine Hecke algebras", 2004): the
    column of a tableau t has the diagonal entry a = num / denom read
    off t's residue values, and where s_i t is standard the pair
    {t, s_i t} carries the symmetric coefficient
    sqrt(-(a - p)(a + 1/p)), p the quadratic parameter of T_i.  On
    negated sets N, s_i (i >= 1) moves t to N ^ {i, i+1} exactly when
    one of i, i + 1 lies in N, and s_0 moves t to N ^ {1} when that set
    is in the basis.  T_0v, T_n and X_1 .. X_n are derived by products.

    Raises NonGenericSeedError when a denominator is below
    _DENOM_FLOOR, naming the offending generator and tableau; T_1 ..
    T_{n-1} are built before T_0.
    """
    q, q0, qn = seed.q, seed.q0, seed.qn
    big_q, big_q0, big_qn = q - 1 / q, q0 - 1 / q0, qn - 1 / qn
    basis = list(enumerate_std(n, shape))
    negs = [t.negated_set() for t in basis]
    index = {s: r for r, s in enumerate(negs)}
    seqs = [residue_seq(cfg, n, t) for t in basis]
    values = {r: residue_value(cfg, seed, r) for r in set().union(*seqs)}
    gamma = [[values[r] for r in seq] for seq in seqs]
    dim = len(basis)

    mats = []
    for i in (*range(1, n), 0):
        par = q if i else q0
        mat = np.zeros((dim, dim), dtype=complex)
        for col, (g, s) in enumerate(zip(gamma, negs)):
            if i:
                num, denom = big_q, 1 - g[i - 1] / g[i]
                other = s ^ {i, i + 1} if (i in s) != (i + 1 in s) else None
            else:
                h = 1 / g[0]
                num, denom = big_q0 + big_qn * h, 1 - h * h
                other = s ^ {1}
            if abs(denom) < _DENOM_FLOOR:
                raise NonGenericSeedError(
                    "non-generic seed: T_%d denominator ~ 0 on %s"
                    % (i, basis[col].entries))
            a = num / denom
            mat[col, col] = a
            row = index.get(other)
            # evaluate the pair coefficient once, from the lower column:
            # both radicands agree analytically, but evaluating them
            # independently can pick opposite branches across the cut
            if row is not None and row > col:
                mat[row, col] = mat[col, row] = cmath.sqrt(-(a - par) * (a + 1 / par))
        mats.append(mat)
    *ts, t0 = mats

    # T_0v has diagonal (Qn + Q0*g)/(1 - g^2) and off-diagonal
    # g*sqrt(-(b - qn)(b + 1/qn)), but the branch of that root is not
    # free: the product of the T_0v and T_0 pair coefficients is pinned
    # by X_1 = T_0v T_0 acting diagonally.  Deriving T_0v from the exact
    # diagonal of X_1 selects the coherent branch automatically (its
    # diagonal provably reduces to the closed form above).
    eye = np.eye(dim, dtype=complex)
    x1 = np.diag(np.array([gamma[r][0] for r in range(dim)], dtype=complex))
    t0v = x1 @ (t0 + (1 / q0 - q0) * eye)

    tn, xs = dense_products(t0v, t0, ts, q)
    return CalibratedModule(
        shape, n, basis, gamma, t0, ts, t0v, tn,
        [x.diagonal().copy() for x in xs],
        [float(np.linalg.norm(x - np.diag(np.diag(x)))) for x in xs], seed)


def dense_products(t0v, t0, ts, q, dtype=complex):
    """T_n = W T_0v W^-1 and X_1 .. X_n from the dense T_0v, T_0 ..
    T_{n-1}, every product and constant formed in dtype: np.clongdouble
    gives an extended-precision reference of the very products the
    dense builder forms in double."""
    one, q = dtype(1), dtype(q)
    t0v, t0 = np.asarray(t0v, dtype=dtype), np.asarray(t0, dtype=dtype)
    ts = [np.asarray(mat, dtype=dtype) for mat in ts]
    eye = np.eye(len(t0), dtype=dtype)

    tn = t0v
    for mat in ts:  # T_1 first, T_{n-1} outermost
        tn = mat @ tn @ (mat + (one / q - q) * eye)

    xs = [t0v @ t0]
    for mat in ts:
        xs.append(mat @ xs[-1] @ mat)
    return tn, xs


def dense_xs(m):
    """X_1 .. X_n of a module as dense arrays, rebuilt by the module's
    own chain (calibrated._x_chain): Seminormal products on a module of
    build_calibrated, dense ones on a module of build_calibrated_dense,
    where they are dense_products' own."""
    return list(_x_chain(m.t0v, m.t0, m.ts))


def check_hecke_relations_dense(m, tol=DEFAULT_TOL):
    """Quadratic, commuting, braid, and X-commutation residuals."""
    eye = np.eye(m.dim, dtype=complex)
    rel = {}
    gens = m.generators()
    for name, mat, par in gens:
        rel["quadratic %s" % name] = _norm((mat - par * eye) @ (mat + eye / par), tol)

    *chain, (_, t0v, _) = gens  # T0, T1 .. T_{n-1}, Tn
    for i, (na, a, _) in enumerate(chain):
        for nb, b, _ in chain[i + 2:]:
            rel["commute %s %s" % (na, nb)] = _norm(a @ b - b @ a, tol)
    for name, b, _ in chain[2:-1]:
        rel["commute T0v %s" % name] = _norm(t0v @ b - b @ t0v, tol)

    for (na, a, _), (nb, b, _) in zip(chain[1:-2], chain[2:-1]):
        rel["braid3 %s %s" % (na, nb)] = _norm(a @ b @ a - b @ a @ b, tol)
    if m.ts:
        for (na, a, _), (nb, b, _) in ((chain[0], chain[1]), (chain[-1], chain[-2])):
            rel["braid4 %s %s" % (na, nb)] = _norm(a @ b @ a @ b - b @ a @ b @ a, tol)

    xs = dense_xs(m)
    for i in range(m.n):
        for j in range(i + 1, m.n):
            a, b = xs[i], xs[j]
            rel["commute X%d X%d" % (i + 1, j + 1)] = _norm(a @ b - b @ a, tol)
    return _report(rel, tol)


def check_tl_relations_dense(m, tol=DEFAULT_TOL):
    """Square and smash relations for the e generators, formed one at a
    time from generators() as in blob_check, e_0v last: only e = e_i and
    prev = e_(i-1) are held."""
    q, q0, qn = m.seed.q, m.seed.q0, m.seed.qn
    eye = np.eye(m.dim, dtype=complex)
    rel = {}
    for i, (name, mat, par) in enumerate(m.generators()):
        e = mat - par * eye
        rel["square e%s" % ("0v" if name == "T0v" else i)] = _norm(
            e @ e + _bracket(par) * e, tol)
        if i == 1 < m.n:
            rel["smash e1 e0 e1"] = _norm(e @ prev @ e - _bracket(q0 / q) * e, tol)
        if 2 <= i < m.n:
            rel["tl e%d e%d e%d" % (i - 1, i, i - 1)] = _norm(prev @ e @ prev - prev, tol)
            rel["tl e%d e%d e%d" % (i, i - 1, i)] = _norm(e @ prev @ e - e, tol)
        if i == m.n >= 2:
            rel["smash e%d en e%d" % (i - 1, i - 1)] = _norm(
                prev @ e @ prev - _bracket(qn / q) * prev, tol
            )
        prev = e
    del prev, e
    kinds = ("square", "smash", "tl")    # the report order
    return _report(dict(sorted(
        rel.items(), key=lambda kv: kinds.index(kv[0].split()[0]))), tol)


def check_jm_spectrum_dense(m, tol=DEFAULT_TOL):
    """X_i must be diagonal with the residue values on the diagonal."""
    rel = {}
    for i, x in enumerate(dense_xs(m), start=1):
        expected = np.array([m.gamma[r][i - 1] for r in range(m.dim)])
        rel["X%d diagonal" % i] = float(np.max(np.abs(np.diag(x) - expected)))
        rel["X%d off-diagonal" % i] = _norm(x - np.diag(np.diag(x)), tol)
    return _report(rel, tol)


def blob_check_dense(m, tol=DEFAULT_TOL):
    """Alternating-product relations: the zero shape carries the kappa
    relations, every other shape is annihilated by both products.  The
    idempotents are formed one at a time, so only the two running
    products I0 (even e_i) and I1 (odd e_i) are held beside the module."""
    eye = np.eye(m.dim, dtype=complex)
    prods = [eye, eye]
    for i, (_, mat, par) in enumerate(m.generators()[:m.n + 1]):
        prods[i % 2] = prods[i % 2] @ (mat - par * eye)
    i0, i1 = prods
    rel = {}
    if m.shape.k == 0:
        th, q = m.seed.theta_value, m.seed.q
        if m.n % 2 == 0:
            kappa = _bracket(th / q) - _bracket(m.seed.alpha1 / q)
        else:
            kappa = _bracket(th) - _bracket(m.seed.alpha2)
        rel["I0 I1 I0 = kappa I0"] = _norm(i0 @ i1 @ i0 - kappa * i0, tol)
        rel["I1 I0 I1 = kappa I1"] = _norm(i1 @ i0 @ i1 - kappa * i1, tol)
    else:
        rel["I0 = 0"] = _norm(i0, tol)
        rel["I1 = 0"] = _norm(i1, tol)
    return _report(rel, tol)
