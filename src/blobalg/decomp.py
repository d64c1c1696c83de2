"""Graded Delta-matrices, their equivalence blocks, and the unique
N*A factorization that yields the conjectural graded decomposition
matrix, simple dimensions, and ladder lower bounds.

All of them read paths.walk_tables, the one builder of what a walk
reads.  Graded counts over the tableaux of one shape come from one
transfer DP over its walks (_walks): with no target it gives the graded
dimension of a standard module; with the residue ids of t_mu as target
the Delta entry (la, mu), computed only where an exact block filter
allows a nonzero value.  The ladder bounds are a DP over the sets of
walkers reading one prefix (simple_dim_lower_bounds).  The cstd column
sum is the test oracle for Delta (``delta_matrix_cstd`` in tests/oracles.py).
"""

import warnings

from . import laurent
from .paths import split_walkers, walk_tables, walkers
from .tableaux import Shape, count_std, shape_str, shapes, validate_shape

__all__ = [
    "GradedMatrix",
    "delta_matrix",
    "blocks",
    "na_factorize",
    "decomposition_matrix",
    "decomposition_from_delta",
    "delta_graded_dim",
    "simple_graded_dims",
    "simple_dim_lower_bounds",
]

_ONE = {0: 1}


def _label(s):
    return shape_str(s) if isinstance(s, Shape) else str(s)


class GradedMatrix:
    """Square matrix of Laurent polynomials over an ordered label list.

    Rows and columns are indexed by the same ``shapes`` sequence; the
    entry in row ``la``, column ``mu`` is a Laurent polynomial in the
    dict representation of :mod:`.laurent`.  ``conjectural`` marks
    matrices whose content rests on the decomposition conjecture and is
    carried into every serialization; equality ignores it.  A matrix is
    unhashable, since its entries are dicts.
    """

    def __init__(self, shapes, rows, conjectural=False):
        self.shapes = tuple(shapes)
        self.rows = tuple(tuple(r) for r in rows)
        self.conjectural = conjectural
        if len(self.rows) != len(self.shapes):
            raise ValueError("row count does not match label count")
        for r in self.rows:
            if len(r) != len(self.shapes):
                raise ValueError("matrix is not square")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.shapes == other.shapes and self.rows == other.rows

    @property
    def dim(self):
        return len(self.shapes)

    @classmethod
    def identity(cls, labels):
        labels = tuple(labels)
        m = len(labels)
        return cls(labels, tuple(
            tuple(dict(_ONE) if i == j else {} for j in range(m))
            for i in range(m)))

    def index(self, label):
        return self.shapes.index(label)

    def entry(self, la, mu):
        return self.rows[self.index(la)][self.index(mu)]

    def labeled_entries(self):
        """Nonzero entries as a {(row label, column label): poly} dict."""
        out = {}
        for i, la in enumerate(self.shapes):
            for j, mu in enumerate(self.shapes):
                if self.rows[i][j]:
                    out[(la, mu)] = self.rows[i][j]
        return out

    def is_lower_unitriangular(self):
        for i in range(self.dim):
            if self.rows[i][i] != _ONE:
                return False
            for j in range(i + 1, self.dim):
                if self.rows[i][j]:
                    return False
        return True

    def submatrix(self, keep):
        keep = set(keep)
        idx = [i for i, s in enumerate(self.shapes) if s in keep]
        return GradedMatrix(
            tuple(self.shapes[i] for i in idx),
            tuple(tuple(self.rows[i][j] for j in idx) for i in idx),
            conjectural=self.conjectural)

    def mul(self, other):
        if self.shapes != other.shapes:
            raise ValueError("label mismatch in matrix product")
        m = self.dim
        rows = []
        for i in range(m):
            row = []
            for j in range(m):
                acc = {}
                for k in range(m):
                    if self.rows[i][k] and other.rows[k][j]:
                        acc = laurent.add(
                            acc, laurent.mul(self.rows[i][k], other.rows[k][j]))
                row.append(acc)
            rows.append(tuple(row))
        return GradedMatrix(self.shapes, tuple(rows))

    def to_json_obj(self):
        obj = {
            "shapes": [_label(s) for s in self.shapes],
            "entries": [[laurent.to_json_obj(e) for e in row]
                        for row in self.rows],
        }
        if self.conjectural:
            obj["conjectural"] = True
        return obj

    def to_tsv(self):
        lines = []
        if self.conjectural:
            lines.append("# conjectural")
        labels = [_label(s) for s in self.shapes]
        lines.append("\t".join([""] + labels))
        for lab, row in zip(labels, self.rows):
            lines.append("\t".join([lab] + [laurent.to_str(e) for e in row]))
        return "\n".join(lines) + "\n"


def _walks(n, tab):
    """The walk DP of one shape over its tables (paths.walk_tables).

    Returns ``graded(target=None)``: the sum of v^deg over the standard
    tableaux of the shape whose walks read the residue ids ``target``
    (one per step), or over all of them when target is None.  The walks
    of every count of negative entries merge into one DP over the
    states (j, r) of ShapeTables, r = c at j = 0 and r = 0 at j = n.
    Tile row j + 1 depends only on the state's position x0 + j + 2r
    (paths.row_degrees), so each state shifts its polynomial by that
    row's degree, memoized per reached state and shared by every target.
    """
    x0, xs_l, row, se, sw = tab.x0, tab.xs_l, tab.row, tab.se, tab.sw
    top = len(sw) - 1
    rd = [[None] * (min(top, n - j) + 1) for j in range(n)]  # memo per (j, r)

    def graded(target=None):
        layer = {r: _ONE for r in range(top + 1)}
        for j in range(n):
            want = None if target is None else target[j]
            degs = rd[j]
            nxt = {}
            for r, poly in layer.items():
                down = r < n - j and (want is None or se[j + r] == want)
                left = r > 0 and (want is None or sw[r] == want)
                if not (down or left):
                    continue
                d = degs[r]
                if d is None:
                    d = degs[r] = row(j + 1, x0 + j + 2 * r, xs_l[j])
                moved = {e + d: c for e, c in poly.items()} if d else poly
                if down:
                    nxt[r] = laurent.add(nxt[r], moved) if r in nxt else moved
                if left:
                    nxt[r - 1] = (laurent.add(nxt[r - 1], moved)
                                  if r - 1 in nxt else moved)
            if not nxt:
                return {}
            layer = nxt
        return dict(layer.get(0, {}))

    return graded


def _delta_row(n, tabs, la, order):
    """Row la of Delta over the columns ``order``: the walk DP of la
    against the residue ids of t_mu for every mu sharing la's block
    invariant (ShapeTables.pairs), zero for the others."""
    tab = tabs[la]
    graded = _walks(n, tab)
    return [graded(tabs[mu].seq) if tabs[mu].pairs == tab.pairs else {}
            for mu in order]


def delta_matrix(cfg, n):
    """Matrix of graded coloured-tableau counts, rows and columns in
    the canonical shape order.

    Entry (la, mu) is the sum of v^deg over the standard tableaux of
    shape la coloured like T_mu, that is, whose residue sequence is
    R_mu = res(t_mu).  It is the walk DP of la (see _walks) with a step
    allowed only when it reads R_mu at that step; no tableau is listed.
    The DP runs only where la and mu share the multiset of unordered
    pairs {c, c^-1} of their box contents.  That filter is exact: a
    tableau's residues are its shape's box contents, each perhaps
    inverted, so res(t) = R_mu forces the pair multisets of la and mu
    to agree, and every other entry is zero.  Raises RuntimeError if
    the result is not lower unitriangular with zero entries between
    distinct shapes of equal k.
    """
    order = shapes(n)
    tabs = walk_tables(cfg, n)
    rows = tuple(tuple(_delta_row(n, tabs, la, order)) for la in order)
    for i, la in enumerate(order):
        if rows[i][i] != _ONE:
            raise RuntimeError("diagonal entry != 1 at %s" % _label(la))
        for j, mu in enumerate(order):
            if i < j and rows[i][j]:
                raise RuntimeError("entry above the diagonal at (%s, %s)"
                                   % (_label(la), _label(mu)))
            if i != j and la.k == mu.k and rows[i][j]:
                raise RuntimeError(
                    "nonzero entry between distinct shapes of equal k: "
                    "(%s, %s)" % (_label(la), _label(mu)))
    return GradedMatrix(tuple(order), rows)


def blocks(delta):
    """Connected components of the nonzero-support graph of a
    Delta-matrix, each a tuple of labels in matrix order."""
    m = delta.dim
    parent = list(range(m))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(m):
        for j in range(m):
            if i != j and delta.rows[i][j]:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    comps = {}
    for i in range(m):
        comps.setdefault(find(i), []).append(i)
    out = [tuple(delta.shapes[i] for i in members)
           for members in comps.values()]
    out.sort(key=lambda blk: delta.index(blk[0]))
    return out


def na_factorize(delta):
    """Split a lower-unitriangular Delta into N*A with N strictly
    positive off the diagonal and A bar-symmetric.

    Works column by column from the right, rows nearest the diagonal
    first, so every term of the correction sum is already known.  The
    recursion runs inside each block; entries between blocks are zero
    on both sides.  Raises RuntimeError if N*A differs from Delta on a
    block.  By construction they agree, so the check only guards
    laurent.bar_split and this recursion.
    """
    if not delta.is_lower_unitriangular():
        raise ValueError("matrix is not lower unitriangular")
    m = delta.dim
    nrows = [[dict(_ONE) if i == j else {} for j in range(m)]
             for i in range(m)]
    arows = [[dict(_ONE) if i == j else {} for j in range(m)]
             for i in range(m)]
    bls = blocks(delta)
    for blk in bls:
        pos = [delta.index(s) for s in blk]
        for c in reversed(pos):
            for r in pos:
                if r <= c:
                    continue
                f = delta.rows[r][c]
                for k in pos:
                    if c < k < r:
                        f = laurent.sub(
                            f, laurent.mul(nrows[r][k], arows[k][c]))
                a, nn = laurent.bar_split(f)
                arows[r][c] = a
                nrows[r][c] = nn
    nmat = GradedMatrix(delta.shapes, tuple(map(tuple, nrows)))
    amat = GradedMatrix(delta.shapes, tuple(map(tuple, arows)))
    for blk in bls:
        if nmat.submatrix(blk).mul(amat.submatrix(blk)) != delta.submatrix(blk):
            raise RuntimeError("N*A differs from Delta on the block of %s"
                               % _label(blk[0]))
    return nmat, amat


def decomposition_matrix(cfg, n):
    """Conjectural graded decomposition matrix: the N factor of the
    Delta-matrix (see decomposition_from_delta)."""
    return decomposition_from_delta(delta_matrix(cfg, n))


def decomposition_from_delta(delta):
    """Conjectural graded decomposition matrix of a given Delta-matrix:
    its N factor.  Off-diagonal coefficients are expected nonnegative;
    a violation is reported as a warning, not an error."""
    nmat, _ = na_factorize(delta)
    bad = [(la, mu) for (la, mu), p in nmat.labeled_entries().items()
           if any(c < 0 for c in p.values())]
    if bad:
        warnings.warn(
            "negative coefficients in the decomposition matrix at: %s"
            % ", ".join("(%s, %s)" % (_label(a), _label(b)) for a, b in bad))
    return GradedMatrix(nmat.shapes, nmat.rows, conjectural=True)


def delta_graded_dim(cfg, n, shape):
    """Graded dimension of a standard module: sum of v^deg over the
    standard tableaux of the shape, by the walk DP of _walks with no
    residue target.  The enumeration over all tableaux is kept in the
    tests as the oracle (``delta_graded_dim_enum`` in tests/oracles.py).
    """
    validate_shape(n, shape)
    return _walks(n, walk_tables(cfg, n)[shape])()


def simple_graded_dims(cfg, n):
    """Conjectural graded dimensions of the simple modules, solved by
    back-substitution against the decomposition matrix.

    The graded dimension of each standard module is delta_graded_dim,
    over the walk tables that the decomposition matrix was built from.
    Raises RuntimeError if one does not count its tableaux at v = 1.
    """
    nmat = decomposition_matrix(cfg, n)
    dims = {}
    for r, la in enumerate(nmat.shapes):
        acc = delta_graded_dim(cfg, n, la)
        if laurent.eval_one(acc) != count_std(n, la):
            raise RuntimeError(
                "graded dimension of %s is %d at v=1, but the shape has %d "
                "standard tableaux" % (_label(la), laurent.eval_one(acc),
                                       count_std(n, la)))
        for c in range(r):
            if nmat.rows[r][c]:
                acc = laurent.sub(
                    acc, laurent.mul(nmat.rows[r][c], dims[nmat.shapes[c]]))
        dims[la] = acc
    return dims


def simple_dim_lower_bounds(cfg, n):
    """Lower bound for each simple dimension at v=1: the number of
    standard tableaux of the shape sharing a residue sequence with a
    ladder tableau of that shape.

    A DP over supports, the sets of walkers (paths.walkers) that read a
    prefix of residue ids; equal supports merge, adding their counts
    per walker.  A final support is a residue class; with c* its least
    c, it adds its tableaux of shape la to la's bound exactly when
    (la, c*, 0) is in it and widest at (la, c*) is la.  The oracles are
    ``simple_dim_lower_bounds_enum`` and ``..._walks`` (tests/oracles.py).
    """
    order, tables, start, widest = walkers(cfg, n)
    layer = [start]
    for j in range(n):
        merged = {}
        for counts in layer:
            for sub in split_walkers(tables, j, counts).values():
                have = merged.setdefault(frozenset(sub), sub)
                if have is not sub:
                    for w, k in sub.items():
                        have[w] += k
        layer = merged.values()
    out = dict.fromkeys(order, 0)
    for counts in layer:
        least = min(c for _, c, _ in counts)
        for (i, _, _), k in counts.items():
            if (i, least, 0) in counts and widest[i][least] == order[i]:
                out[order[i]] += k
    return out
