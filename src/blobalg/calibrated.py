"""Floating-point models of the calibrated modules.

A numeric seed fixes complex values for q, the boundary parameters q0
and qn, and a base value for every formal orbit, consistently with a
parameter configuration.  Each shape then yields matrices acting on
the standard tableaux of the shape: T_0, T_1, ..., T_{n-1} by one
seminormal rule, T_0v from X_1 = T_0v T_0, T_n by conjugation and the
commuting family X_1, ..., X_n recursively.  The seed is non-generic
for a shape when one of its seminormal denominators falls below 1e-8.
Relation checkers report one residual per relation and the largest of
them per check, against a tolerance of their own (default 1e-8).

In a calibrated module each of T_0, ..., T_{n-1} and T_0v has a
diagonal and at most one off-diagonal entry per column, so they are
stored as ``Seminormal`` (diagonal, partner index, off-diagonal
coefficient), O(dim) each; T_n and X_1, ..., X_n are dense arrays.  A
product with a Seminormal factor gathers and scales rows or columns in
O(dim^2), never a dense matmul.  A relation's residual is summed into
one dense array: a word of k Seminormal factors is scattered into it
term by term, at most 2^k terms per row, and only words involving T_n,
X_i or the blob products are multiplied out.

A reported residual is an upper bound on the spectral norm of the
residual matrix, exact whenever it is at or above the tolerance: the
Frobenius norm is reported when it is already below the tolerance, and
the spectral norm (an SVD of the dense residual) only otherwise.  Since
the Frobenius norm bounds the spectral norm from above, every
pass/fail decision is the one the spectral norm alone would give, and
the relation that ``calibrated-check --format json`` names as
``worst_relation`` is the one with the largest reported value.

Everything here is double precision on purpose: the relations are
polynomial identities and a generic seed keeps every denominator well
conditioned, so residuals land many orders of magnitude below the
default tolerance of 1e-8.
"""

from __future__ import annotations

import cmath
import math
import operator
import random
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from .params import DEFAULT_TOL, INTEGRAL_ORBIT, res_to_complex
from .tableaux import count_std, enumerate_std, residue_seq, shapes

__all__ = [
    "NonGenericSeedError",
    "NumericSeed",
    "make_seed",
    "residue_value",
    "Seminormal",
    "CalibratedModule",
    "MAX_MODULE_BYTES",
    "module_bytes",
    "build_calibrated",
    "check_hecke_relations",
    "check_tl_relations",
    "check_jm_spectrum",
    "blob_check",
]

_ANNULUS = (0.5, 2.0)
_MARGIN = 1e-6  # numeric separation demanded of the special points
# Squares of paired orbit bases must stay this far from q-powers: such a
# near miss is a near-singular tableau denominator, and relation
# residuals grow like a power of its inverse.  The wide margin costs a
# modest fraction of samples and keeps residuals near 1e-10.
_DENOM_MARGIN = 0.25
# A built module's seminormal denominators must reach this much; below
# it the seed is non-generic for that module, whatever the residual
# tolerance of the checks.
_DENOM_FLOOR = 1e-8


# Size budget of one calibrated check (see module_bytes): 165 MiB at
# n = 9 fits, 705 MiB at n = 10 does not.
MAX_MODULE_BYTES = 512 * 2**20


class NonGenericSeedError(ValueError):
    pass


@dataclass(frozen=True)
class NumericSeed:
    q: complex
    q0: complex
    qn: complex
    orbit_bases: dict = field(default_factory=dict)
    theta_value: complex = 0j

    @property
    def alpha1(self):
        return self.q0 * self.qn

    @property
    def alpha2(self):
        return -self.q0 / self.qn


def residue_value(cfg, seed, r):
    return res_to_complex(cfg, r, seed.q, seed.orbit_bases)


def _bracket(x):
    return x + 1 / x


def _sample_annulus(rng):
    radius = math.exp(rng.uniform(math.log(_ANNULUS[0]), math.log(_ANNULUS[1])))
    return radius * cmath.exp(2j * math.pi * rng.random())


def _in_annulus(z):
    return _ANNULUS[0] - 1e-12 <= abs(z) <= _ANNULUS[1] + 1e-12


def _sample_q(cfg, rng):
    if cfg.e is not None:
        period = 2 * cfg.e
        j = rng.randrange(1, period)
        while math.gcd(j, period) != 1:
            j = rng.randrange(1, period)
        return cmath.exp(2j * math.pi * j / period)
    while True:
        q = cmath.exp(2j * math.pi * rng.uniform(0.01, 0.99))
        # low harmonics are the ones that show up as denominators, so
        # they get a hard margin; high ones only need to stay nonzero
        if all(abs(q ** (2 * m) - 1) > 0.1 for m in range(1, 17)) and all(
            abs(q ** (2 * m) - 1) > 0.01 for m in range(17, 65)
        ):
            return q


def _separated(cfg, seed, margin=_MARGIN):
    """Numeric version of the configuration assumptions: the four base
    points stay apart, their q^2 shifts avoid the bases, nothing lands
    on +-1, and theta stays clear of the bases and small q-powers.

    Paired orbit bases must additionally keep their squares away from
    small q-powers: a near miss there puts a tableau denominator close
    to zero and inflates every residual downstream.
    """
    q = seed.q
    for orbit, z in seed.orbit_bases.items():
        if cfg.hyperplane_center(orbit) is None:  # a paired orbit
            zz = z * z
            if any(abs(zz - q**j) < _DENOM_MARGIN for j in range(-32, 33)):
                return False
    a1, a2 = seed.alpha1, seed.alpha2
    bases = [a1, 1 / a1, a2, 1 / a2]
    for i in range(4):
        for j in range(i + 1, 4):
            if abs(bases[i] - bases[j]) < margin:
                return False
    twelve = list(bases)
    for b in bases:
        for shift in (q**2, q**-2):
            twelve.append(b * shift)
            if any(abs(b * shift - c) < margin for c in bases):
                return False
    if any(abs(z - 1) < margin or abs(z + 1) < margin for z in twelve):
        return False
    th = seed.theta_value
    if abs(th - 1) < margin or abs(th + 1) < margin:
        return False
    if any(abs(th - b) < margin for b in bases):
        return False
    for m in (1, 2):
        for s in (q**m, q**-m):
            if abs(th - s) < margin or abs(th + s) < margin:
                return False
    return True


def _pinned(cfg, bases, orbit, exp, q, rng):
    """Value of the point (orbit, exp) when the configuration pins it,
    else None (a paired orbit's base is free).

    The integral base is 1.  A self-inverse orbit's base b must satisfy
    b^2 q^center = 1 (res_to_complex), so it is pinned to +-q^-c, c the
    orbit's hyperplane_center; its sign is drawn here, once per orbit,
    and the base is recorded in bases.
    """
    if orbit == INTEGRAL_ORBIT:
        return q**exp
    c = cfg.hyperplane_center(orbit)
    if c is None:
        return None
    if orbit not in bases:
        bases[orbit] = rng.choice((1, -1)) * q ** -c
    return bases[orbit] * q**exp


def make_seed(cfg, seed=None):
    """Draw a generic numeric seed consistent with the configuration.

    q0 and qn are pinned exactly to whatever the configuration forces
    (alpha1 = q0*qn, alpha2 = -q0/qn, with the bases _pinned fixes); the
    leftover freedom is sampled from an annulus and rejected until every
    special point is cleanly separated.
    """
    rng = random.Random(seed)
    o1, c1 = cfg.point_site("alpha1")
    o2, c2 = cfg.point_site("alpha2")
    ot, ct = cfg.point_site("theta")
    for _ in range(500):
        q = _sample_q(cfg, rng)
        bases = {}
        sign = rng.choice((1, -1))
        a1 = _pinned(cfg, bases, o1, c1, q, rng)
        a2 = _pinned(cfg, bases, o2, c2, q, rng)
        if a1 is not None and a2 is not None:
            # alpha1/alpha2 = -qn^2 with both values pinned
            qn = sign * cmath.sqrt(-a1 / a2)
            q0 = a1 / qn
        elif o1 == o2:
            # the ratio alpha1/alpha2 does not involve the free base
            qn = sign * cmath.sqrt(-(q**c1) / q**c2)
            q0 = _sample_annulus(rng)
            bases[o1] = q0 * qn * q**-c1
        elif a1 is not None:
            qn = _sample_annulus(rng)
            q0 = a1 / qn
            bases[o2] = -q0 / qn * q**-c2
        elif a2 is not None:
            qn = _sample_annulus(rng)
            q0 = -a2 * qn
            bases[o1] = q0 * qn * q**-c1
        else:
            q0, qn = _sample_annulus(rng), _sample_annulus(rng)
            bases[o1] = q0 * qn * q**-c1
            bases[o2] = -q0 / qn * q**-c2
        if ot != INTEGRAL_ORBIT and ot not in bases:
            if _pinned(cfg, bases, ot, ct, q, rng) is None:
                bases[ot] = _sample_annulus(rng)
        for orbit in list(bases):
            partner = cfg.invert_orbit(orbit)
            if partner != orbit:
                bases[partner] = 1 / bases[orbit]
        if not (_in_annulus(q0) and _in_annulus(qn)):
            continue
        if not all(_in_annulus(z) for z in bases.values()):
            continue
        theta_value = bases.get(ot, 1) * q**ct
        candidate = NumericSeed(q, q0, qn, bases, theta_value)
        if _separated(cfg, candidate):
            return candidate
    raise NonGenericSeedError("could not sample a well-separated seed")


@dataclass(frozen=True, eq=False)
class Seminormal:
    """A dim x dim matrix with at most one off-diagonal entry per row and
    per column: M[r, r] = diag[r] and M[r, partner[r]] = off[r].

    partner is an involution and off is 0 on the rows it fixes (the rows
    with no partner), so column c holds diag[c] and, at row partner[c],
    off[partner[c]].  T_0 .. T_{n-1} are symmetric (off[r] =
    off[partner[r]]); T_0v, a row scaling of T_0, is not.

    A product with a dense array gathers and scales its rows or columns
    in O(dim^2) and is dense, as is the product of two Seminormal
    matrices; ``ndarray @ Seminormal`` dispatches to __rmatmul__.  Only
    np.asarray forms the dense matrix itself.
    """

    diag: np.ndarray
    partner: np.ndarray
    off: np.ndarray

    __array_ufunc__ = None  # ndarray operators defer to this class

    @property
    def shape(self):
        return (len(self.diag),) * 2

    @property
    def nbytes(self):
        return self.diag.nbytes + self.partner.nbytes + self.off.nbytes

    @cached_property
    def terms(self):
        """(cols, vals): row r holds vals[r, 0] at column cols[r, 0] = r
        and vals[r, 1] at column cols[r, 1] = partner[r]."""
        dim = len(self.diag)
        cols = np.empty((dim, 2), dtype=np.intp)
        vals = np.empty((dim, 2), dtype=complex)
        cols[:, 0], cols[:, 1] = np.arange(dim), self.partner
        vals[:, 0], vals[:, 1] = self.diag, self.off
        return cols, vals

    def shift(self, c):
        """self + c * identity."""
        return Seminormal(self.diag + c, self.partner, self.off)

    def __matmul__(self, other):
        if isinstance(other, Seminormal):
            return _scatter(np.zeros(self.shape, complex), 1, [self, other])
        out = other[self.partner] * self.off[:, None]
        out += self.diag[:, None] * other
        return out

    def __rmatmul__(self, other):
        p = self.partner
        out = other[:, p] * self.off[p]
        out += other * self.diag
        return out

    def __array__(self, dtype=None, copy=None):
        rows = np.arange(len(self.diag))
        out = np.zeros(self.shape, complex)
        out[rows, rows] = self.diag
        paired = self.partner != rows
        out[rows[paired], self.partner[paired]] = self.off[paired]
        return out if dtype is None else out.astype(dtype)


def _expand(word):
    """A product of Seminormal factors as row terms: row r of the product
    is the sum over j of vals[r, j] at column cols[r, j].  Each factor
    doubles the terms (its diagonal and its partner entry), so a row has
    2^len(word) of them, repeated columns not yet summed."""
    cols, vals = word[0].terms
    for f in word[1:]:
        fcols, fvals = f.terms
        cols, vals = fcols[cols], vals[..., None] * fvals[cols]
    return cols.reshape(len(cols), -1), vals.reshape(len(cols), -1)


def _scatter(res, coef, word):
    """Add coef times the product of a Seminormal word into dense res."""
    cols, vals = _expand(word)
    np.add.at(res, (np.arange(len(cols))[:, None], cols), coef * vals)
    return res


@dataclass
class CalibratedModule:
    shape: object
    n: int
    basis: list
    gamma: list  # gamma[row][i-1] = value of res_i
    t0: Seminormal
    ts: list  # T_1 .. T_{n-1}, each Seminormal
    t0v: Seminormal
    tn: np.ndarray
    xs: list  # X_1 .. X_n, dense
    seed: NumericSeed

    @property
    def dim(self):
        return len(self.basis)

    def generators(self):
        """(name, matrix, quadratic parameter) for T_0 .. T_n and T_0v:
        the one generator table of the checks.  All but T_0v form the
        commuting chain, and each e_i is matrix - parameter * identity."""
        out = [("T0", self.t0, self.seed.q0)]
        out += [("T%d" % (i + 1), m, self.seed.q) for i, m in enumerate(self.ts)]
        out.append(("Tn", self.tn, self.seed.qn))
        out.append(("T0v", self.t0v, self.seed.qn))
        return out


def module_bytes(n):
    """Peak bytes of a calibrated check at level n, from tableau counts
    alone: 3n + 14 complex dim x dim arrays for the largest module, plus
    1 MiB for tableaux and reports.  The formula was fitted when the
    module stored 2n + 2 dense arrays (T_0 .. T_{n-1}, T_0v, T_n, X_1 ..
    X_n), the TL and blob checks held n + 2 idempotents and one
    relation's products and norm added at most 10; whole runs on the
    generic configuration peaked at 27.4, 29.0, 30.5, 33.2 and 36.1
    arrays at n = 5 .. 9 (tracemalloc).  It is kept as it was, so it
    over-counts the two idempotents now held and the n + 1 generators
    T_0 .. T_{n-1}, T_0v, which are Seminormal, O(dim) each.
    """
    dim = max(count_std(n, s) for s in shapes(n))
    return (3 * n + 14) * dim * dim * np.dtype(complex).itemsize + 2**20


def build_calibrated(cfg, n, shape, seed):
    """Assemble the generators on the standard tableaux basis.

    Every T_i, T_0 included, follows one seminormal rule (Ram,
    "Calibrated representations of affine Hecke algebras", 2004): the
    column of a tableau t has the diagonal entry a = num / denom read
    off t's residue values, and where s_i t is standard the pair
    {t, s_i t} carries the symmetric coefficient
    sqrt(-(a - p)(a + 1/p)), p the quadratic parameter of T_i.  On
    negated sets N, s_i (i >= 1) moves t to N ^ {i, i+1} exactly when
    one of i, i + 1 lies in N, and s_0 moves t to N ^ {1} when that set
    is in the basis.  So T_0 .. T_{n-1} are Seminormal: the diagonal,
    the partner s_i t and the pair coefficient.  T_0v = diag(X_1)(T_0 +
    1/q0 - q0) is the same pairing with its rows scaled.  T_n = W T_0v
    W^-1 (W = T_{n-1} .. T_1, T_i^-1 = T_i + 1/q - q) and X_{i+1} = T_i
    X_i T_i are dense: the X_i by Seminormal x dense products in
    O(dim^2), T_n by dense products of the densified T_i (see below).

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

    gens = []
    for i in (*range(1, n), 0):
        par = q if i else q0
        diag = np.empty(dim, dtype=complex)
        partner = np.arange(dim)
        off = np.zeros(dim, dtype=complex)
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
            diag[col] = a
            row = index.get(other)
            # evaluate the pair coefficient once, from the lower column:
            # both radicands agree analytically, but evaluating them
            # independently can pick opposite branches across the cut
            if row is not None and row > col:
                partner[col], partner[row] = row, col
                off[col] = off[row] = cmath.sqrt(-(a - par) * (a + 1 / par))
        gens.append(Seminormal(diag, partner, off))
    *ts, t0 = gens

    # T_0v has diagonal (Qn + Q0*g)/(1 - g^2) and off-diagonal
    # g*sqrt(-(b - qn)(b + 1/qn)), but the branch of that root is not
    # free: the product of the T_0v and T_0 pair coefficients is pinned
    # by X_1 = T_0v T_0 acting diagonally.  Deriving T_0v from the exact
    # diagonal of X_1 selects the coherent branch automatically (its
    # diagonal provably reduces to the closed form above).
    g1 = np.array([g[0] for g in gamma], dtype=complex)
    t0v = Seminormal(g1 * (t0.diag + (1 / q0 - q0)), t0.partner, g1 * t0.off)

    # T_n alone is built by dense BLAS products.  Seminormal products give
    # an equally accurate T_n (both within ~1e-15 relative of one built
    # in extended precision) but round differently, and relations on T_n
    # that sit at the rounding floor of the gate (generic n = 8, seeds
    # 114 and 207) change status with that rounding.
    eye = np.eye(dim, dtype=complex)
    tn = np.asarray(t0v)
    for mat in map(np.asarray, ts):  # T_1 first, T_{n-1} outermost
        tn = mat @ tn @ (mat + (1 / q - q) * eye)

    xs = [t0v @ t0]
    for mat in ts:
        xs.append(mat @ xs[-1] @ mat)

    return CalibratedModule(shape, n, basis, gamma, t0, ts, t0v, tn, xs, seed)


# -- relation reports ----------------------------------------------------

def _norm(mat, tol):
    """Spectral norm of mat, or an upper bound on it that is below tol.

    The Frobenius norm bounds the spectral norm from above, so a bound
    under tol decides the gate exactly as the spectral norm would; only
    residuals that may reach tol pay for the SVD.
    """
    bound = float(np.linalg.norm(mat))
    if bound < tol:
        return bound
    return float(np.linalg.norm(mat, 2))


def _shift(mat, c):
    """mat + c * identity, for a Seminormal or a dense matrix."""
    if isinstance(mat, Seminormal):
        return mat.shift(c)
    out = mat.copy()
    out.flat[::len(out) + 1] += c
    return out


def _residual(terms, tol):
    """Reported residual (as _norm) of sum(coef * product of word) over
    the (coef, word) terms, each word a list of factors.

    A word of Seminormal factors only is scattered into the dense
    residual, 2^k terms per row for k factors, without a product; any
    other word is multiplied out left to right, by the O(dim^2)
    products wherever one side is Seminormal.
    """
    dim = terms[0][1][0].shape[0]
    res = np.zeros((dim, dim), dtype=complex)
    for coef, word in terms:
        if all(isinstance(f, Seminormal) for f in word):
            _scatter(res, coef, word)
        else:
            res += coef * reduce(operator.matmul, word)
    return _norm(res, tol)


def _commutator(a, b):
    return [(1, [a, b]), (-1, [b, a])]


def _report(relations, tol):
    worst = max(relations.values()) if relations else 0.0
    return {
        "relations": relations,
        "max_residual": worst,
        "tol": tol,
        "pass": bool(worst < tol),
    }


def check_hecke_relations(m, tol=DEFAULT_TOL):
    """Quadratic, commuting, braid, and X-commutation residuals."""
    rel = {}
    gens = m.generators()
    for name, mat, par in gens:
        rel["quadratic %s" % name] = _residual(
            [(1, [_shift(mat, -par), _shift(mat, 1 / par)])], tol)

    *chain, (_, t0v, _) = gens  # T0, T1 .. T_{n-1}, Tn
    for i, (na, a, _) in enumerate(chain):
        for nb, b, _ in chain[i + 2:]:
            rel["commute %s %s" % (na, nb)] = _residual(_commutator(a, b), tol)
    for name, b, _ in chain[2:-1]:
        rel["commute T0v %s" % name] = _residual(_commutator(t0v, b), tol)

    for (na, a, _), (nb, b, _) in zip(chain[1:-2], chain[2:-1]):
        rel["braid3 %s %s" % (na, nb)] = _residual(
            [(1, [a, b, a]), (-1, [b, a, b])], tol)
    if m.ts:
        for (na, a, _), (nb, b, _) in ((chain[0], chain[1]), (chain[-1], chain[-2])):
            rel["braid4 %s %s" % (na, nb)] = _residual(
                [(1, [a, b, a, b]), (-1, [b, a, b, a])], tol)

    for i in range(m.n):
        for j in range(i + 1, m.n):
            rel["commute X%d X%d" % (i + 1, j + 1)] = _residual(
                _commutator(m.xs[i], m.xs[j]), tol)
    return _report(rel, tol)


def check_tl_relations(m, tol=DEFAULT_TOL):
    """Square and smash relations for the e generators, formed one at a
    time from generators() as in blob_check, e_0v last."""
    q, q0, qn = m.seed.q, m.seed.q0, m.seed.qn
    rel = {}
    for i, (name, mat, par) in enumerate(m.generators()):
        e = _shift(mat, -par)
        rel["square e%s" % ("0v" if name == "T0v" else i)] = _residual(
            [(1, [e, e]), (_bracket(par), [e])], tol)
        if i == 1 < m.n:
            rel["smash e1 e0 e1"] = _residual(
                [(1, [e, prev, e]), (-_bracket(q0 / q), [e])], tol)
        if 2 <= i < m.n:
            rel["tl e%d e%d e%d" % (i - 1, i, i - 1)] = _residual(
                [(1, [prev, e, prev]), (-1, [prev])], tol)
            rel["tl e%d e%d e%d" % (i, i - 1, i)] = _residual(
                [(1, [e, prev, e]), (-1, [e])], tol)
        if i == m.n >= 2:
            rel["smash e%d en e%d" % (i - 1, i - 1)] = _residual(
                [(1, [prev, e, prev]), (-_bracket(qn / q), [prev])], tol)
        prev = e
    kinds = ("square", "smash", "tl")    # the report order
    return _report(dict(sorted(
        rel.items(), key=lambda kv: kinds.index(kv[0].split()[0]))), tol)


def check_jm_spectrum(m, tol=DEFAULT_TOL):
    """X_i must be diagonal with the residue values on the diagonal."""
    rel = {}
    for i, x in enumerate(m.xs, start=1):
        expected = np.array([m.gamma[r][i - 1] for r in range(m.dim)])
        rel["X%d diagonal" % i] = float(np.max(np.abs(np.diag(x) - expected)))
        rel["X%d off-diagonal" % i] = _norm(x - np.diag(np.diag(x)), tol)
    return _report(rel, tol)


def blob_check(m, tol=DEFAULT_TOL):
    """Alternating-product relations: the zero shape carries the kappa
    relations, every other shape is annihilated by both products.  I0
    is the product of the even e_i, I1 of the odd e_i, i <= n."""
    words = [[], []]
    for i, (_, mat, par) in enumerate(m.generators()[:m.n + 1]):
        words[i % 2].append(_shift(mat, -par))
    rel = {}
    if m.shape.k == 0:
        i0, i1 = (reduce(operator.matmul, w) for w in words)
        th, q = m.seed.theta_value, m.seed.q
        if m.n % 2 == 0:
            kappa = _bracket(th / q) - _bracket(m.seed.alpha1 / q)
        else:
            kappa = _bracket(th) - _bracket(m.seed.alpha2)
        rel["I0 I1 I0 = kappa I0"] = _residual(
            [(1, [i0, i1, i0]), (-kappa, [i0])], tol)
        rel["I1 I0 I1 = kappa I1"] = _residual(
            [(1, [i1, i0, i1]), (-kappa, [i1])], tol)
    else:
        rel["I0 = 0"] = _residual([(1, words[0])], tol)
        rel["I1 = 0"] = _residual([(1, words[1])], tol)
    return _report(rel, tol)
