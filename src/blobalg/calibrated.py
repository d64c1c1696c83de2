"""Floating-point models of the calibrated modules.

A numeric seed fixes complex values for q, the boundary parameters q0
and qn, and a base value for every formal orbit, consistently with a
parameter configuration, and its six special points meet the standing
assumptions that validate_config checks (params.standing_violations).
Each shape then yields matrices acting on the standard tableaux of the
shape: T_0, T_1, ..., T_{n-1} by one seminormal rule, T_0v from X_1 =
T_0v T_0, T_n by conjugation and the commuting family X_1, ..., X_n
recursively.  The seed is non-generic
for a shape when one of its seminormal denominators falls below 1e-8.
Relation checkers report one residual per relation and the largest of
them per check, against a tolerance of their own (default 1e-8).

In a calibrated module each of T_0, ..., T_{n-1} and T_0v has a
diagonal and at most one off-diagonal entry per column, so they are
stored as ``Seminormal`` (diagonal, partner index, off-diagonal
coefficient), O(dim) each; T_n is a dense array, and of each X_1,
..., X_n, diagonal up to rounding, only the diagonal and the Frobenius
norm of the off-diagonal part are kept.  Seminormal defines no
operators: a product with a Seminormal factor is one of three kernels,
never a dense matmul.  _lmul and _rmul gather and scale the rows or
columns of an array they own in O(dim^2), in place, a strip at a time,
and _scatter adds a word of Seminormal factors into a dense array.
A relation's residual is summed into one dense array: a word of k
Seminormal factors is scattered into it term by term, at most 2^k
terms per row; any other word is evaluated by _product, outward from
its dense factor (T_n, or e_n = T_n - qn kept unformed), so only a
second dense factor costs a dense x dense product.  A word with factors
on one side of its dense factor is added a strip at a time, and any
other product is added in and freed before the next term.  The blob
idempotents I0 and I1 stay words of e-factors, braid4 Tn T{n-1} forms
Tn T{n-1} Tn once, and square e_i is the value of quadratic T_i, the
same matrix.  A commutator [X_i, X_j] is first bounded in O(1) from
those kept numbers; only where that bound reaches the tolerance are the
two X's rebuilt and the commutator formed.  Beside T_n a relation holds
at most two dense arrays (three for a rebuilt X commutator), which
module_bytes counts.

A reported residual is an upper bound on the spectral norm of the
residual matrix, exact whenever it is at or above the tolerance: the
Frobenius norm (or, for the X_i commutators, the bound above) is
reported when it is already below the tolerance, and the spectral norm
(an SVD of the dense residual) only otherwise.  Since both bound the
spectral norm from above, every pass/fail decision is the one the
spectral norm alone would give, and the relation that
``calibrated-check --format json`` names as ``worst_relation`` is the
one with the largest reported value.

Everything here is double precision on purpose: the relations are
polynomial identities and a generic seed keeps every denominator well
conditioned, so residuals land many orders of magnitude below the
default tolerance of 1e-8.
"""

from __future__ import annotations

import cmath
import math
import random
from contextlib import contextmanager
from functools import cached_property
from itertools import islice
from typing import NamedTuple

import numpy as np

from .params import (DEFAULT_TOL, INTEGRAL_ORBIT, MARKER_LABELS, res_to_complex,
                     standing_violations)
from .tableaux import Shape, count_std, enumerate_std, residue_seq

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


# Size budget of one calibrated check (see module_bytes): 385 MiB at
# n = 11 fits, 1537 MiB at n = 12 does not.
MAX_MODULE_BYTES = 512 * 2**20


class NonGenericSeedError(ValueError):
    pass


class NumericSeed(NamedTuple):
    q: complex
    q0: complex
    qn: complex
    orbit_bases: dict
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


def _separated(cfg, seed):
    """Whether the seed meets the standing assumptions of
    params.standing_violations on the values of the six special points,
    with points within _MARGIN of each other, or of +-1, counted as
    equal.

    Paired orbit bases must additionally keep their squares away from
    small q-powers: a near miss there puts a tableau denominator close
    to zero and inflates every residual downstream.
    """
    q = seed.q
    points = {label: residue_value(cfg, seed, cfg.point_residue(label))
              for label in MARKER_LABELS}
    if standing_violations(points, lambda z, k: z * q**k,
                           lambda z, w: abs(z - w) < _MARGIN,
                           lambda z: abs(z - 1) < _MARGIN or abs(z + 1) < _MARGIN):
        return False
    return not any(abs(z * z - q**j) < _DENOM_MARGIN
                   for orbit, z in seed.orbit_bases.items()
                   if cfg.invert_site(orbit, 0)[0] != orbit  # a paired orbit
                   for j in range(-32, 33))


def _pinned(cfg, bases, orbit, exp, q, rng):
    """Value of the point (orbit, exp) when the configuration pins it,
    else None (a paired orbit's base is free).

    The integral base is 1.  A self-inverse orbit's base b must satisfy
    b^2 q^center = 1 (res_to_complex), so it is pinned to +-q^-c, 2c the
    center invert_site reflects through; its sign is drawn here, once
    per orbit, and the base is recorded in bases.
    """
    if orbit == INTEGRAL_ORBIT:
        return q**exp
    partner, center = cfg.invert_site(orbit, 0)
    if partner != orbit:
        return None
    if orbit not in bases:
        bases[orbit] = rng.choice((1, -1)) * q ** -(center // 2)
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
        elif o2 == cfg.invert_site(o1, 0)[0]:
            # partner orbits: alpha1*alpha2 = -q0^2 does not involve the
            # free base
            q0 = sign * cmath.sqrt(-(q**c1) * q**c2)
            qn = _sample_annulus(rng)
            bases[o1] = q0 * qn * q**-c1
        else:
            q0, qn = _sample_annulus(rng), _sample_annulus(rng)
            bases[o1] = q0 * qn * q**-c1
            bases[o2] = -q0 / qn * q**-c2
        if ot != INTEGRAL_ORBIT and ot not in bases:
            if _pinned(cfg, bases, ot, ct, q, rng) is None:
                bases[ot] = _sample_annulus(rng)
        for orbit in list(bases):
            partner = cfg.invert_site(orbit, 0)[0]
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


class Seminormal:
    """A dim x dim matrix with at most one off-diagonal entry per row and
    per column: M[r, r] = diag[r] and M[r, partner[r]] = off[r].

    partner is an involution and off is 0 on the rows it fixes (the rows
    with no partner), so column c holds diag[c] and, at row partner[c],
    off[partner[c]].  T_0 .. T_{n-1} are symmetric (off[r] =
    off[partner[r]]); T_0v, a row scaling of T_0, is not.

    The class defines no operators: its products are the in-place
    kernels _lmul (s @ x) and _rmul (x @ s), which gather and scale the
    rows or columns of a dense array in O(dim^2), and _scatter, which
    adds a word of Seminormal factors into one.  Only np.asarray forms
    the dense matrix itself.  It compares by identity.
    """

    __array_ufunc__ = None  # so any @ with an ndarray raises TypeError

    def __init__(self, diag, partner, off):
        self.diag, self.partner, self.off = diag, partner, off

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


def _scatter(word, res=None, coef=1):
    """Add coef times the product of a Seminormal word into dense res, or
    into zeros when res is None.

    All the terms of _expand go in by one unbuffered np.add.at, which
    visits them row by row and, within a row, in term-column order; so
    an entry receives its terms in column order, repeated columns
    included, and the sum is the same, bit for bit, as one fancy-index
    += per term column (each column is a permutation of the rows)."""
    cols, vals = _expand(word)
    if res is None:
        res = np.zeros((len(cols),) * 2, complex)
    np.add.at(res, (np.arange(len(cols))[:, None], cols), coef * vals)
    return res


def _strips(size):
    """Slices covering range(size), each of at least 64 and about size /
    8: the unit of every in-place product, whose temporaries are then an
    eighth of the array."""
    step = max(64, -(-size // 8))
    return [slice(k, k + step) for k in range(0, size, step)]


def _lmul(s, x):
    """x <- s @ x in place for a Seminormal s, one strip of columns at a
    time: each row becomes diag * row + off * partner row."""
    diag, off = s.diag[:, None], s.off[:, None]
    for c in _strips(x.shape[1]):
        g = np.take(x[:, c], s.partner, axis=0)
        g *= off
        np.multiply(diag, x[:, c], out=x[:, c])
        x[:, c] += g
    return x


class _Shifted(NamedTuple):
    """mat + c * identity for a dense mat, never formed: a word that
    starts at it copies mat and shifts the copy, and a product that reads
    it shifts mat's own diagonal for its duration (_diagonal)."""
    mat: np.ndarray
    c: complex


@contextmanager
def _diagonal(mat, diag):
    """mat with diag on its diagonal for the duration; the old diagonal
    is put back from a copy, bit for bit."""
    saved = mat.diagonal().copy()
    mat.flat[::len(mat) + 1] = diag
    try:
        yield mat
    finally:
        mat.flat[::len(mat) + 1] = saved


def _rmul(x, f):
    """x <- x @ f in place for a Seminormal f, one strip of rows at a
    time (each column becomes diag * column + off * partner column), or
    for a dense f, plain or _Shifted, that is not x, by one product:
    callers pass a strip of rows (_product)."""
    if isinstance(f, Seminormal):
        off = f.off[f.partner]
        for r in _strips(len(x)):
            g = np.take(x[r], f.partner, axis=1)
            g *= off
            x[r] *= f.diag
            x[r] += g
        return x
    if isinstance(f, _Shifted):
        with _diagonal(f.mat, f.mat.diagonal() + f.c):
            x[...] = x @ f.mat
    else:
        x[...] = x @ f
    return x


def _product(word, res=None, coef=1):
    """Add coef times a word with a dense factor into res, or return it
    as a new array when res is None.

    The word is multiplied outward from its first dense factor D, plain
    or _Shifted, on a shifted copy of D: the Seminormal factors to D's
    left are applied right to left as row gathers (_lmul), the rest left
    to right (_rmul), all in place.  When res is given and D has factors
    on one side only, one strip of D is copied at a time, columns for a
    left side and rows for a right side, and each is added into res, so
    the product is never held whole; otherwise D is copied whole.  Only
    a second dense factor costs a dense x dense product, one per strip
    of _strips(dim) rows either way, since a product over another row
    count may round differently.
    """
    k = next(i for i, f in enumerate(word) if not isinstance(f, Seminormal))
    mat, c = word[k] if isinstance(word[k], _Shifted) else (word[k], 0)
    left, right = word[:k], word[k + 1:]
    whole = res is None or left and right
    for s in [slice(None)] if whole else _strips(len(mat)):
        win = (s, slice(None)) if right else (slice(None), s)
        part = mat[win].copy()
        if c:  # D's diagonal entries within the strip
            block = part[:, s] if right else part[s]
            block.flat[::len(block) + 1] += c
        for f in reversed(left):
            _lmul(f, part)
        for r in _strips(len(part)) if whole else [slice(None)]:
            for f in right:
                _rmul(part[r], f)
        if coef != 1:
            part *= coef
        if res is None:
            return part
        res[win] += part
    return res


class CalibratedModule(NamedTuple):
    shape: object
    n: int
    basis: list
    gamma: list  # gamma[row][i-1] = value of res_i
    t0: Seminormal
    ts: list  # T_1 .. T_{n-1}, each Seminormal
    t0v: Seminormal
    tn: np.ndarray
    xs: list  # diagonals of X_1 .. X_n
    x_off: list  # Frobenius norms of X_1 .. X_n off their diagonals
    seed: NumericSeed
    # reported residuals of (T - p)(T + 1/p) by (generator name, tol):
    # quadratic T and square e (e = T - p) read the one evaluation.  A
    # _replace of any generator must pass a fresh dict, or the new module
    # reads the values of the old generators.
    quadratics: dict

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
    alone: 6 complex dim x dim arrays for the largest module, plus 1 MiB
    for tableaux and reports.  A module holds one dense array, T_n, and
    a relation at most two more (three while an X commutator is rebuilt:
    the copy of X_i, the chain's X_j and the residual), plus strips of
    an eighth.  Whole runs of generic seed 1 peaked at 5.2, 4.0, 3.5, 3.4
    and 3.3 arrays at n = 7 .. 11 (tracemalloc, tol 1e-8), and at 6.1,
    5.0, 4.5 and 4.4 at n = 7 .. 10 with tol 1e-300, which sends every
    relation to the SVD and rebuilds every X_i; at n = 7 most of that
    is the 1 MiB.  One array more is the SVD's copy of its input, which
    tracemalloc does not see, and the rest is margin.
    """
    dim = count_std(n, Shape(0, "theta"))  # 2^n, the largest module
    return 6 * dim * dim * np.dtype(complex).itemsize + 2**20


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
    X_i T_i (_x_chain) are dense, both formed by Seminormal x dense
    products in O(dim^2) each, O(n dim^2) in all.  T_n is kept; of each
    X_i only its diagonal and the Frobenius norm of its off-diagonal
    part are, which is what the checks read.  A check that needs a
    dense X_i rebuilds it from the same chain, bit for bit.

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

    tn = np.asarray(t0v)  # n = 1: T_n is T_0v itself
    for mat in ts:  # T_1 first, T_{n-1} outermost
        _rmul(_lmul(mat, tn), mat.shift(1 / q - q))

    xs, x_off = [], []
    for x in _x_chain(t0v, t0, ts):
        xs.append(x.diagonal().copy())
        with _diagonal(x, 0):
            x_off.append(float(np.linalg.norm(x)))
    return CalibratedModule(shape, n, basis, gamma, t0, ts, t0v, tn, xs,
                            x_off, seed, {})


def _x_chain(t0v, t0, ts):
    """X_1 = T_0v T_0, X_{i+1} = T_i X_i T_i: the build and every rebuild.

    The chain holds one array: each X_{i+1} overwrites X_i in place, so
    a caller that keeps an X_i past the next step copies it."""
    x = _scatter([t0v, t0])
    yield x
    for mat in ts:
        yield _rmul(_lmul(mat, x), mat)


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
    """mat + c * identity: a Seminormal, or a dense mat kept unformed."""
    if isinstance(mat, Seminormal):
        return mat.shift(c)
    return _Shifted(mat, c)


def _residual(terms, tol):
    """Reported residual (as _norm) of sum(coef * product of word) over
    the (coef, word) terms, each word a list of factors: Seminormal,
    dense, or dense _Shifted.

    A word of Seminormal factors only is scattered into the dense
    residual, 2^k terms per row for k factors, without a product
    (_scatter).  Any other word is multiplied out by _product, outward
    from its first dense factor; the residual is the first term's value.
    A later word with factors on one side of its dense factor is added
    a strip at a time, and any other is multiplied out whole and added
    in.  So a relation holds, besides its operands, the residual and at
    most one product, each freed before the next term.
    """
    res = None
    for coef, word in terms:
        res = (_scatter if all(isinstance(f, Seminormal) for f in word)
               else _product)(word, res, coef)
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


def _quadratic(m, name, mat, par, tol):
    """Reported residual of (T - p)(T + 1/p) for the generator T = mat,
    p = par: quadratic T, and square e for e = T - p, since e^2 + [p] e
    is the same matrix.  It is evaluated once per module and tol."""
    key = name, tol
    if key not in m.quadratics:
        m.quadratics[key] = _residual(
            [(1, [_shift(mat, -par), _shift(mat, 1 / par)])], tol)
    return m.quadratics[key]


def check_hecke_relations(m, tol=DEFAULT_TOL):
    """Quadratic, commuting, braid, and X-commutation residuals; an
    X-commutation value below tol is the bound of _x_commutators.
    braid4 Tn T{n-1} is the commutator of T{n-1} with Tn T{n-1} Tn,
    whose dense x dense product is formed once."""
    rel = {}
    gens = m.generators()
    for name, mat, par in gens:
        rel["quadratic %s" % name] = _quadratic(m, name, mat, par, tol)

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
        (na, a, _), (nb, b, _) = chain[0], chain[1]
        rel["braid4 %s %s" % (na, nb)] = _residual(
            [(1, [a, b, a, b]), (-1, [b, a, b, a])], tol)
        (na, a, _), (nb, b, _) = chain[-1], chain[-2]
        rel["braid4 %s %s" % (na, nb)] = _residual(
            _commutator(_product([a, b, a]), b), tol)

    rel.update(_x_commutators(m, tol))
    return _report(rel, tol)


def _x_commutators(m, tol):
    """Reported residuals of [X_i, X_j], i < j, read from the stored
    diagonals d and the Frobenius norms e of the off-diagonal parts E.

    With X = D + E, D = diag(d), [X_i, X_j] = G_i * E_j - G_j * E_i +
    [E_i, E_j], where G[r, c] = d[r] - d[c] and * is the entrywise
    product.  |G_i[r, c]| <= 2 max|d_i|, so the spectral norm is at most
    2 max|d_i| e_j + 2 max|d_j| e_i + 2 e_i e_j, in O(1).  Where that
    reaches tol, the commutator is formed from X_i and X_j rebuilt from
    the chain and reported as _residual does: one walk per such i, which
    holds a copy of X_i and the current X_j, O(n dim^2) each.
    """
    peaks = [float(np.max(np.abs(d))) for d in m.xs]
    rel = {}
    for i in range(m.n):
        far = i  # the last j whose bound reaches tol
        for j in range(i + 1, m.n):
            ei, ej = m.x_off[i], m.x_off[j]
            rel[i, j] = 2 * peaks[i] * ej + 2 * peaks[j] * ei + 2 * ei * ej
            if rel[i, j] >= tol:
                far = j
        if far > i:
            chain = _x_chain(m.t0v, m.t0, m.ts)
            a = next(islice(chain, i, None)).copy()
            for j, b in enumerate(islice(chain, far - i), start=i + 1):
                if rel[i, j] >= tol:
                    rel[i, j] = _residual(_commutator(a, b), tol)
            del a, b, chain  # before the next walk holds its own
    return {"commute X%d X%d" % (i + 1, j + 1): value
            for (i, j), value in rel.items()}


def check_tl_relations(m, tol=DEFAULT_TOL):
    """Square and smash relations for the e generators, formed one at a
    time from generators() as in blob_check, e_0v last.  square e_i is
    the value of quadratic T_i (_quadratic)."""
    q, q0, qn = m.seed.q, m.seed.q0, m.seed.qn
    rel = {}
    for i, (name, mat, par) in enumerate(m.generators()):
        e = _shift(mat, -par)
        rel["square e%s" % ("0v" if name == "T0v" else i)] = _quadratic(
            m, name, mat, par, tol)
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
    """X_i must be diagonal with the residue values on the diagonal; an
    off-diagonal norm at or above tol is taken again on the rebuilt X_i,
    all of them from one walk of the chain."""
    rel = {}
    for i, (d, off) in enumerate(zip(m.xs, m.x_off), start=1):
        expected = np.array([m.gamma[r][i - 1] for r in range(m.dim)])
        rel["X%d diagonal" % i] = float(np.max(np.abs(d - expected)))
        rel["X%d off-diagonal" % i] = off
    far = max((i for i, off in enumerate(m.x_off) if off >= tol), default=-1)
    chain = islice(_x_chain(m.t0v, m.t0, m.ts), far + 1)
    for i, x in enumerate(chain, start=1):
        if m.x_off[i - 1] >= tol:
            with _diagonal(x, 0):
                rel["X%d off-diagonal" % i] = _norm(x, tol)
    return _report(rel, tol)


def blob_check(m, tol=DEFAULT_TOL):
    """Alternating-product relations: the zero shape carries the kappa
    relations, every other shape is annihilated by both products.  I0
    is the product of the even e_i, I1 of the odd e_i, i <= n.

    Both stay words of e-factors, so _residual gathers them outward from
    e_n: of I0 I1 I0 and I1 I0 I1, the one with e_n twice forms one dense
    x dense product, the other none, and I0, I1 alone none."""
    i0, i1 = [], []
    for i, (_, mat, par) in enumerate(m.generators()[:m.n + 1]):
        (i1 if i % 2 else i0).append(_shift(mat, -par))
    rel = {}
    if m.shape.k == 0:
        th, q = m.seed.theta_value, m.seed.q
        if m.n % 2 == 0:
            kappa = _bracket(th / q) - _bracket(m.seed.alpha1 / q)
        else:
            kappa = _bracket(th) - _bracket(m.seed.alpha2)
        rel["I0 I1 I0 = kappa I0"] = _residual(
            [(1, i0 + i1 + i0), (-kappa, i0)], tol)
        rel["I1 I0 I1 = kappa I1"] = _residual(
            [(1, i1 + i0 + i1), (-kappa, i1)], tol)
    else:
        rel["I0 = 0"] = _residual([(1, i0)], tol)
        rel["I1 = 0"] = _residual([(1, i1)], tol)
    return _report(rel, tol)
