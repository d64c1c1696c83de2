"""One-row standard tableaux for the two-boundary setting.

A shape is a pair (k, marker): k boxes of "alternating part are gone",
i.e. n-k boxes to the left of the wall survive in pairs, and the marker
names which special point sits on the bead box.  The shapes for a given
n are (0, theta) together with (k, alpha) for k = n, n-2, ..., down to
1 or 2; k = 1 admits only alpha1 and k = 2 excludes alpha1_inv.

A standard tableau of shape (k, marker) is a filling of boxes 1..n by
+-1..+-n, strictly increasing left to right, whose negative entries all
sit strictly left of the bead box p = (n-k)/2 + 1.  For (0, theta) the
bead bound is waived and any number of entries may be negative.  Since
entries increase, the negative entries always form a prefix, so a
tableau is the same thing as the set of its negated values, bounded in
size by p-1 (not bounded for (0, theta)).

Residues: the content of box j is marker * q^(2(j-p)), and res_i(t) is
the content of the box holding +-i, inverted when the entry is negative.
They are computed one way only, off the tableau's walk, SE for +i and
SW for -i: its start (walk_start) and the residue each step reads
(step_residue) serve residue_seq, cstd and paths.walk_tables (and
through it decomp).  The box-content form is the test oracle
(``box_contents`` in tests/oracles.py).
"""

from __future__ import annotations

import math
import re
from itertools import combinations
from typing import NamedTuple

from .params import ALPHA_LABELS, Residue

__all__ = [
    "SHAPE_MARKERS",
    "Shape",
    "Tableau",
    "shapes",
    "is_valid_shape",
    "validate_shape",
    "bead",
    "max_negatives",
    "count_std",
    "from_negated_set",
    "negated_sets",
    "enumerate_std",
    "t_lambda",
    "is_standard",
    "residue_seq",
    "walk_start",
    "step_residue",
    "cstd",
    "shape_str",
    "parse_shape",
    "tableau_texts",
    "parse_tableau",
]

SHAPE_MARKERS = ALPHA_LABELS + ("theta",)


class Shape(NamedTuple):
    k: int
    marker: str


class Tableau(NamedTuple):
    shape: Shape
    entries: tuple

    def negated_set(self):
        return frozenset(-v for v in self.entries if v < 0)


def shapes(n):
    """All shapes for n boxes, largest first.

    Within equal k the markers come in the fixed order alpha1, alpha2,
    alpha1_inv, alpha2_inv; (0, theta) is always present and always
    last.
    """
    out = []
    k = n
    while k >= 1:
        for marker in _markers_for(k):
            out.append(Shape(k, marker))
        k -= 2
    out.append(Shape(0, "theta"))
    return out


def _markers_for(k):
    if k >= 3:
        return ALPHA_LABELS
    if k == 2:
        return ("alpha1", "alpha2", "alpha2_inv")
    return ("alpha1",)


def is_valid_shape(n, shape):
    k, marker = shape
    if k == 0:
        return marker == "theta" and n >= 0
    return (
        1 <= k <= n
        and (n - k) % 2 == 0
        and marker in _markers_for(k)
    )


def validate_shape(n, shape):
    if not is_valid_shape(n, shape):
        raise ValueError("%s is not a shape for n=%d" % (shape_str(shape), n))
    return shape


def bead(n, k):
    """Index of the bead box."""
    return (n - k) // 2 + 1


def max_negatives(n, shape):
    if shape.k == 0:
        return n
    return bead(n, shape.k) - 1


def count_std(n, shape):
    """Number of standard tableaux, by the binomial formula."""
    if shape.k == 0:
        return 2**n
    p = bead(n, shape.k)
    return sum(math.comb(n, j) for j in range(p))


def from_negated_set(n, shape, negs):
    negs = frozenset(negs)
    if len(negs) > max_negatives(n, shape):
        raise ValueError("too many negative entries for %s" % (shape_str(shape),))
    if not all(1 <= v <= n for v in negs):
        raise ValueError("negated values must lie in 1..n")
    return _tableau(n, shape, negs)


def _tableau(n, shape, negs):
    """The tableau with negated values negs (a set), unchecked."""
    entries = sorted(-v for v in negs) + sorted(set(range(1, n + 1)) - negs)
    return Tableau(shape, tuple(entries))


def negated_sets(n, shape):
    """Negated-value sets (ascending tuples) by size, then lexicographically:
    the one order in which every command lists tableaux."""
    for j in range(max_negatives(n, shape) + 1):
        yield from combinations(range(1, n + 1), j)


def enumerate_std(n, shape):
    """Yield all standard tableaux, in negated_sets order."""
    for negs in negated_sets(n, shape):
        yield from_negated_set(n, shape, negs)


def t_lambda(n, shape):
    """The distinguished tableau: negated values 2, 4, ..., 2(p - 1), p
    the bead box, so -2(p - 1), ..., -2 left of the bead, 1 on it, odd
    entries rightwards while boxes remain paired, then consecutive."""
    validate_shape(n, shape)
    return _tableau(n, shape, frozenset(range(2, 2 * bead(n, shape.k) - 1, 2)))


def is_standard(n, shape, entries):
    """Check a raw entry tuple (boxes left to right)."""
    if len(entries) != n:
        return False
    if sorted(abs(v) for v in entries) != list(range(1, n + 1)):
        return False
    if any(entries[i] >= entries[i + 1] for i in range(n - 1)):
        return False
    return sum(1 for v in entries if v < 0) <= max_negatives(n, shape)


def residue_seq(cfg, n, t):
    """res_1(t), ..., res_n(t), read off t's walk: from walk_start, step
    i is SE for +i and SW for -i and reads step_residue."""
    negs = t.negated_set()
    orbit, x = walk_start(cfg, n, t.shape, len(negs))
    out = []
    for step in range(1, n + 1):
        se = step not in negs
        out.append(step_residue(cfg, orbit, x, step, se))
        x += 1 if se else -1
    return tuple(out)


def _target_residues(cfg, n, target):
    if isinstance(target, Shape):
        return residue_seq(cfg, n, t_lambda(n, target))
    if isinstance(target, Tableau):
        return residue_seq(cfg, n, target)
    target = tuple(target)
    if len(target) != n or not all(isinstance(r, Residue) for r in target):
        raise ValueError("target must be a Shape, a Tableau, or n Residues")
    return target


def walk_start(cfg, n, shape, negs):
    """(orbit, x0) where a tableau of the shape with `negs` negative
    entries starts its walk: x0 = b - 1 - 2((n - k)/2 - negs), with
    (orbit, b) the raw site of the shape's marker."""
    orbit, b = cfg.point_site(shape.marker)
    return orbit, b - 1 - 2 * ((n - shape.k) // 2 - negs)


def step_residue(cfg, orbit, x, step, se):
    """Residue read by step `step` leaving x: (orbit, x + step) going
    SE, the inverse of (orbit, x - step) going SW."""
    if se:
        return cfg.residue(orbit, x + step)
    return cfg.residue(*cfg.invert_site(orbit, x - step))


def cstd(cfg, n, shape, target):
    """Standard tableaux of the given shape whose residue sequence
    matches the target (a Shape meaning res of its t_lambda, a Tableau,
    or an explicit residue sequence).

    Walks the path lattice from walk_start, once per admissible count
    of negative entries, taking only steps whose step_residue matches,
    so the search branches only where both SE and SW match.  No command
    runs it; it stays for the span perfbench/tracer.py names until
    ROADMAP item 4 drops it.
    """
    validate_shape(n, shape)
    R = _target_residues(cfg, n, target)
    found = []

    def go(j, x, sw, negs):
        if len(sw) > negs or len(sw) + (n - j) < negs:
            return
        if j == n:
            found.append(frozenset(sw))
            return
        step = j + 1
        if step_residue(cfg, orbit, x, step, True) == R[j]:
            go(step, x + 1, sw, negs)
        if step_residue(cfg, orbit, x, step, False) == R[j]:
            sw.append(step)
            go(step, x - 1, sw, negs)
            sw.pop()

    for negs in range(max_negatives(n, shape) + 1):
        orbit, x0 = walk_start(cfg, n, shape, negs)
        go(0, x0, [], negs)

    found.sort(key=lambda s: (len(s), sorted(s)))
    return [from_negated_set(n, shape, s) for s in found]


# -- text forms ----------------------------------------------------------

_SHAPE_RE = re.compile(r"^\((\d+),(alpha1|alpha2|alpha1_inv|alpha2_inv|theta)\)$")


def shape_str(shape):
    return "(%d,%s)" % (shape.k, shape.marker)


def parse_shape(text):
    m = _SHAPE_RE.match(text.strip())
    if not m:
        raise ValueError(
            'bad shape %r; expected "(k,marker)" with marker one of %s'
            % (text, ", ".join(SHAPE_MARKERS))
        )
    return Shape(int(m.group(1)), m.group(2))


def tableau_texts(n):
    """entries(negs): the "[entries]" part of the one text form
    "(k,marker):[entries]" of a tableau, from its negated values negs
    (ascending) and pieces for n.  It does not depend on the marker, so
    callers print shape_str(shape) + ":" before it."""
    neg = ["-%d" % v for v in range(n + 1)]
    pos = [str(v) for v in range(n + 1)]
    return lambda negs: "[%s]" % ",".join(
        [neg[v] for v in reversed(negs)]
        + [pos[v] for v in range(1, n + 1) if v not in negs])


def parse_tableau(text, n=None):
    head, sep, tail = text.strip().partition(":")
    if not sep:
        raise ValueError('bad tableau %r; expected "(k,marker):[entries]"' % text)
    shape = parse_shape(head)
    tail = tail.strip()
    if not (tail.startswith("[") and tail.endswith("]")):
        raise ValueError("bad entry list %r" % tail)
    body = tail[1:-1].strip()
    entries = tuple(int(v) for v in body.split(",")) if body else ()
    if n is None:
        n = len(entries)
    validate_shape(n, shape)
    if not is_standard(n, shape, entries):
        raise ValueError("%r is not standard for n=%d" % (text, n))
    return Tableau(shape, entries)
