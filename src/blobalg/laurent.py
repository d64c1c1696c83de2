"""Sparse Laurent polynomials in one variable v with integer coefficients.

A polynomial is a plain dict mapping exponent to nonzero integer
coefficient; the zero polynomial is the empty dict.  Functions never
mutate their arguments and never return dicts holding zero coefficients.

The bar involution sends v to v^-1.  Every f splits uniquely as
f = a + n with bar(a) = a and n supported in strictly positive
exponents; `bar_split` computes that pair.
"""

from __future__ import annotations

__all__ = [
    "normalized",
    "add",
    "sub",
    "neg",
    "mul",
    "bar",
    "is_bar_symmetric",
    "is_positive",
    "bar_split",
    "eval_one",
    "to_str",
    "to_json_obj",
    "from_json_obj",
]


def normalized(f):
    """Copy of f with zero coefficients dropped."""
    return {e: c for e, c in f.items() if c}


def add(f, g):
    h = dict(f)
    for e, c in g.items():
        c2 = h.get(e, 0) + c
        if c2:
            h[e] = c2
        else:
            h.pop(e, None)
    return h


def neg(f):
    return {e: -c for e, c in f.items()}


def sub(f, g):
    return add(f, neg(g))


def mul(f, g):
    h = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = e1 + e2
            c = h.get(e, 0) + c1 * c2
            if c:
                h[e] = c
            else:
                h.pop(e, None)
    return h


def bar(f):
    """The bar involution v -> v^-1.

    >>> bar({2: 3, 0: 1, -1: 4}) == {-2: 3, 0: 1, 1: 4}
    True
    """
    return {-e: c for e, c in f.items()}


def is_bar_symmetric(f):
    return f == bar(f)


def is_positive(f):
    """True when every exponent of f is at least 1."""
    return all(e >= 1 for e in f)


def bar_split(f):
    """Split f = a + n with bar(a) = a and n supported in exponents >= 1.

    The symmetric part is determined by the nonpositive exponents of f:
    a = f_0 + sum_{d>0} f_{-d} (v^d + v^-d).  The pair is unique.

    >>> a, n = bar_split({3: 1, 1: 2, -1: 1})
    >>> a == {1: 1, -1: 1} and n == {3: 1, 1: 1}
    True
    """
    a = {}
    if f.get(0):
        a[0] = f[0]
    for e, c in f.items():
        if e < 0:
            a[e] = c
            a[-e] = c
    return a, sub(f, a)


def eval_one(f):
    """Evaluate at v = 1."""
    return sum(f.values())


def _term(e, c):
    if e == 0:
        return str(c)
    head = "v" if e == 1 else "v^%d" % e
    if c == 1:
        return head
    if c == -1:
        return "-" + head
    return "%d*%s" % (c, head)


def to_str(f):
    """Human readable form, exponents descending.

    >>> to_str({4: 1, 0: -2, -1: 3})
    'v^4 - 2 + 3*v^-1'
    >>> to_str({})
    '0'
    """
    if not f:
        return "0"
    parts = [_term(e, f[e]) for e in sorted(f, reverse=True)]
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def to_json_obj(f):
    """JSON-ready dict with string exponents, sorted descending."""
    return {str(e): f[e] for e in sorted(f, reverse=True)}


def from_json_obj(obj):
    """Inverse of to_json_obj.  Strict about types, tolerant of zeros."""
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
    return normalized(f)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
