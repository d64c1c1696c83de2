"""The structured seminormal generators against dense numpy, and the
calibrated modules and checks against the dense oracle."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import blobalg.calibrated as calibrated
from blobalg.calibrated import (
    NonGenericSeedError,
    Seminormal,
    blob_check,
    build_calibrated,
    check_hecke_relations,
    check_jm_spectrum,
    check_tl_relations,
    make_seed,
)
from blobalg.params import Formal, Integral, Paired, ParamConfig, SelfInverse
from blobalg.tableaux import Shape, shapes

from conftest import CONFIG_FACTORIES, valid_configs
from oracles import (
    blob_check_dense,
    build_calibrated_dense,
    check_hecke_relations_dense,
    check_jm_spectrum_dense,
    check_tl_relations_dense,
    dense_products,
    dense_xs,
    upcast_module,
)

CHECKS = (
    ("hecke", check_hecke_relations, check_hecke_relations_dense),
    ("tl", check_tl_relations, check_tl_relations_dense),
    ("jm", check_jm_spectrum, check_jm_spectrum_dense),
    ("blob", blob_check, blob_check_dense),
)


def _close(got, want, rel):
    got = np.asarray(got)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= rel * np.max(np.abs(want), initial=0.0)


def _no_array(self, *args, **kwargs):
    raise AssertionError("Seminormal densified")


# -- the structured type -------------------------------------------------


def _random_seminormal(rng, dim, symmetric):
    """Random diagonal and pairing; about a third of the rows unpaired.
    Without symmetric the two entries of a pair are independent, as in
    the row-scaled T_0v."""
    def cplx(size):
        return rng.standard_normal(size) + 1j * rng.standard_normal(size)

    partner = np.arange(dim)
    order = rng.permutation(dim)
    pairs = dim // 3
    a, b = order[:pairs], order[pairs:2 * pairs]
    partner[a], partner[b] = b, a
    off = cplx(dim)
    off[partner == np.arange(dim)] = 0
    if symmetric:
        off[b] = off[a]
    return Seminormal(cplx(dim), partner, off)


def _dense(rng, dim):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


@pytest.mark.parametrize("dim", [1, 2, 7, 33])
@pytest.mark.parametrize("symmetric", [True, False])
def test_seminormal_products_match_dense(dim, symmetric, monkeypatch):
    rng = np.random.default_rng(dim)
    s = _random_seminormal(rng, dim, symmetric)
    t = _random_seminormal(rng, dim, not symmetric)
    d = _dense(rng, dim)
    ds, dt = np.asarray(s), np.asarray(t)
    assert np.count_nonzero(ds - np.diag(np.diag(ds))) == np.count_nonzero(s.off)
    assert s.shape == (dim, dim)
    assert s.nbytes == s.diag.nbytes + s.partner.nbytes + s.off.nbytes
    # the products are the in-place kernels; the class has no operators,
    # so @ raises rather than densifying a Seminormal
    coef = 0.5 - 2j
    want = {"s@d": ds @ d, "d@s": d @ ds, "d+c*s@t": d + coef * (ds @ dt),
            "shift": ds + coef * np.eye(dim)}
    monkeypatch.setattr(Seminormal, "__array__", _no_array)
    x, y, z = d.copy(), d.copy(), d.copy()
    got = {"s@d": calibrated._lmul(s, x), "d@s": calibrated._rmul(y, s),
           "d+c*s@t": calibrated._scatter([s, t], z, coef),
           "shift": s.shift(coef)}
    for a, b in ((s, d), (d, s), (s, t)):
        with pytest.raises(TypeError):
            a @ b
    monkeypatch.undo()
    assert got["s@d"] is x and got["d@s"] is y and got["d+c*s@t"] is z
    assert isinstance(got["shift"], Seminormal)
    for key in want:
        _close(got[key], want[key], 1e-13)


@pytest.mark.parametrize("dim", [200, 1024])
def test_strips_add_the_whole_product_to_the_bit(dim):
    # Given res, a word with factors on one side of its dense factor is
    # added a strip at a time (columns for a left side, rows for a right
    # side); the sum is the whole product's, bit for bit, and so is a
    # dense x dense product, which is one BLAS call per strip of rows
    # either way.
    rng = np.random.default_rng(dim)
    d, e, r = _dense(rng, dim), _dense(rng, dim), _dense(rng, dim)
    words = [[d, e]]
    if dim < 1024:
        s, t = _random_seminormal(rng, dim, True), _random_seminormal(rng, dim, False)
        words += [[s, t, calibrated._Shifted(d, 0.3 - 1.1j)],
                  [d, s, t], [calibrated._Shifted(e, 2j), t, s]]
    assert len(calibrated._strips(dim)) > 2
    coef = 0.5 - 2j
    for w in words:
        assert np.array_equal(calibrated._product(w, r.copy(), coef),
                              r + calibrated._product(w, None, coef))


@pytest.mark.parametrize("dim", [1, 5, 24])
def test_residual_matches_dense_norms(dim, monkeypatch):
    rng = np.random.default_rng(100 + dim)
    gens = [_random_seminormal(rng, dim, k % 2 == 0) for k in range(4)]
    d = _dense(rng, dim)
    a, b, c, v = gens
    cases = [
        [(1, [a])],
        [(1, [a, b]), (-1, [b, a])],
        [(1, [a, b, a]), (-1, [b, a, b]), (0.3j, [c])],
        [(1, [a, b, c, v]), (-2.5, [v, c, b, a]), (1, [v, v])],
        [(1, [d, a]), (-1, [a, d])],                # any dense factor
        [(1, [a, b, d, c]), (0.7, [a, v]), (-1, [d])],
    ]
    wants = []
    for terms in cases:
        words = [[np.asarray(f) for f in word] for _, word in terms]
        res = sum(coef * np.linalg.multi_dot(word + [np.eye(dim)])
                  for (coef, _), word in zip(terms, words))
        # the size of the terms, for residuals that cancel to ~0
        scale = sum(abs(coef) * math.prod(np.linalg.norm(f) for f in word)
                    for (coef, _), word in zip(terms, words))
        wants.append((np.linalg.norm(res), np.linalg.norm(res, 2), scale))
    monkeypatch.setattr(Seminormal, "__array__", _no_array)
    for terms, (frobenius, spectral, scale) in zip(cases, wants):
        # tol = inf keeps the Frobenius bound, tol = 0 takes the spectral norm
        for tol, want in ((math.inf, frobenius), (0.0, spectral)):
            assert math.isclose(calibrated._residual(terms, tol), want,
                                rel_tol=1e-13, abs_tol=1e-13 * scale)


def test_checks_never_densify(cfg_generic, monkeypatch):
    seed = make_seed(cfg_generic, 1)
    modules = [build_calibrated(cfg_generic, n, sh, seed)
               for n in range(1, 7) for sh in shapes(n)]
    monkeypatch.setattr(Seminormal, "__array__", _no_array)
    for m in modules:
        for _, check, _ in CHECKS:
            check(m)
    # every relation through the dense fallback densifies nothing either
    for m in modules[:20]:
        for _, check, _ in CHECKS:
            check(m, tol=0.0)


# -- differential tests against the dense oracle ---------------------------


def _structured_only(check, name, n):
    """Whether every factor of the relation is Seminormal: no T_n, e_n,
    X_i or blob product."""
    tokens = set(name.split())
    return (check in ("hecke", "tl")
            and not tokens & {"Tn", "en", "e%d" % n}
            and not any(t.startswith("X") for t in tokens))


def _built(build, cfg, n, sh, seed):
    try:
        return build(cfg, n, sh, seed)
    except ValueError as exc:  # NonGenericSeedError among them
        return "%s: %s" % (type(exc).__name__, exc)


def _compare(cfg, n, seed, noise_floor=math.inf):
    """Modules and reports of every shape against the dense oracle.

    A module whose oracle residuals reach noise_floor sits at the
    rounding floor: generators of norm up to 6e3 amplify rounding, so
    there T_0v, T_n and X_i are compared within 1e-9 relative instead
    of 1e-11, and residuals are not compared.  There T_n and X_i are
    compared with the oracle's dense products of the module's own T_0v,
    T_0 .. T_{n-1} formed in extended precision: a rounding-level change
    of T_0v can move X_5 by 1e-9 relative, so two double builds may
    differ by more (1.75e-9 on the explicit example below, where the
    structured X_5 is 5.7e-10 from the extended product).
    Pass flags are compared for every check whose reference
    max_residual lies outside [tol/4, 4 tol]; inside that band two
    evaluation orders of one relation may round to opposite sides of
    the gate (1.87e-8 against 1.31e-8 on one random configuration).
    The reference is the oracle report, except at the rounding floor:
    there it is the dense checkers run on the module's own generators
    in extended precision (upcast_module), since the double oracle can
    be further from the exact residual of those generators than the
    band allows (5.69e-8 against 1.14e-8 for I0 I1 I0 = kappa I0 on the
    self-inverse example of the random test, where the module reads
    6.49e-9).
    The module's X_i are its own rebuild (dense_xs), and what it keeps
    of them, diagonals and off-diagonal norms, must be theirs to the bit.
    """
    for sh in shapes(n):
        m = _built(build_calibrated, cfg, n, sh, seed)
        d = _built(build_calibrated_dense, cfg, n, sh, seed)
        if isinstance(d, str):
            assert m == d
            continue
        reports = [(kind, check(m), oracle(d)) for kind, check, oracle in CHECKS]
        noisy = max(want["max_residual"] for _, _, want in reports) >= noise_floor
        for got, want in zip([m.t0] + m.ts, [d.t0] + d.ts):
            assert np.asarray(got).tobytes() == want.tobytes()
        products = [d.t0v, d.tn] + dense_xs(d)
        if noisy:
            tn, xs = dense_products(m.t0v, m.t0, m.ts, seed.q, np.clongdouble)
            products = [d.t0v, tn] + xs
        xs = dense_xs(m)
        for got, want in zip([m.t0v, m.tn] + xs, products):
            _close(got, want, 1e-9 if noisy else 1e-11)
        # what the module keeps of each X_i is what its rebuild gives
        assert [x.diagonal().tobytes() for x in xs] == [x.tobytes() for x in m.xs]
        assert m.x_off == [float(np.linalg.norm(x - np.diag(np.diag(x))))
                           for x in xs]
        refs = [want for _, _, want in reports]
        if noisy:
            exact = upcast_module(m)
            refs = [oracle(exact) for _, _, oracle in CHECKS]
        for (kind, got, want), ref in zip(reports, refs):
            assert list(got["relations"]) == list(want["relations"])
            tol = ref["tol"]
            if not tol / 4 <= ref["max_residual"] <= 4 * tol:
                assert got["pass"] == ref["pass"], (n, sh, kind)
            if noisy:
                continue
            for name, value in got["relations"].items():
                slack = 1e-12 if _structured_only(kind, name, n) else 1e-9
                assert abs(value - want["relations"][name]) <= slack, (n, sh, name)


@pytest.mark.parametrize("cfg_name", sorted(CONFIG_FACTORIES))
def test_shipped_configs_match_dense_oracle(cfg_name):
    cfg = CONFIG_FACTORIES[cfg_name]()
    for s in range(3):
        seed = make_seed(cfg, s)
        for n in range(1, 8):
            _compare(cfg, n, seed)


@settings(max_examples=25, deadline=None)
@given(valid_configs(), st.integers(min_value=0, max_value=2))
@example(ParamConfig(e=None,
                     points={"alpha1": Formal(orbit="A", offset=0),
                             "alpha2": Integral(exp=4),
                             "theta": Integral(exp=17)},
                     inversions={"A": Paired(partner="A*"),
                                 "A*": Paired(partner="A")}), 0)
@example(ParamConfig(e=None,
                     points={"alpha1": Formal(orbit="B", offset=10),
                             "alpha2": Formal(orbit="A*", offset=0),
                             "theta": Integral(exp=6)},
                     inversions={"A": Paired(partner="A*"),
                                 "B": SelfInverse(center=-10),
                                 "A*": Paired(partner="A")}), 1)
def test_random_configs_match_dense_oracle(cfg, s):
    try:
        seed = make_seed(cfg, s)
    except NonGenericSeedError:
        return
    # random configurations reach residuals near 1e-8 from rounding alone
    for n in range(1, 6):
        _compare(cfg, n, seed, noise_floor=1e-10)


# -- dense products: none twice, none where a word avoids one ----------------


class _CountedTn(np.ndarray):
    """T_n as an ndarray subclass that tallies its dense x dense products:
    every array a word forms from T_n stays of this class, so each
    np.matmul between two of them adds the rows x columns of its result,
    in units of dim^2 (a product formed a strip at a time adds up to 1)."""

    area = 0.0

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        if ufunc is np.matmul:
            a, b = inputs
            _CountedTn.area += a.shape[0] * b.shape[1] / len(b) ** 2
        plain = [x.view(np.ndarray) if isinstance(x, _CountedTn) else x
                 for x in inputs]
        if out is not None:
            getattr(ufunc, method)(*plain, out=tuple(
                o.view(np.ndarray) for o in out), **kwargs)
            return out[0]
        result = getattr(ufunc, method)(*plain, **kwargs)
        return result.view(_CountedTn) if isinstance(result, np.ndarray) else result


def _dense_products(m, check, monkeypatch):
    """The report of one check on m with T_n counted, the dense x dense
    products formed for each reported residual (those since the one
    before it: every residual ends in one _norm), and those formed
    after the last.  The counted module shares m's quadratics cache on
    purpose: its T_n is a view of m's, entry for entry, and a check run
    after another reads the values the first left there."""
    m = m._replace(tn=m.tn.view(_CountedTn))
    per = []
    real = calibrated._norm

    def counting(mat, tol):
        per.append(_CountedTn.area - sum(per))
        return real(mat, tol)

    _CountedTn.area = 0.0
    with monkeypatch.context() as mp:
        mp.setattr(calibrated, "_norm", counting)
        rep = check(m)
    return rep, per, _CountedTn.area - sum(per)


@pytest.mark.parametrize("n", [6, 7])
def test_blob_words_form_one_dense_product(cfg_generic, n, monkeypatch):
    # The zero shape's I0 and I1 stay words of e-factors: the relation
    # with e_n twice forms one dense x dense product, the other none,
    # and no idempotent is formed on its own.
    m = build_calibrated(cfg_generic, n, Shape(0, "theta"), make_seed(cfg_generic, 1))
    rep, per, outside = _dense_products(m, blob_check, monkeypatch)
    twice = "I0 I1 I0 = kappa I0" if n % 2 == 0 else "I1 I0 I1 = kappa I1"
    assert dict(zip(rep["relations"], per)) == {
        name: 1.0 if name == twice else 0.0
        for name in ("I0 I1 I0 = kappa I0", "I1 I0 I1 = kappa I1")}
    assert outside == 0.0


@pytest.mark.parametrize("n", [6, 7])
def test_no_relation_forms_two_dense_products(cfg_generic, n, monkeypatch):
    # quadratic Tn and braid4 Tn T{n-1} form one dense x dense product
    # each, nothing else in the Hecke check forms one, and the TL check
    # run after it forms none: square en reads quadratic Tn's value.
    m = build_calibrated(cfg_generic, n, Shape(0, "theta"), make_seed(cfg_generic, 1))
    rep, per, outside = _dense_products(m, check_hecke_relations, monkeypatch)
    # every X commutator is settled by its bound, so it takes no _norm
    names = [name for name in rep["relations"] if not name.startswith("commute X")]
    assert len(per) == len(names)
    assert {name: k for name, k in zip(names, per) if k} == {
        "quadratic Tn": 1.0, "braid4 Tn T%d" % (n - 1): 1.0}
    assert outside == 0.0
    _, per, outside = _dense_products(m, check_tl_relations, monkeypatch)
    assert sum(per) == outside == 0.0


@pytest.mark.parametrize("cfg_name", sorted(CONFIG_FACTORIES))
def test_square_e_is_quadratic_t_to_the_bit(cfg_name):
    # e^2 + [p] e = (T - p)(T + 1/p): check_tl_relations reports the
    # value check_hecke_relations does, whether it runs after it or alone
    cfg = CONFIG_FACTORIES[cfg_name]()
    seed = make_seed(cfg, 0)
    seen = 0
    for n in range(1, 7):
        for sh in shapes(n):
            m = _built(build_calibrated, cfg, n, sh, seed)
            if isinstance(m, str):
                continue
            names = [name for name, _, _ in m.generators()]
            squares = ["square e%s" % ("0v" if name == "T0v" else i)
                       for i, name in enumerate(names)]
            alone = check_tl_relations(m)["relations"]
            m = build_calibrated(cfg, n, sh, seed)
            quad = check_hecke_relations(m)["relations"]
            after = check_tl_relations(m)["relations"]
            for name, square in zip(names, squares):
                want = quad["quadratic %s" % name]
                assert alone[square] == after[square] == want, (n, sh, square)
                seen += 1
    assert seen > 100
