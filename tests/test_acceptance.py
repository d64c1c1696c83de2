"""Full-scale acceptance suite.

Each test covers one acceptance criterion end to end, at the stated
sizes and tolerances, and prints a single summary line on success (run
with -v for pytest's own per-criterion pass/fail lines).
"""

import math
import random
import time

from blobalg import laurent
from blobalg.calibrated import (
    blob_check,
    build_calibrated,
    check_hecke_relations,
    check_jm_spectrum,
    check_tl_relations,
    make_seed,
    residue_value,
)
from blobalg.decomp import GradedMatrix, blocks, delta_matrix, na_factorize
from blobalg.paths import degree_klr, degree_tiles, reduced_word
from blobalg.tableaux import (
    Shape,
    Tableau,
    count_std,
    enumerate_std,
    from_negated_set,
    parse_shape,
    residue_seq,
    shapes,
    t_lambda,
)

from conftest import CONFIG_FACTORIES
from oracles import (
    coxeter_length,
    perm_from_tableau,
    sim_class_tableaux,
    word_to_tableau,
)
from oracles import tiles_embedded as tiles

TOL = 1e-8


def all_tableaux(n):
    for shape in shapes(n):
        yield from enumerate_std(n, shape)


def _labeled(order, grid):
    out = {}
    for i, la in enumerate(order):
        for j, exp in enumerate(grid[i]):
            if exp is not None:
                out[(parse_shape(la), parse_shape(order[j]))] = {exp: 1}
    return out


def test_criterion_1_golden_eight_shape_block():
    """The graded count matrix on the eight-shape block at n=16, e=5:
    every entry, and N = Delta with A = Id."""
    started = time.monotonic()
    cfg = CONFIG_FACTORIES["e5_formal"]()
    d = delta_matrix(cfg, 16)
    blk = next(b for b in blocks(d) if parse_shape("(16,alpha1)") in b)

    order = ["(16,alpha1)", "(12,alpha2)", "(6,alpha1)", "(2,alpha2)",
             "(16,alpha1_inv)", "(10,alpha2_inv)", "(6,alpha1_inv)",
             "(0,theta)"]
    _ = None
    grid = [
        [0, _, _, _, _, _, _, _],
        [1, 0, _, _, _, _, _, _],
        [2, 1, 0, _, _, _, _, _],
        [3, 2, 1, 0, _, _, _, _],
        [_, _, _, _, 0, _, _, _],
        [_, _, _, _, 1, 0, _, _],
        [_, _, _, _, 2, 1, 0, _],
        [4, 3, 2, 1, 3, 2, 1, 0],
    ]
    assert set(blk) == {parse_shape(s) for s in order}
    sub = d.submatrix(blk)
    assert sub.labeled_entries() == _labeled(order, grid)

    nmat, amat = na_factorize(sub)
    assert nmat == sub
    assert amat == GradedMatrix.identity(sub.shapes)

    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print("criterion 1 PASS: golden 8x8 block, N = Delta, A = Id (%.1fs)"
          % elapsed)


def test_criterion_2_golden_decomposition_block():
    """The decomposition matrix block at n=18, e=infinity, including the
    forced zero from a degree-0 entry absorbed into A."""
    started = time.monotonic()
    cfg = CONFIG_FACTORIES["einf_integral"]()
    d = delta_matrix(cfg, 18)
    blk = next(b for b in blocks(d) if parse_shape("(18,alpha2_inv)") in b)

    order = ["(18,alpha2_inv)", "(14,alpha1_inv)", "(6,alpha1)", "(2,alpha2)"]
    assert set(blk) == {parse_shape(s) for s in order}
    sub = d.submatrix(blk)
    delta_expected = _labeled(order, [
        [0, None, None, None],
        [1, 0, None, None],
        [1, 0, 0, None],
        [2, None, 1, 0],
    ])
    delta_expected[(parse_shape("(2,alpha2)"),
                    parse_shape("(14,alpha1_inv)"))] = {1: 2}
    assert sub.labeled_entries() == delta_expected

    nmat, amat = na_factorize(sub)
    assert nmat.labeled_entries() == _labeled(order, [
        [0, None, None, None],
        [1, 0, None, None],
        [1, None, 0, None],
        [2, 1, 1, 0],
    ])
    forced = (parse_shape("(6,alpha1)"), parse_shape("(14,alpha1_inv)"))
    assert forced not in nmat.labeled_entries()
    assert amat.labeled_entries() == _labeled(order, [
        [0, None, None, None],
        [None, 0, None, None],
        [None, 0, 0, None],
        [None, None, None, 0],
    ])
    assert nmat.mul(amat) == sub

    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    print("criterion 2 PASS: golden 4x4 N block with forced zero (%.1fs)"
          % elapsed)


def test_criterion_3_enumeration_counts():
    """Binomial-sum tableau counts, exhaustively for n <= 12, plus the
    figure counts 16 and 22 and the 2^n theta count."""
    for n in range(1, 13):
        for shape in shapes(n):
            listed = len(list(enumerate_std(n, shape)))
            if shape.k == 0:
                expected = 2 ** n
            else:
                expected = sum(math.comb(n, j)
                               for j in range((n - shape.k) // 2 + 1))
            assert listed == expected == count_std(n, shape), (n, shape)
    assert count_std(5, Shape(1, "alpha1")) == 16
    assert count_std(6, Shape(2, "alpha1")) == 22
    print("criterion 3 PASS: counts match binomial sums exhaustively, n <= 12")


def test_criterion_4_degree_cross_validation():
    """Tile-wise and generator-wise degrees agree on every standard
    tableau for the three named configurations, n <= 10, and the n=9
    figure pair has degrees 0 and 1."""
    checked = 0
    for name in ("e5_formal", "e14_mirror", "einf_integral"):
        cfg = CONFIG_FACTORIES[name]()
        for n in range(1, 11):
            for t in all_tableaux(n):
                assert degree_tiles(cfg, n, t) == degree_klr(cfg, n, t), \
                    (name, n, t)
                checked += 1
    cfg = CONFIG_FACTORIES["e14_mirror"]()
    lam = Shape(3, "alpha1")
    assert degree_tiles(cfg, 9, t_lambda(9, lam)) == 0
    assert degree_tiles(cfg, 9, Tableau(lam, (-9, 1, 2, 3, 4, 5, 6, 7, 8))) == 1
    print("criterion 4 PASS: degrees agree on %d tableau instances, n <= 10"
          % checked)


def test_criterion_5_word_tiling_coherence():
    """Tiling size equals Coxeter length and reduced words replay to
    their tableau through standard intermediates, n <= 8; the printed
    18-letter word is recovered."""
    for name in ("e7", "generic"):
        cfg = CONFIG_FACTORIES[name]()
        for n in range(1, 9):
            for t in all_tableaux(n):
                word = reduced_word(cfg, n, t)
                assert len(tiles(cfg, n, t)) == len(word) \
                    == coxeter_length(perm_from_tableau(n, t))
                assert word_to_tableau(n, t.shape, word, check=True) == t
    cfg = CONFIG_FACTORIES["e14_fig"]()
    t = from_negated_set(19, Shape(3, "alpha1"), {10, 11, 12, 13, 18})
    assert reduced_word(cfg, 19, t) == [
        9, 8, 10, 17, 16, 13, 0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 0, 1]
    print("criterion 5 PASS: tilings = reduced words on all tableaux, n <= 8")


def test_criterion_6_equivalence_lemma():
    """Residue-sequence classes coincide with similarity-orbit closures
    for n <= 8, with and without hyperplanes."""
    for name in ("e7", "generic"):
        cfg = CONFIG_FACTORIES[name]()
        for n in range(1, 9):
            by_res = {}
            for t in all_tableaux(n):
                by_res.setdefault(residue_seq(cfg, n, t), set()).add(t)
            for group in by_res.values():
                rep = next(iter(group))
                assert sim_class_tableaux(cfg, n, rep) == group, (name, n, rep)
    print("criterion 6 PASS: residue classes = similarity closures, n <= 8")


def test_criterion_7_calibrated_relation_suite():
    """All defining relations below 1e-8 on 25 random generic seeds for
    every shape with n <= 6, and JM spectra match the residue values."""
    cfg = CONFIG_FACTORIES["generic"]()
    worst = 0.0
    for attempt in range(25):
        seed = make_seed(cfg, seed=attempt)
        for n in range(1, 7):
            for shape in shapes(n):
                mod = build_calibrated(cfg, n, shape, seed)
                for checker in (check_hecke_relations, check_tl_relations,
                                check_jm_spectrum):
                    rep = checker(mod, tol=TOL)
                    assert rep["pass"], (attempt, n, shape, rep)
                    worst = max(worst, rep["max_residual"])
                for r, t in enumerate(mod.basis):
                    res = residue_seq(cfg, n, t)
                    for i in range(n):
                        err = abs(mod.xs[i][r]
                                  - residue_value(cfg, seed, res[i]))
                        assert err < TOL
                        worst = max(worst, err)
    print("criterion 7 PASS: relations and JM spectra on 25 seeds, "
          "worst residual %.2e" % worst)


def test_criterion_8_blob_quotient():
    """Theta shapes satisfy the two kappa relations and every other
    shape is annihilated by both alternating products, n <= 6."""
    cfg = CONFIG_FACTORIES["generic"]()
    worst = 0.0
    for attempt in range(5):
        seed = make_seed(cfg, seed=100 + attempt)
        for n in range(1, 7):
            for shape in shapes(n):
                rep = blob_check(build_calibrated(cfg, n, shape, seed), tol=TOL)
                assert rep["pass"], (attempt, n, shape, rep)
                worst = max(worst, rep["max_residual"])
    print("criterion 8 PASS: blob quotient on both parities, "
          "worst residual %.2e" % worst)


def _random_poly(rng):
    return laurent.normalized({
        rng.randint(-4, 4): rng.randint(-3, 3)
        for _ in range(rng.randint(1, 3))
    })


def _random_unitriangular(rng):
    m = rng.randint(2, 12)
    rows = [[{} for _ in range(m)] for _ in range(m)]
    for i in range(m):
        rows[i][i] = {0: 1}
        for j in range(i):
            if rng.random() < 0.6:
                rows[i][j] = _random_poly(rng)
    return GradedMatrix(tuple(range(m)), tuple(map(tuple, rows)))


def _solve_right(nmat, delta):
    m = delta.dim
    arows = [[{} for _ in range(m)] for _ in range(m)]
    for c in range(m):
        for r in range(c, m):
            s = delta.rows[r][c]
            for k in range(c, r):
                s = laurent.sub(s, laurent.mul(nmat.rows[r][k], arows[k][c]))
            arows[r][c] = s
    return arows


def _solve_left(amat, delta):
    m = delta.dim
    nrows = [[{} for _ in range(m)] for _ in range(m)]
    for r in range(m):
        nrows[r][r] = {0: 1}
        for c in range(r - 1, -1, -1):
            s = delta.rows[r][c]
            for k in range(c + 1, r + 1):
                s = laurent.sub(s, laurent.mul(nrows[r][k], amat.rows[k][c]))
            nrows[r][c] = s
    return nrows


def test_criterion_9_factorization_algebra():
    """1000 random lower-unitriangular matrices: exact reconstruction,
    the two side conditions, and uniqueness under perturbation."""
    rng = random.Random(93)
    for trial in range(1000):
        delta = _random_unitriangular(rng)
        nmat, amat = na_factorize(delta)
        assert nmat.mul(amat) == delta
        for i in range(delta.dim):
            assert nmat.rows[i][i] == {0: 1} and amat.rows[i][i] == {0: 1}
            for j in range(i):
                assert laurent.is_positive(nmat.rows[i][j]) \
                    or not nmat.rows[i][j]
                assert laurent.is_bar_symmetric(amat.rows[i][j])

        r = rng.randint(1, delta.dim - 1)
        c = rng.randint(0, r - 1)
        exp = rng.randint(1, 4)
        if trial % 2 == 0:
            # nudging N forces the exactly-solved A off bar-symmetry
            rows = [list(row) for row in nmat.rows]
            rows[r][c] = laurent.add(rows[r][c], {exp: 1})
            n2 = GradedMatrix(nmat.shapes, tuple(map(tuple, rows)))
            a2 = _solve_right(n2, delta)
            assert not all(laurent.is_bar_symmetric(e)
                           for row in a2 for e in row)
        else:
            # nudging A bar-symmetrically forces N out of v*Z[v]
            rows = [list(row) for row in amat.rows]
            rows[r][c] = laurent.add(rows[r][c], {exp: 1, -exp: 1})
            a2 = GradedMatrix(amat.shapes, tuple(map(tuple, rows)))
            n2 = _solve_left(a2, delta)
            assert not all(
                laurent.is_positive(n2[i][j]) or not n2[i][j]
                for i in range(delta.dim) for j in range(i))
    print("criterion 9 PASS: 1000 random factorizations, side conditions "
          "and uniqueness")
