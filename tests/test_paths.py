from collections import Counter, deque
from pathlib import Path

import pytest
from hypothesis import given, settings

from blobalg.paths import (
    _lambda_negs,
    _tile_runs,
    degree_klr,
    degree_rows,
    degree_tiles,
    is_ladder,
    ladder_tableaux,
    max_shape,
    reduced_word,
    residue_class_tableaux,
    row_degrees,
    tau_order,
    walk_tables,
    word_rows,
)
from blobalg.params import MARKER_LABELS, load_config
from blobalg.tableaux import (
    Shape,
    Tableau,
    enumerate_std,
    from_negated_set,
    negated_sets,
    residue_seq,
    shapes,
    step_residue,
    t_lambda,
    walk_start,
)

from conftest import CONFIG_FACTORIES, valid_configs
from oracles import (
    EmbeddedPath,
    box_contents,
    canonical_key,
    coxeter_length,
    degree_klr_residues,
    degree_tiles_tilewise,
    embed,
    ends,
    is_ladder_class,
    negate,
    path_residues,
    perm_from_tableau,
    positions,
    realize,
    reflect,
    residue_seq_boxes,
    row_degree,
    sim_class_tableaux,
    sim_neighbors,
    tableau_str_entries,
    tau_order_scan,
    tile_order_buckets,
    tiles_embedded,
    translate,
    weyl_act,
    word_to_tableau,
)

SHIPPED = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


def all_tableaux(n):
    for shape in shapes(n):
        yield from enumerate_std(n, shape)


@pytest.mark.parametrize("cfg_name", sorted(CONFIG_FACTORIES))
def test_path_residues_match_tableau_residues(cfg_name):
    # the walk form of residue_seq against the embedded path and the box
    # contents
    cfg = CONFIG_FACTORIES[cfg_name]()
    for n in range(1, 7):
        for t in all_tableaux(n):
            res = residue_seq(cfg, n, t)
            assert path_residues(cfg, embed(cfg, n, t)) == res
            assert residue_seq_boxes(cfg, n, t) == res


@pytest.mark.parametrize("cfg_name", sorted(CONFIG_FACTORIES))
def test_walk_start_is_embed_start(cfg_name):
    cfg = CONFIG_FACTORIES[cfg_name]()
    for n in range(1, 7):
        for t in all_tableaux(n):
            negs = len(t.negated_set())
            p = embed(cfg, n, t)
            orbit, x0 = walk_start(cfg, n, t.shape, negs)
            assert (orbit, x0) == (p.orbit, p.start)
            # the shape's marker sits one step right of the start, plus
            # two for every positive entry left of the bead
            anchor = x0 + 1 + 2 * ((n - t.shape.k) // 2 - negs)
            assert cfg.marker_label_at(orbit, anchor) == t.shape.marker


def test_embed_endpoint_depends_only_on_shape(cfg_e7):
    for n in range(1, 7):
        for shape in shapes(n):
            ends = {positions(embed(cfg_e7, n, t))[-1] for t in enumerate_std(n, shape)}
            assert len(ends) == 1


def test_realize_recovers_tableau(cfg_e7, cfg_e5_formal):
    for cfg in (cfg_e7, cfg_e5_formal):
        for n in range(1, 6):
            for t in all_tableaux(n):
                found = realize(cfg, n, embed(cfg, n, t))
                assert (t.shape, t) in found
                # everything realized shares the step residues
                for shape, u in found:
                    assert u.shape == shape
                    assert residue_seq(cfg, n, u) == residue_seq(cfg, n, t)


def test_realize_empty_off_grid(cfg_e7):
    assert realize(cfg_e7, 1, EmbeddedPath("q", 1, (True,))) == []


def test_realize_checks_length(cfg_e7):
    with pytest.raises(ValueError):
        realize(cfg_e7, 3, EmbeddedPath("q", 0, (True,)))


def test_similarity_moves_preserve_residues(cfg_e7, cfg_e5_formal, cfg_einf_integral):
    for cfg in (cfg_e7, cfg_e5_formal, cfg_einf_integral):
        for n in range(1, 6):
            for t in all_tableaux(n):
                p = embed(cfg, n, t)
                res = path_residues(cfg, p)
                for q in sim_neighbors(cfg, p):
                    assert path_residues(cfg, q) == res


def test_negate_is_involutive(cfg_e7, cfg_e5_formal):
    for cfg in (cfg_e7, cfg_e5_formal):
        for n in (1, 3, 4):
            for t in all_tableaux(n):
                p = embed(cfg, n, t)
                assert negate(cfg, negate(cfg, p)) == p


def test_translate_requires_finite_period(cfg_einf_integral, cfg_e7):
    p = EmbeddedPath("q", 0, (True, True))
    with pytest.raises(ValueError):
        translate(cfg_einf_integral, p)
    q = translate(cfg_e7, p, 3)
    assert q.start == p.start + 3 * 2 * 7
    assert canonical_key(cfg_e7, q) == canonical_key(cfg_e7, p)


def test_reflect_needs_a_wall(cfg_e7):
    p = EmbeddedPath("q", 0, (True, True))  # vertices at 0, 1, 2
    refl = reflect(cfg_e7, p, 0)
    assert refl.steps == (False, False)
    with pytest.raises(ValueError):
        reflect(cfg_e7, p, 1)
    with pytest.raises(ValueError):
        reflect(cfg_e7, p, 5)


def test_tile_count_is_coxeter_length(cfg_e7):
    for n in range(1, 8):
        for t in all_tableaux(n):
            w = perm_from_tableau(n, t)
            assert len(tiles_embedded(cfg_e7, n, t)) == coxeter_length(w)


def _bn_distances(n):
    start = tuple(range(1, n + 1))
    dist = {start: 0}
    dq = deque([start])
    while dq:
        u = dq.popleft()
        for j in range(n):
            v = weyl_act(j, u)
            if v not in dist:
                dist[v] = dist[u] + 1
                dq.append(v)
    return dist


@pytest.mark.parametrize("n", [1, 2, 3])
def test_coxeter_length_against_word_metric(n):
    dist = _bn_distances(n)
    assert len(dist) == 2**n * __import__("math").factorial(n)
    for w, d in dist.items():
        assert coxeter_length(w) == d


def test_word_round_trip(cfg_e7, cfg_e5_formal):
    for cfg in (cfg_e7, cfg_e5_formal):
        for n in range(1, 7):
            for t in all_tableaux(n):
                word = reduced_word(cfg, n, t)
                assert len(word) == coxeter_length(perm_from_tableau(n, t))
                # every prefix stays standard and the full word lands on t
                assert word_to_tableau(n, t.shape, word, check=True) == t


def test_word_of_t_lambda_is_empty(cfg_e7):
    for n in (1, 4, 5):
        for shape in shapes(n):
            assert reduced_word(cfg_e7, n, t_lambda(n, shape)) == []


def test_degree_definitions_agree():
    for name in ("e5_formal", "e14_mirror", "einf_integral"):
        cfg = CONFIG_FACTORIES[name]()
        for n in range(1, 7):
            for t in all_tableaux(n):
                assert degree_tiles(cfg, n, t) == degree_klr(cfg, n, t), (name, n, t)


@pytest.mark.parametrize("cfg_name", sorted(CONFIG_FACTORIES))
def test_row_degrees_match_row_degree(cfg_name):
    # the prefix-sum rows against the tile-by-tile rows, on every orbit a
    # walk can use, for all equal-parity a, b in the span
    cfg = CONFIG_FACTORIES[cfg_name]()
    lo, hi = -17, 23
    for orbit in sorted({cfg.point_site(l)[0] for l in MARKER_LABELS}):
        row = row_degrees(cfg, orbit, lo, hi)
        for yc in (1, 2, 3, 9):
            for a in range(lo, hi + 1):
                for b in range(lo + (a - lo) % 2, hi + 1, 2):
                    assert row(yc, a, b) == row_degree(cfg, orbit, yc, a, b), (
                        orbit, yc, a, b)


def _runs_as_buckets(tab, left, right):
    """_tile_runs in the form of the bucket oracle (tile_order_buckets)."""
    return ([("L", tab.x0 + 2 * m, list(range(hi, lo - 1, -1)))
             for m, lo, hi in left]
            + [("R", tab.x0 + 2 * m, list(range(lo, hi + 1)))
               for m, lo, hi in right])


def _statistics_match_oracles(cfg, n):
    # the walk kernel's rows (degree_rows, word_rows) and the one-tableau
    # wrappers against the embedded-path oracles, tableau by tableau
    tabs = walk_tables(cfg, n)
    rows = zip(all_tableaux(n),
               (r for s in shapes(n)
                for r in degree_rows(cfg, n, s, negated_sets(n, s))),
               (r for s in shapes(n)
                for r in word_rows(cfg, n, s, negated_sets(n, s))), strict=True)
    for t, (text, tiles, klr), (word_text, word) in rows:
        assert text == word_text == tableau_str_entries(t), (n, t)
        tiles_o = degree_tiles_tilewise(cfg, n, t)
        order = tau_order_scan(cfg, n, t)
        word_o = [yc - 1 for _, yc, _ in reversed(order)]
        klr_o = degree_klr_residues(cfg, n, t)
        assert (tiles, klr, word) == (tiles_o, klr_o, word_o), (n, t)
        assert degree_tiles(cfg, n, t) == tiles_o, (n, t)
        assert tau_order(cfg, n, t) == order, (n, t)
        assert reduced_word(cfg, n, t) == word_o, (n, t)
        assert degree_klr(cfg, n, t) == klr_o, (n, t)
        tab = tabs[t.shape]
        runs = _tile_runs(sorted(t.negated_set()), _lambda_negs(tab.xs_l))
        assert _runs_as_buckets(tab, *runs) == tile_order_buckets(cfg, n, t), (n, t)


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_tableau_statistics_match_oracles(path):
    # the per-shape tables against the embedded paths, the pair scan
    # and the Residue arithmetic, on every tableau
    cfg = load_config(path)
    for n in range(1, 9):
        _statistics_match_oracles(cfg, n)


@settings(max_examples=25, deadline=None)
@given(valid_configs())
def test_tableau_statistics_match_oracles_on_random_configs(cfg):
    for n in range(1, 7):
        _statistics_match_oracles(cfg, n)


def test_tau_order_matches_pair_scan_at_e7_n10(cfg_e7):
    # the diagonal closed form against the greedy pair scan, on every
    # tableau at a size where the regions are long skew shapes
    n = 10
    for t in all_tableaux(n):
        assert tau_order(cfg_e7, n, t) == tau_order_scan(cfg_e7, n, t), t


def test_walk_kernel_matches_oracles_at_e7_n10(cfg_e7):
    # the kernel's rows against the embedded-path oracles and the
    # per-diagonal buckets, at a size where the runs are long
    _statistics_match_oracles(cfg_e7, 10)


def _walk_tables_match_residues(cfg, n):
    """The ids of walk_tables against the Residue objects they stand
    for: one id per residue across all shapes of n."""
    tabs = walk_tables(cfg, n)
    res_of, id_of = {}, {}

    def same(i, r):
        assert res_of.setdefault(i, r) == r
        assert id_of.setdefault(r, i) == i

    for shape, tab in tabs.items():
        for j in range(n):
            for r in range(min(len(tab.sw) - 1, n - j) + 1):
                x = tab.x0 + j + 2 * r
                if r < n - j:
                    same(tab.se[j + r],
                         step_residue(cfg, tab.orbit, x, j + 1, True))
                if r:
                    same(tab.sw[r],
                         step_residue(cfg, tab.orbit, x, j + 1, False))
        want = residue_seq(cfg, n, t_lambda(n, shape))
        assert len(tab.seq) == len(want)
        for i, r in zip(tab.seq, want):
            same(i, r)
    for tab in tabs.values():
        for i, r in list(res_of.items()):
            same(tab.inverse[i], cfg.res_invert(r))
    for shape, tab in tabs.items():
        assert list(tab.pairs) == sorted(tab.pairs)
        assert Counter(frozenset((res_of[p], cfg.res_invert(res_of[p])))
                       for p in tab.pairs) == Counter(
            frozenset((c, cfg.res_invert(c)))
            for c in box_contents(cfg, n, shape)[1:])


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_walk_tables_match_residues(path):
    cfg = load_config(path)
    for n in range(1, 11):
        _walk_tables_match_residues(cfg, n)


@settings(max_examples=25, deadline=None)
@given(valid_configs())
def test_walk_tables_match_residues_on_random_configs(cfg):
    for n in range(1, 7):
        _walk_tables_match_residues(cfg, n)


def test_shape_tables_are_built_once_per_shape(cfg_e7):
    t = from_negated_set(6, Shape(2, "alpha1"), {3})
    degree_tiles(cfg_e7, 6, t)
    tab = cfg_e7._walk_tables[6][Shape(2, "alpha1")]
    degree_klr(cfg_e7, 6, t)
    reduced_word(cfg_e7, 6, t)
    assert list(cfg_e7._walk_tables) == [6]
    assert cfg_e7._walk_tables[6][Shape(2, "alpha1")] is tab
    # a fresh configuration starts with no tables
    assert CONFIG_FACTORIES["e7"]()._walk_tables == {}


def test_figure_small_degrees(cfg_e14_mirror):
    lam = Shape(3, "alpha1")
    t0 = t_lambda(9, lam)
    assert t0.entries == (-6, -4, -2, 1, 3, 5, 7, 8, 9)
    assert degree_tiles(cfg_e14_mirror, 9, t0) == 0
    purple = Tableau(lam, (-9, 1, 2, 3, 4, 5, 6, 7, 8))
    assert degree_tiles(cfg_e14_mirror, 9, purple) == 1
    assert degree_klr(cfg_e14_mirror, 9, purple) == 1
    assert len(tiles_embedded(cfg_e14_mirror, 9, purple)) == 9
    assert max_shape(cfg_e14_mirror, 9, *ends(embed(cfg_e14_mirror, 9, purple))) == Shape(
        7, "alpha2"
    )
    assert not is_ladder(cfg_e14_mirror, 9, purple)
    assert is_ladder(cfg_e14_mirror, 9, t0)


def test_figure_large_word(cfg_e14_fig):
    lam = Shape(3, "alpha1")
    negs = {10, 11, 12, 13, 18}
    t = from_negated_set(19, lam, negs)
    assert t.entries == (
        -18, -13, -12, -11, -10,
        1, 2, 3, 4, 5, 6, 7, 8, 9, 14, 15, 16, 17, 19,
    )
    p = embed(cfg_e14_fig, 19, t)
    assert positions(p)[0] == -3
    ts = tiles_embedded(cfg_e14_fig, 19, t)
    assert len(ts) == 18
    assert coxeter_length(perm_from_tableau(19, t)) == 18
    word = reduced_word(cfg_e14_fig, 19, t)
    assert word == [9, 8, 10, 17, 16, 13, 0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 0, 1]
    assert word_to_tableau(19, lam, word, check=True) == t
    assert degree_tiles(cfg_e14_fig, 19, t) == -1
    assert degree_klr(cfg_e14_fig, 19, t) == -1


def test_max_shape_of_distinguished_tableau(cfg_e7, cfg_e5_formal, cfg_e14_fig):
    for cfg in (cfg_e7, cfg_e5_formal, cfg_e14_fig):
        for n in range(1, 8):
            for shape in shapes(n):
                p = embed(cfg, n, t_lambda(n, shape))
                assert max_shape(cfg, n, *ends(p)) == shape


def test_max_shape_all_negative_zero_shape(cfg_e5_formal):
    t = from_negated_set(16, Shape(0, "theta"), range(1, 17))
    p = embed(cfg_e5_formal, 16, t)
    assert positions(p)[0] > positions(p)[-1]  # forces the mirrored scan
    assert max_shape(cfg_e5_formal, 16, *ends(p)) == Shape(16, "alpha1_inv")


@pytest.mark.parametrize("cfg_name", sorted(CONFIG_FACTORIES))
def test_max_shape_is_mirror_invariant(cfg_name):
    # a walk and its mirror through inversion present the same widest
    # shape, whichever of the two is scanned directly
    cfg = CONFIG_FACTORIES[cfg_name]()
    for n in range(1, 7):
        for t in all_tableaux(n):
            p = embed(cfg, n, t)
            assert max_shape(cfg, n, *ends(p)) == max_shape(
                cfg, n, *ends(negate(cfg, p))), (n, t)


def test_t_lambda_is_always_ladder(cfg_e7, cfg_e5_formal, cfg_einf_integral):
    for cfg in (cfg_e7, cfg_e5_formal, cfg_einf_integral):
        for n in range(1, 6):
            for shape in shapes(n):
                assert is_ladder(cfg, n, t_lambda(n, shape))


def _ladders_match_class_rule(cfg, n):
    found = ladder_tableaux(cfg, n, shapes(n))
    expect = [t for la in shapes(n) for t in enumerate_std(n, la)
              if is_ladder_class(cfg, n, t)]
    assert found == expect, n
    for t in found[:3] + expect[-3:]:
        assert is_ladder(cfg, n, t)


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_ladder_tableaux_match_class_rule(path):
    cfg = load_config(path)
    for n in range(1, 9):
        _ladders_match_class_rule(cfg, n)


@settings(max_examples=25, deadline=None)
@given(valid_configs())
def test_ladder_tableaux_match_class_rule_on_random_configs(cfg):
    for n in range(1, 7):
        _ladders_match_class_rule(cfg, n)


def test_similarity_closure_matches_residue_class(cfg_e7, cfg_e5_formal):
    for cfg in (cfg_e7, cfg_e5_formal):
        for n in range(1, 5):
            for t in all_tableaux(n):
                combinatorial = set(residue_class_tableaux(cfg, n, t))
                assert t in combinatorial
                assert sim_class_tableaux(cfg, n, t) == combinatorial


def test_similarity_closure_larger_sample(cfg_e7):
    for shape in shapes(5):
        t = t_lambda(5, shape)
        assert sim_class_tableaux(cfg_e7, 5, t) == set(
            residue_class_tableaux(cfg_e7, 5, t)
        )
