import json
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blobalg import decomp, laurent
from blobalg.decomp import (
    GradedMatrix,
    blocks,
    decomposition_matrix,
    delta_graded_dim,
    delta_matrix,
    na_factorize,
    simple_dim_lower_bounds,
    simple_graded_dims,
)
from blobalg.params import load_config, parse_config
from blobalg.paths import residue_class_tableaux, walk_tables
from blobalg.tableaux import (
    Shape,
    count_std,
    parse_shape,
    shape_str,
    shapes,
    t_lambda,
)

from conftest import CONFIG_FACTORIES, valid_configs
from oracles import (
    cstd_brute,
    degree_tiles_tilewise,
    delta_graded_dim_enum,
    delta_matrix_cstd,
    from_json_obj,
    simple_dim_lower_bounds_enum,
    simple_dim_lower_bounds_walks,
)

SHIPPED = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


# -- GradedMatrix plumbing -------------------------------------------------

def test_identity_and_mul():
    labels = (Shape(2, "alpha1"), Shape(0, "theta"))
    ident = GradedMatrix.identity(labels)
    m = GradedMatrix(labels, (({0: 1}, {}), ({1: 1}, {0: 1})))
    assert m.mul(ident) == m
    assert ident.mul(m) == m
    sq = m.mul(m)
    assert sq.entry(Shape(0, "theta"), Shape(2, "alpha1")) == {1: 2}


def test_not_square_rejected():
    with pytest.raises(ValueError):
        GradedMatrix((1, 2), (({0: 1}, {}),))
    with pytest.raises(ValueError):
        GradedMatrix((1, 2), (({0: 1},), ({0: 1},)))


def test_submatrix_keeps_order():
    d = delta_matrix(CONFIG_FACTORIES["e5_formal"](), 4)
    keep = [d.shapes[2], d.shapes[0]]
    sub = d.submatrix(keep)
    assert sub.shapes == (d.shapes[0], d.shapes[2])
    assert sub.entry(d.shapes[2], d.shapes[0]) == d.entry(d.shapes[2], d.shapes[0])


def test_tsv_layout():
    m = GradedMatrix(
        (Shape(2, "alpha1"), Shape(0, "theta")),
        (({0: 1}, {}), ({1: 1}, {0: 1})),
        conjectural=True,
    )
    assert m.to_tsv() == (
        "# conjectural\n"
        "\t(2,alpha1)\t(0,theta)\n"
        "(2,alpha1)\t1\t0\n"
        "(0,theta)\tv\t1\n"
    )


def test_json_round_trip(cfg_e5_formal):
    d = delta_matrix(cfg_e5_formal, 5)
    obj = json.loads(json.dumps(d.to_json_obj()))
    assert "conjectural" not in obj
    back = [
        [from_json_obj(e) for e in row] for row in obj["entries"]
    ]
    assert tuple(parse_shape(s) for s in obj["shapes"]) == d.shapes
    assert tuple(tuple(r) for r in back) == d.rows


# -- delta matrix ----------------------------------------------------------

def test_generic_delta_is_identity(cfg_generic):
    for n in range(1, 6):
        d = delta_matrix(cfg_generic, n)
        assert d == GradedMatrix.identity(d.shapes)
        assert all(len(b) == 1 for b in blocks(d))


@pytest.mark.parametrize("cfg_name", sorted(CONFIG_FACTORIES))
def test_delta_lower_unitriangular(cfg_name):
    cfg = CONFIG_FACTORIES[cfg_name]()
    for n in range(1, 5):
        assert delta_matrix(cfg, n).is_lower_unitriangular()


@pytest.mark.parametrize("cfg_name", ["e5_formal", "e14_fig", "e7"])
def test_delta_matches_brute_force(cfg_name):
    cfg = CONFIG_FACTORIES[cfg_name]()
    for n in range(1, 6):
        d = delta_matrix(cfg, n)
        for la in d.shapes:
            for mu in d.shapes:
                ent = {}
                for t in cstd_brute(cfg, n, la, mu):
                    ent = laurent.add(ent, {degree_tiles_tilewise(cfg, n, t): 1})
                assert d.entry(la, mu) == ent


def test_maximal_width_rows_are_standard_basis(cfg_e5_formal):
    # nothing lies above a shape of full width, so its row is trivial
    for n in (5, 6):
        d = delta_matrix(cfg_e5_formal, n)
        for i, la in enumerate(d.shapes):
            if la.k != n:
                continue
            assert all(not d.rows[i][j] for j in range(d.dim) if j != i)


def test_equal_k_entries_vanish(cfg_e5_formal):
    d = delta_matrix(cfg_e5_formal, 6)
    for (la, mu) in d.labeled_entries():
        assert la == mu or la.k != mu.k


@pytest.mark.parametrize("entry, match", [
    (lambda i, j: {0: 1} if i == j else ({1: 1} if i < j else {}),
     "above the diagonal"),
    (lambda i, j: {0: 2} if i == j else {}, "diagonal entry"),
    # shapes(4) opens with two shapes of k = 4
    (lambda i, j: {0: 1} if i == j else ({1: 1} if (i, j) == (1, 0) else {}),
     "equal k"),
])
def test_delta_invariants_raise(monkeypatch, entry, match):
    order = shapes(4)

    def fake_row(n, tabs, la, cols):
        i = order.index(la)
        return [entry(i, j) for j in range(len(cols))]

    monkeypatch.setattr(decomp, "_delta_row", fake_row)
    with pytest.raises(RuntimeError, match=match):
        delta_matrix(CONFIG_FACTORIES["e7"](), 4)


def _filter_rejects_only_zeros(cfg, n, oracle):
    """Assert that every pair the block filter skips is zero in the
    oracle; return how many pairs it skips."""
    tabs = walk_tables(cfg, n)
    cls = {s: tabs[s].pairs for s in oracle.shapes}
    rejected = 0
    for i, la in enumerate(oracle.shapes):
        for j, mu in enumerate(oracle.shapes):
            if cls[la] != cls[mu]:
                assert oracle.rows[i][j] == {}, (shape_str(la), shape_str(mu))
                rejected += 1
    return rejected


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_delta_matches_cstd_oracle(path):
    cfg = load_config(path)
    rejected = 0
    for n in range(1, 15):
        d = delta_matrix(cfg, n)
        oracle = delta_matrix_cstd(cfg, n)
        assert d == oracle, n
        assert d.to_tsv() == oracle.to_tsv(), n
        rejected += _filter_rejects_only_zeros(cfg, n, oracle)
    assert rejected  # the filter is not vacuous on any shipped config


@settings(max_examples=25, deadline=None)
@given(valid_configs())
def test_delta_matches_cstd_oracle_on_random_configs(cfg):
    for n in range(1, 8):
        oracle = delta_matrix_cstd(cfg, n)
        assert delta_matrix(cfg, n) == oracle, n
        _filter_rejects_only_zeros(cfg, n, oracle)


@pytest.mark.parametrize("cfg_name", ["e5_formal", "e7"])
def test_column_sums_count_coloured_tableaux(cfg_name):
    cfg = CONFIG_FACTORIES[cfg_name]()
    for n in range(1, 6):
        d = delta_matrix(cfg, n)
        for j, mu in enumerate(d.shapes):
            total = sum(laurent.eval_one(d.rows[i][j]) for i in range(d.dim))
            assert total == len(residue_class_tableaux(cfg, n, t_lambda(n, mu)))


def test_eight_shape_block_at_n16(cfg_e5_formal):
    d = delta_matrix(cfg_e5_formal, 16)
    blk = next(b for b in blocks(d) if parse_shape("(16,alpha1)") in b)
    assert set(blk) == {
        parse_shape(s)
        for s in [
            "(16,alpha1)", "(12,alpha2)", "(6,alpha1)", "(2,alpha2)",
            "(16,alpha1_inv)", "(10,alpha2_inv)", "(6,alpha1_inv)",
            "(0,theta)",
        ]
    }
    first = parse_shape("(16,alpha1)")
    col = {shape_str(la): d.entry(la, first) for la in blk}
    assert col["(16,alpha1)"] == {0: 1}
    assert col["(12,alpha2)"] == {1: 1}
    assert col["(6,alpha1)"] == {2: 1}
    assert col["(2,alpha2)"] == {3: 1}
    assert col["(0,theta)"] == {4: 1}
    assert col["(16,alpha1_inv)"] == {}
    assert col["(10,alpha2_inv)"] == {}
    assert col["(6,alpha1_inv)"] == {}


# -- blocks ----------------------------------------------------------------

def test_blocks_partition(cfg_e7):
    for n in range(1, 7):
        d = delta_matrix(cfg_e7, n)
        seen = [s for b in blocks(d) for s in b]
        assert sorted(seen) == sorted(d.shapes)
        assert len(seen) == len(set(seen))


def test_blocks_respect_support(cfg_e14_fig):
    d = delta_matrix(cfg_e14_fig, 6)
    member = {}
    for b in blocks(d):
        for s in b:
            member[s] = b
    for (la, mu) in d.labeled_entries():
        assert member[la] is member[mu]


# -- N*A factorization -----------------------------------------------------

entry_polys = st.dictionaries(
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-3, max_value=3).filter(bool),
    max_size=3,
)


@st.composite
def unitriangular(draw):
    m = draw(st.integers(min_value=2, max_value=6))
    rows = []
    for i in range(m):
        row = []
        for j in range(m):
            if j > i:
                row.append({})
            elif j == i:
                row.append({0: 1})
            else:
                row.append(draw(entry_polys))
        rows.append(tuple(row))
    return GradedMatrix(tuple(range(m)), tuple(rows))


@settings(max_examples=60, deadline=None)
@given(unitriangular())
def test_na_factorize_properties(delta):
    nmat, amat = na_factorize(delta)
    assert nmat.mul(amat) == delta
    assert nmat.is_lower_unitriangular()
    assert amat.is_lower_unitriangular()
    for i in range(delta.dim):
        for j in range(i):
            assert laurent.is_positive(nmat.rows[i][j]) or not nmat.rows[i][j]
            assert laurent.is_bar_symmetric(amat.rows[i][j])


def _solve_right_factor(nmat, delta):
    # forward substitution for A in N*A = delta, N unitriangular
    m = delta.dim
    arows = [[{} for _ in range(m)] for _ in range(m)]
    for c in range(m):
        for r in range(c, m):
            s = delta.rows[r][c]
            for k in range(c, r):
                s = laurent.sub(s, laurent.mul(nmat.rows[r][k], arows[k][c]))
            arows[r][c] = s
    return GradedMatrix(delta.shapes, tuple(tuple(r) for r in arows))


@settings(max_examples=30, deadline=None)
@given(unitriangular(), st.data())
def test_na_factorization_is_unique(delta, data):
    nmat, amat = na_factorize(delta)
    assert _solve_right_factor(nmat, delta) == amat
    r = data.draw(st.integers(min_value=1, max_value=delta.dim - 1))
    c = data.draw(st.integers(min_value=0, max_value=r - 1))
    exp = data.draw(st.integers(min_value=1, max_value=3))
    perturbed = [list(row) for row in nmat.rows]
    perturbed[r][c] = laurent.add(perturbed[r][c], {exp: 1})
    n2 = GradedMatrix(nmat.shapes, tuple(tuple(row) for row in perturbed))
    a2 = _solve_right_factor(n2, delta)
    assert not all(
        laurent.is_bar_symmetric(e) for row in a2.rows for e in row
    )


def test_na_positive_delta_means_n_equals_delta(cfg_e5_formal):
    d = delta_matrix(cfg_e5_formal, 16)
    blk = next(b for b in blocks(d) if parse_shape("(16,alpha1)") in b)
    sub = d.submatrix(blk)
    nmat, amat = na_factorize(sub)
    assert nmat == sub
    assert amat == GradedMatrix.identity(sub.shapes)


def test_na_degree_zero_entry_moves_to_a(cfg_einf_integral):
    d = delta_matrix(cfg_einf_integral, 18)
    blk = next(b for b in blocks(d) if parse_shape("(18,alpha2_inv)") in b)
    assert set(blk) == {
        parse_shape(s)
        for s in ["(18,alpha2_inv)", "(14,alpha1_inv)", "(6,alpha1)", "(2,alpha2)"]
    }
    sub = d.submatrix(blk)
    nmat, amat = na_factorize(sub)
    la, mu = parse_shape("(6,alpha1)"), parse_shape("(14,alpha1_inv)")
    assert sub.entry(la, mu) == {0: 1}
    assert nmat.entry(la, mu) == {}
    assert amat.entry(la, mu) == {0: 1}
    assert nmat.mul(amat) == sub
    expected_n = {
        ("(18,alpha2_inv)", "(18,alpha2_inv)"): {0: 1},
        ("(14,alpha1_inv)", "(18,alpha2_inv)"): {1: 1},
        ("(14,alpha1_inv)", "(14,alpha1_inv)"): {0: 1},
        ("(6,alpha1)", "(18,alpha2_inv)"): {1: 1},
        ("(6,alpha1)", "(6,alpha1)"): {0: 1},
        ("(2,alpha2)", "(18,alpha2_inv)"): {2: 1},
        ("(2,alpha2)", "(14,alpha1_inv)"): {1: 1},
        ("(2,alpha2)", "(6,alpha1)"): {1: 1},
        ("(2,alpha2)", "(2,alpha2)"): {0: 1},
    }
    got = {
        (shape_str(a), shape_str(b)): p
        for (a, b), p in nmat.labeled_entries().items()
    }
    assert got == expected_n


def test_na_rejects_non_unitriangular():
    bad = GradedMatrix((0, 1), (({0: 1}, {2: 1}), ({}, {0: 1})))
    with pytest.raises(ValueError):
        na_factorize(bad)


def _na_full_range(delta):
    # reference recursion ignoring the block structure
    m = delta.dim
    nrows = [[dict({0: 1}) if i == j else {} for j in range(m)] for i in range(m)]
    arows = [[dict({0: 1}) if i == j else {} for j in range(m)] for i in range(m)]
    for c in reversed(range(m)):
        for r in range(c + 1, m):
            f = delta.rows[r][c]
            for k in range(c + 1, r):
                f = laurent.sub(f, laurent.mul(nrows[r][k], arows[k][c]))
            a, nn = laurent.bar_split(f)
            arows[r][c] = a
            nrows[r][c] = nn
    return (
        GradedMatrix(delta.shapes, tuple(tuple(r) for r in nrows)),
        GradedMatrix(delta.shapes, tuple(tuple(r) for r in arows)),
    )


@pytest.mark.parametrize("cfg_name", ["e5_formal", "e14_fig", "e7"])
def test_blockwise_recursion_equals_full_range(cfg_name):
    cfg = CONFIG_FACTORIES[cfg_name]()
    for n in range(1, 7):
        d = delta_matrix(cfg, n)
        assert na_factorize(d) == _na_full_range(d)


def test_factor_of_block_equals_block_of_factor(cfg_e5_formal):
    d = delta_matrix(cfg_e5_formal, 6)
    nfull, afull = na_factorize(d)
    for blk in blocks(d):
        nblk, ablk = na_factorize(d.submatrix(blk))
        assert nblk == nfull.submatrix(blk)
        assert ablk == afull.submatrix(blk)


def test_tie_break_permutation_invariance(cfg_e5_formal):
    d = delta_matrix(cfg_e5_formal, 6)
    # reverse every run of equal-k shapes; equal-k entries vanish, so the
    # permuted matrix is still unitriangular and the answers must agree
    order = sorted(range(d.dim), key=lambda i: (-d.shapes[i].k, -i))
    swapped = GradedMatrix(
        tuple(d.shapes[i] for i in order),
        tuple(tuple(d.rows[i][j] for j in order) for i in order),
    )
    assert swapped.is_lower_unitriangular()
    n1, a1 = na_factorize(d)
    n2, a2 = na_factorize(swapped)
    assert n2.labeled_entries() == n1.labeled_entries()
    assert a2.labeled_entries() == a1.labeled_entries()
    assert {frozenset(b) for b in blocks(swapped)} == {
        frozenset(b) for b in blocks(d)
    }


# -- decomposition matrix and simple dimensions ------------------------------

def test_decomposition_matrix_flagged(cfg_e5_formal):
    nmat = decomposition_matrix(cfg_e5_formal, 4)
    assert nmat.conjectural
    assert nmat.to_json_obj()["conjectural"] is True
    assert nmat.to_tsv().startswith("# conjectural\n")
    plain, _ = na_factorize(delta_matrix(cfg_e5_formal, 4))
    assert nmat == plain
    assert not plain.conjectural
    assert "conjectural" not in plain.to_json_obj()


@pytest.mark.parametrize("cfg_name", ["e5_formal", "einf_integral", "e7"])
def test_no_negativity_warning_on_real_configs(cfg_name):
    cfg = CONFIG_FACTORIES[cfg_name]()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        decomposition_matrix(cfg, 6)


def test_negativity_warning_fires(monkeypatch):
    import blobalg.decomp as decomp

    bad = GradedMatrix((0, 1), (({0: 1}, {}), ({1: -1}, {0: 1})))
    monkeypatch.setattr(decomp, "delta_matrix", lambda *a, **k: bad)
    with pytest.warns(UserWarning, match="negative"):
        decomp.decomposition_matrix(None, 2)


def test_simple_dims_generic_equal_standard_dims(cfg_generic):
    for n in range(1, 5):
        dims = simple_graded_dims(cfg_generic, n)
        for la in shapes(n):
            assert dims[la] == delta_graded_dim(cfg_generic, n, la)


@pytest.mark.parametrize("cfg_name", ["e5_formal", "e14_fig", "e7"])
def test_simple_dims_v1_count_identity(cfg_name):
    cfg = CONFIG_FACTORIES[cfg_name]()
    for n in range(1, 6):
        nmat = decomposition_matrix(cfg, n)
        dims = simple_graded_dims(cfg, n)
        for i, la in enumerate(nmat.shapes):
            total = sum(
                laurent.eval_one(nmat.rows[i][j]) * laurent.eval_one(dims[nmat.shapes[j]])
                for j in range(i + 1)
            )
            assert total == count_std(n, la)


@pytest.mark.parametrize("cfg_name", sorted(CONFIG_FACTORIES))
def test_delta_graded_dim_matches_enumeration(cfg_name):
    cfg = CONFIG_FACTORIES[cfg_name]()
    for n in range(1, 11):
        for la in shapes(n):
            assert delta_graded_dim(cfg, n, la) == delta_graded_dim_enum(cfg, n, la)


@settings(max_examples=25, deadline=None)
@given(valid_configs())
def test_delta_graded_dim_matches_enumeration_on_random_configs(cfg):
    for n in range(1, 8):
        for la in shapes(n):
            assert delta_graded_dim(cfg, n, la) == delta_graded_dim_enum(cfg, n, la)


def test_wrong_graded_dim_raises(monkeypatch, cfg_e7):
    true_walks = decomp._walks

    def off_by_one(n, tab):
        # only the graded dimension (no target) is off; Delta stays right
        graded = true_walks(n, tab)
        return lambda target=None: (
            laurent.add(graded(), {0: 1}) if target is None else graded(target))

    monkeypatch.setattr(decomp, "_walks", off_by_one)
    with pytest.raises(RuntimeError, match="standard tableaux"):
        simple_graded_dims(cfg_e7, 4)


def test_first_shape_simple_equals_standard(cfg_e5_formal):
    for n in (3, 4, 5):
        dims = simple_graded_dims(cfg_e5_formal, n)
        top = shapes(n)[0]
        assert dims[top] == delta_graded_dim(cfg_e5_formal, n, top)


# -- ladder lower bounds -----------------------------------------------------

def test_bounds_generic_hit_full_dimension(cfg_generic):
    for n in range(1, 5):
        bounds = simple_dim_lower_bounds(cfg_generic, n)
        for la in shapes(n):
            assert bounds[la] == count_std(n, la)


@pytest.mark.parametrize("cfg_name", sorted(CONFIG_FACTORIES))
def test_bounds_match_enumeration(cfg_name):
    cfg = CONFIG_FACTORIES[cfg_name]()
    for n in range(1, 9):
        assert simple_dim_lower_bounds(cfg, n) == simple_dim_lower_bounds_enum(cfg, n)


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_bounds_match_walk_tally(path):
    cfg = load_config(path)
    for n in range(1, 13):
        assert simple_dim_lower_bounds(cfg, n) == simple_dim_lower_bounds_walks(cfg, n)


@pytest.mark.parametrize("cfg_name", ["e5_formal", "e14_fig", "e7"])
def test_bounds_below_conjectural_dims(cfg_name):
    cfg = CONFIG_FACTORIES[cfg_name]()
    for n in range(1, 6):
        dims = simple_graded_dims(cfg, n)
        bounds = simple_dim_lower_bounds(cfg, n)
        for la in shapes(n):
            assert 1 <= bounds[la] <= laurent.eval_one(dims[la])


# -- consequences of the conjecture ------------------------------------------

def _conjecture_consequences_hold(cfg, n):
    """Graded cellularity makes every simple module self-dual, so its
    conjectural graded dimension must be bar-symmetric with nonnegative
    coefficients and reach its ladder bound at v = 1; and N * A must
    give back Delta."""
    delta = delta_matrix(cfg, n)
    nmat, amat = na_factorize(delta)
    assert nmat.mul(amat).to_tsv() == delta.to_tsv(), n
    dims = simple_graded_dims(cfg, n)
    bounds = simple_dim_lower_bounds(cfg, n)
    for la in shapes(n):
        dim = dims[la]
        assert laurent.is_bar_symmetric(dim), (n, la, dim)
        assert all(c >= 0 for c in dim.values()), (n, la, dim)
        assert laurent.eval_one(dim) >= bounds[la], (n, la, dim, bounds[la])


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_conjecture_consequences_on_shipped_configs(path):
    cfg = load_config(path)
    for n in range(1, 17):
        _conjecture_consequences_hold(cfg, n)


@settings(max_examples=25, deadline=None)
@given(valid_configs())
def test_conjecture_consequences_on_random_configs(cfg):
    for n in range(1, 8):
        _conjecture_consequences_hold(cfg, n)


def test_theta_at_second_kappa_root_breaks_bar_symmetry():
    # why validate_config rejects theta = q^2/alpha1: with validation
    # bypassed, (0,theta) at n = 2 is not bar-symmetric (v + 3)
    cfg = parse_config({"e": 9, "points": {"alpha1": {"integral": -12},
                                           "alpha2": {"integral": 13},
                                           "theta": {"integral": -4}},
                        "inversions": {}})
    dim = simple_graded_dims(cfg, 2)[Shape(0, "theta")]
    assert not laurent.is_bar_symmetric(dim), dim
