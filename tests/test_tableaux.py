import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blobalg.params import Residue
from blobalg.tableaux import (
    Shape,
    Tableau,
    bead,
    count_std,
    cstd,
    enumerate_std,
    from_negated_set,
    is_standard,
    is_valid_shape,
    max_negatives,
    negated_sets,
    parse_shape,
    parse_tableau,
    residue_seq,
    shape_str,
    shapes,
    t_lambda,
    tableau_texts,
)

from conftest import CONFIG_FACTORIES
from oracles import (
    box_contents,
    cstd_brute,
    shape_sort_key,
    t_lambda_entrywise,
    tableau_str_entries,
    weyl_act,
)


def test_shapes_small():
    assert shapes(1) == [Shape(1, "alpha1"), Shape(0, "theta")]
    assert shapes(2) == [
        Shape(2, "alpha1"),
        Shape(2, "alpha2"),
        Shape(2, "alpha2_inv"),
        Shape(0, "theta"),
    ]
    assert len(shapes(4)) == 8


def test_shapes_parity_and_order():
    for n in range(1, 10):
        lst = shapes(n)
        assert lst[-1] == Shape(0, "theta")
        assert all(s.k % 2 == n % 2 for s in lst[:-1])
        keys = [shape_sort_key(s) for s in lst]
        assert keys == sorted(keys)
        # no duplicates, and the k=1/k=2 marker restrictions hold
        assert len(set(lst)) == len(lst)
        assert Shape(1, "alpha2") not in lst
        assert Shape(2, "alpha1_inv") not in lst
        for s in lst:
            assert is_valid_shape(n, s)


def test_is_valid_shape_rejects():
    assert not is_valid_shape(5, Shape(4, "alpha1"))  # parity
    assert not is_valid_shape(5, Shape(7, "alpha1"))  # too wide
    assert not is_valid_shape(5, Shape(1, "alpha1_inv"))
    assert not is_valid_shape(6, Shape(2, "alpha1_inv"))
    assert not is_valid_shape(6, Shape(0, "alpha1"))
    assert is_valid_shape(6, Shape(0, "theta"))
    assert is_valid_shape(7, Shape(0, "theta"))  # zero shape ignores parity


def test_counts_match_enumeration():
    for n in range(0, 9):
        for s in shapes(n):
            assert count_std(n, s) == len(list(enumerate_std(n, s)))


def test_counts_golden():
    # one-wall figures: 16 tableaux for n=5 with bead box 3, 22 for n=6
    assert count_std(5, Shape(1, "alpha1")) == 16
    assert bead(5, 1) == 3
    assert count_std(6, Shape(2, "alpha2")) == 22
    assert bead(6, 2) == 3
    assert count_std(8, Shape(0, "theta")) == 2**8


def test_t_lambda_golden():
    t = t_lambda(19, Shape(3, "alpha1"))
    assert t.entries == (
        -16, -14, -12, -10, -8, -6, -4, -2,
        1, 3, 5, 7, 9, 11, 13, 15, 17, 18, 19,
    )
    assert t_lambda(8, Shape(0, "theta")).entries == (-8, -6, -4, -2, 1, 3, 5, 7)
    assert t_lambda(2, Shape(0, "theta")).entries == (-2, 1)
    # k = n means no paired boxes at all
    assert t_lambda(5, Shape(5, "alpha2")).entries == (1, 2, 3, 4, 5)


def test_t_lambda_matches_entrywise_oracle():
    # t_lambda from its negated values 2, 4, ..., 2(bead - 1) against
    # the box-by-box filling, on every shape with n <= 24
    pairs = [(n, s) for n in range(25) for s in shapes(n)]
    assert len(pairs) == 601
    for n, s in pairs:
        assert t_lambda(n, s) == t_lambda_entrywise(n, s), (n, s)


def test_t_lambda_is_standard_everywhere():
    for n in range(1, 11):
        for s in shapes(n):
            t = t_lambda(n, s)
            assert is_standard(n, s, t.entries)
            # negative entries fill every box left of the bead
            negs = sum(1 for v in t.entries if v < 0)
            assert negs == bead(n, s.k) - 1


def test_is_standard_rejects():
    s = Shape(2, "alpha1")
    assert is_standard(4, s, (-2, 1, 3, 4))
    assert not is_standard(4, s, (1, -2, 3, 4))  # not increasing
    assert not is_standard(4, s, (-4, -2, 1, 3))  # too many negatives
    assert not is_standard(4, s, (-2, 1, 3, 3))  # repeated value
    assert not is_standard(4, s, (-2, 1, 3, 5))  # not a permutation
    assert not is_standard(4, s, (-2, 1, 3))  # wrong length
    # the zero shape waives the bead bound
    assert is_standard(4, Shape(0, "theta"), (-4, -3, -2, -1))


def test_from_negated_set_round_trip():
    t = from_negated_set(6, Shape(2, "alpha2"), {5, 2})
    assert t.entries == (-5, -2, 1, 3, 4, 6)
    assert t.negated_set() == frozenset({2, 5})
    with pytest.raises(ValueError):
        from_negated_set(6, Shape(2, "alpha2"), {1, 2, 3})
    with pytest.raises(ValueError):
        from_negated_set(6, Shape(0, "theta"), {7})


def test_enumeration_order():
    ts = list(enumerate_std(3, Shape(1, "alpha1")))
    negsets = [tuple(sorted(t.negated_set())) for t in ts]
    assert negsets == [(), (1,), (2,), (3,)]
    assert ts[0].entries == (1, 2, 3)


@st.composite
def signed_rows(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    perm = draw(st.permutations(list(range(1, n + 1))))
    signs = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return tuple(v if s else -v for v, s in zip(perm, signs))


@given(signed_rows(), st.data())
def test_weyl_act_is_involutive(row, data):
    j = data.draw(st.integers(min_value=0, max_value=len(row) - 1))
    assert weyl_act(j, weyl_act(j, row)) == row


@given(signed_rows(), st.data())
def test_weyl_act_braid_relations(row, data):
    n = len(row)
    i = data.draw(st.integers(min_value=1, max_value=n - 1))
    j = data.draw(st.integers(min_value=1, max_value=n - 1))
    a, b = sorted((i, j))
    lhs = weyl_act(i, weyl_act(j, row))
    rhs = weyl_act(j, weyl_act(i, row))
    if b - a > 1 or a == b:
        assert lhs == rhs
    if b == a + 1:
        assert weyl_act(a, weyl_act(b, weyl_act(a, row))) == weyl_act(
            b, weyl_act(a, weyl_act(b, row))
        )


@given(signed_rows())
def test_weyl_act_four_braid_at_zero(row):
    lhs = row
    for j in (1, 0, 1, 0):
        lhs = weyl_act(j, lhs)
    rhs = row
    for j in (0, 1, 0, 1):
        rhs = weyl_act(j, rhs)
    assert lhs == rhs


def test_residue_seq_golden_alternating(cfg_e14_fig):
    # contents alternate between the marker orbit position and its
    # inverse-shifted partner before settling into consecutive shifts
    t = t_lambda(9, Shape(3, "alpha1"))
    res = residue_seq(cfg_e14_fig, 9, t)
    assert [r.orbit for r in res] == ["q"] * 9
    assert [r.exp for r in res] == [4, 26, 6, 0, 8, 2, 10, 12, 14]


def test_residue_seq_golden_theta(cfg_e5_formal):
    t = t_lambda(2, Shape(0, "theta"))
    res = residue_seq(cfg_e5_formal, 2, t)
    assert res[0] == Residue("A", 6)
    assert res[1] == Residue("A*", 6)  # inverse of theta, shifted once


def test_box_contents_center(cfg_e14_fig):
    contents = box_contents(cfg_e14_fig, 9, Shape(3, "alpha1"))
    p = bead(9, 3)
    assert contents[p] == cfg_e14_fig.point_residue("alpha1")
    assert contents[p + 1] == cfg_e14_fig.res_shift(contents[p], 1)


def test_shape_base_raw(cfg_e5_formal, cfg_e14_fig):
    assert cfg_e5_formal.point_site("alpha2") == ("A", 4)
    assert cfg_e5_formal.point_site("alpha2_inv") == ("A*", -4)
    assert cfg_e14_fig.point_site("alpha1_inv") == ("q", -4)
    # raw positions are deliberately not reduced mod 2e
    assert cfg_e14_fig.point_site("alpha1") == ("q", 4)


@pytest.mark.parametrize("cfg_name", sorted(CONFIG_FACTORIES))
def test_cstd_matches_brute_force(cfg_name):
    cfg = CONFIG_FACTORIES[cfg_name]()
    for n in range(1, 6):
        all_shapes = shapes(n)
        for mu in all_shapes:
            target = residue_seq(cfg, n, t_lambda(n, mu))
            for lam in all_shapes:
                fast = cstd(cfg, n, lam, target)
                slow = cstd_brute(cfg, n, lam, target)
                assert fast == slow, (cfg_name, n, lam, mu)


def test_cstd_arbitrary_targets(cfg_e7):
    # target residue sequences taken from tableaux rather than t_lambda
    n = 4
    for mu in shapes(n):
        for u in enumerate_std(n, mu):
            for lam in shapes(n):
                assert cstd(cfg_e7, n, lam, residue_seq(cfg_e7, n, u)) == cstd_brute(
                    cfg_e7, n, lam, u
                )


def test_cstd_diagonal_is_singleton(cfg_e7, cfg_e5_formal, cfg_einf_integral):
    for cfg in (cfg_e7, cfg_e5_formal, cfg_einf_integral):
        for n in range(1, 7):
            for mu in shapes(n):
                assert cstd(cfg, n, mu, mu) == [t_lambda(n, mu)]


def test_cstd_same_width_off_diagonal_empty(cfg_e7, cfg_e14_fig):
    for cfg in (cfg_e7, cfg_e14_fig):
        for n in range(1, 7):
            for mu in shapes(n):
                for lam in shapes(n):
                    if lam.k == mu.k and lam != mu:
                        assert cstd(cfg, n, lam, mu) == []


def test_cstd_dominance(cfg_e7, cfg_e14_fig, cfg_e5_formal):
    # a tableau sharing the residue sequence of t_lambda(mu) lives in a
    # shape no bigger than mu, with mu itself contributing only t_lambda
    for cfg in (cfg_e7, cfg_e14_fig, cfg_e5_formal):
        for n in range(1, 7):
            for mu in shapes(n):
                for lam in shapes(n):
                    hits = cstd(cfg, n, lam, mu)
                    if shape_sort_key(lam) < shape_sort_key(mu):
                        assert hits == []
                    elif lam == mu:
                        assert hits == [t_lambda(n, mu)]
                    # strictly smaller shapes may or may not contribute


def test_cstd_rejects_bad_target(cfg_e7):
    with pytest.raises(ValueError):
        cstd(cfg_e7, 3, Shape(1, "alpha1"), (Residue("q", 0),))
    with pytest.raises(ValueError):
        cstd(cfg_e7, 3, Shape(1, "alpha1"), "nonsense")


def test_generic_config_isolates_t_lambda(cfg_generic):
    # with all three points on independent formal orbits, nothing shares
    # a residue sequence across shapes
    for n in range(1, 6):
        for mu in shapes(n):
            for lam in shapes(n):
                expect = [t_lambda(n, mu)] if lam == mu else []
                assert cstd(cfg_generic, n, lam, mu) == expect


def test_shape_text_round_trip():
    for n in (3, 4):
        for s in shapes(n):
            assert parse_shape(shape_str(s)) == s
    assert parse_shape(" (0,theta) ") == Shape(0, "theta")
    for bad in ("(3 alpha1)", "(3,alpha3)", "3,alpha1", "(-1,theta)", "(3,Alpha1)"):
        with pytest.raises(ValueError):
            parse_shape(bad)


def test_tableau_text_round_trip():
    t = t_lambda(19, Shape(3, "alpha1"))
    assert parse_tableau(tableau_str_entries(t)) == t
    assert parse_tableau("(0,theta):[-2,1]") == Tableau(Shape(0, "theta"), (-2, 1))
    with pytest.raises(ValueError):
        parse_tableau("(2,alpha1):[-4,-2,1,3]")  # too many negatives
    with pytest.raises(ValueError):
        parse_tableau("(2,alpha1)[-2,1,3,4]")  # missing colon
    with pytest.raises(ValueError):
        parse_tableau("(3,alpha1):[-2,1,3,4]")  # wrong parity for n=4


def test_one_text_form_of_a_tableau():
    # tableau_texts over the negated sets against the entries of every
    # tableau enumerate_std builds, in the same order
    for n in range(1, 9):
        entries = tableau_texts(n)
        for s in shapes(n):
            got = [shape_str(s) + ":" + entries(negs)
                   for negs in negated_sets(n, s)]
            ts = list(enumerate_std(n, s))
            assert got == [tableau_str_entries(t) for t in ts], (n, s)


@given(st.integers(min_value=1, max_value=10), st.data())
def test_negated_set_round_trip(n, data):
    subset = data.draw(st.frozensets(st.integers(1, n)))
    t = from_negated_set(n, Shape(0, "theta"), subset)
    assert t.negated_set() == subset
    assert is_standard(n, Shape(0, "theta"), t.entries)


@settings(max_examples=60)
@given(st.integers(min_value=2, max_value=8), st.data())
def test_residue_seq_is_weyl_equivariant(n, data):
    # acting by s_j swaps/inverts residues exactly when it changes entries
    cfg = CONFIG_FACTORIES["e7"]()
    shape = data.draw(st.sampled_from(shapes(n)))
    tabs = list(enumerate_std(n, shape))
    t = data.draw(st.sampled_from(tabs))
    j = data.draw(st.integers(min_value=0, max_value=n - 1))
    moved = weyl_act(j, t.entries)
    if not is_standard(n, shape, moved):
        return
    res = residue_seq(cfg, n, t)
    res2 = residue_seq(cfg, n, Tableau(shape, moved))
    if j == 0:
        assert res2[0] == cfg.res_invert(res[0])
        assert res2[1:] == res[1:]
    else:
        swapped = list(res)
        swapped[j - 1], swapped[j] = swapped[j], swapped[j - 1]
        assert res2 == tuple(swapped)
