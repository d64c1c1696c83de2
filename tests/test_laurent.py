import pytest
from hypothesis import given
from hypothesis import strategies as st

from blobalg import laurent as lp

from oracles import from_json_obj

polys = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-9, max_value=9).filter(bool),
    max_size=6,
)


def test_zero_is_empty_dict():
    assert lp.add({1: 1}, {1: -1}) == {}
    assert lp.mul({}, {3: 5}) == {}


@given(polys, polys)
def test_add_commutes(f, g):
    assert lp.add(f, g) == lp.add(g, f)


@given(polys, polys, polys)
def test_add_associates(f, g, h):
    assert lp.add(lp.add(f, g), h) == lp.add(f, lp.add(g, h))


@given(polys)
def test_sub_self_is_zero(f):
    assert lp.sub(f, f) == {}


@given(polys, polys)
def test_mul_commutes(f, g):
    assert lp.mul(f, g) == lp.mul(g, f)


@given(polys, polys, polys)
def test_mul_distributes(f, g, h):
    assert lp.mul(f, lp.add(g, h)) == lp.add(lp.mul(f, g), lp.mul(f, h))


@given(polys)
def test_one_is_identity(f):
    assert lp.mul(f, {0: 1}) == f


@given(polys, polys)
def test_eval_one_is_ring_map(f, g):
    assert lp.eval_one(lp.add(f, g)) == lp.eval_one(f) + lp.eval_one(g)
    assert lp.eval_one(lp.mul(f, g)) == lp.eval_one(f) * lp.eval_one(g)


@given(polys, polys)
def test_bar_is_ring_involution(f, g):
    assert lp.bar(lp.bar(f)) == f
    assert lp.bar(lp.mul(f, g)) == lp.mul(lp.bar(f), lp.bar(g))


@given(polys)
def test_bar_split_reassembles(f):
    a, n = lp.bar_split(f)
    assert lp.add(a, n) == f
    assert lp.is_bar_symmetric(a)
    assert lp.is_positive(n)


@given(polys, polys.filter(lambda g: g != {}))
def test_bar_split_is_unique(f, g):
    # moving any nonzero bar-symmetric g between the parts breaks a side
    # condition; nonsymmetric g breaks the other one
    a, n = lp.bar_split(f)
    g_sym = lp.add(g, lp.bar(g))
    if g_sym:
        a2, n2 = lp.add(a, g_sym), lp.sub(n, g_sym)
        assert lp.add(a2, n2) == f
        assert not (lp.is_bar_symmetric(a2) and lp.is_positive(n2))


def test_bar_split_example():
    a, n = lp.bar_split({3: 1, 1: 2, -1: 1})
    assert a == {1: 1, -1: 1}
    assert n == {3: 1, 1: 1}


def test_bar_split_symmetric_input():
    f = {2: 1, 0: -3, -2: 1}
    a, n = lp.bar_split(f)
    assert a == f and n == {}


def test_to_str():
    assert lp.to_str({}) == "0"
    assert lp.to_str({0: -4}) == "-4"
    assert lp.to_str({4: 1, 0: -2, -1: 3}) == "v^4 - 2 + 3*v^-1"
    assert lp.to_str({1: -1, -3: -2}) == "-v - 2*v^-3"
    assert lp.to_str({1: 2}) == "2*v"


@given(polys)
def test_json_round_trip(f):
    assert from_json_obj(lp.to_json_obj(f)) == f


def test_from_json_rejects_junk():
    with pytest.raises(ValueError):
        from_json_obj([1, 2])
    with pytest.raises(ValueError):
        from_json_obj({"x": 1})
    with pytest.raises(ValueError):
        from_json_obj({"2": "3"})
    with pytest.raises(ValueError):
        from_json_obj({"2": True})
    assert from_json_obj({"2": 0}) == {}
