"""Shared parameter configurations for the test suite.

The four "interesting" configurations exercise the main regimes: one
fully formal orbit at a root of unity, one integral at e = infinity,
two integral at even finite e with mirrored alpha markers, and one
integral at odd e (hyperplanes on odd positions).  The generic
configuration keeps every special point on its own orbit so that
nothing ever collides.

``valid_configs`` is a hypothesis strategy of random configurations
beyond these six, kept only when validate_config finds no violation;
a formal point may sit on an orbit or on its partner.
"""

import os

import pytest
from hypothesis import assume
from hypothesis import strategies as st

from blobalg.params import (
    Formal,
    Integral,
    Paired,
    SelfInverse,
    make_config,
    validate_config,
)


def _cfg_e5_formal():
    return make_config(
        5,
        {"alpha1": Formal("A", 0), "alpha2": Formal("A", 4), "theta": Formal("A", 6)},
        {"A": Paired("A*")},
    )


def _cfg_einf_integral():
    return make_config(
        None,
        {"alpha1": Integral(4), "alpha2": Integral(8), "theta": Formal("C", 0)},
        {"C": Paired("C*")},
    )


def _cfg_e14_mirror():
    # alpha markers swapped relative to cfg_e14_fig
    return make_config(
        14,
        {"alpha1": Integral(8), "alpha2": Integral(4), "theta": Formal("C", 0)},
        {"C": Paired("C*")},
    )


def _cfg_e14_fig():
    return make_config(
        14,
        {"alpha1": Integral(4), "alpha2": Integral(8), "theta": Formal("C", 0)},
        {"C": Paired("C*")},
    )


def _cfg_e7():
    return make_config(
        7,
        {"alpha1": Integral(4), "alpha2": Integral(3), "theta": Formal("C", 0)},
        {"C": Paired("C*")},
    )


def _cfg_generic():
    return make_config(
        None,
        {"alpha1": Formal("A", 0), "alpha2": Formal("B", 0), "theta": Formal("C", 0)},
        {"A": Paired("A*"), "B": Paired("B*"), "C": Paired("C*")},
    )


CONFIG_FACTORIES = {
    "e5_formal": _cfg_e5_formal,
    "einf_integral": _cfg_einf_integral,
    "e14_mirror": _cfg_e14_mirror,
    "e14_fig": _cfg_e14_fig,
    "e7": _cfg_e7,
    "generic": _cfg_generic,
}


_ORBITS = ("A", "B", "A*")


@st.composite
def valid_configs(draw):
    """A random configuration that passes validate_config: e finite
    (3..12) or infinite; each point integral or on one of the formal
    orbits A, B and A*, each orbit paired with a partner or self-inverse
    about an even center.  A point on A*, the partner orbit of A, forces
    A to be paired with it."""
    e = draw(st.one_of(st.none(), st.integers(min_value=3, max_value=12)))
    span = 2 * (e or 12)
    points = {}
    for name in ("alpha1", "alpha2", "theta"):
        if draw(st.booleans()):
            points[name] = Integral(draw(st.integers(-span, span)))
        else:
            points[name] = Formal(draw(st.sampled_from(_ORBITS)),
                                  2 * draw(st.integers(-span // 2, span // 2)))
    used = {p.orbit for p in points.values() if isinstance(p, Formal)}
    inversions = {"A": Paired("A*")} if "A*" in used else {}
    for orbit in sorted(used - {"A*"} - set(inversions)):
        if draw(st.booleans()):
            inversions[orbit] = Paired(orbit + "*")
        else:
            inversions[orbit] = SelfInverse(
                2 * draw(st.integers(-span // 2, span // 2)))
    cfg = make_config(e, points, inversions)
    assume(not validate_config(cfg))
    return cfg


@pytest.fixture
def cfg_e5_formal():
    return _cfg_e5_formal()


@pytest.fixture
def cfg_einf_integral():
    return _cfg_einf_integral()


@pytest.fixture
def cfg_e14_mirror():
    return _cfg_e14_mirror()


@pytest.fixture
def cfg_e14_fig():
    return _cfg_e14_fig()


@pytest.fixture
def cfg_e7():
    return _cfg_e7()


@pytest.fixture
def cfg_generic():
    return _cfg_generic()


@pytest.fixture(params=sorted(CONFIG_FACTORIES))
def any_cfg(request):
    return CONFIG_FACTORIES[request.param]()


@pytest.fixture(autouse=True)
def _blas_threads_restored():
    """An in-process calibrated-check defaults OPENBLAS_NUM_THREADS for
    its process; restore it so later subprocesses see the outer value."""
    before = os.environ.get("OPENBLAS_NUM_THREADS")
    yield
    if before is None:
        os.environ.pop("OPENBLAS_NUM_THREADS", None)
    else:
        os.environ["OPENBLAS_NUM_THREADS"] = before
