"""Numeric seeds, calibrated matrices, and relation checkers."""

import cmath
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import blobalg.calibrated as calibrated
from blobalg.calibrated import (
    NonGenericSeedError,
    blob_check,
    build_calibrated,
    check_hecke_relations,
    check_jm_spectrum,
    check_tl_relations,
    make_seed,
    residue_value,
)
from blobalg.params import (
    POINT_NAMES,
    Formal,
    Integral,
    Paired,
    SelfInverse,
    make_config,
    standing_violations,
    validate_config,
)
from blobalg.tableaux import (
    Shape,
    Tableau,
    count_std,
    enumerate_std,
    shapes,
)

from conftest import CONFIG_FACTORIES, valid_configs
from oracles import dense_xs, seminormal_partner, spectral_norm

TOL = 1e-8
CHECKERS = (check_hecke_relations, check_tl_relations, check_jm_spectrum, blob_check)


# -- seeds ---------------------------------------------------------------


def test_make_seed_is_deterministic(cfg_generic):
    a = make_seed(cfg_generic, 42)
    b = make_seed(cfg_generic, 42)
    assert (a.q, a.q0, a.qn) == (b.q, b.q0, b.qn)
    assert a.orbit_bases == b.orbit_bases
    assert make_seed(cfg_generic, 43).q != a.q


def test_seed_respects_config_points(any_cfg):
    seed = make_seed(any_cfg, 7)
    assert abs(abs(seed.q) - 1) < 1e-12
    for label, value in (("alpha1", seed.alpha1), ("alpha2", seed.alpha2)):
        r = any_cfg.point_residue(label)
        assert abs(residue_value(any_cfg, seed, r) - value) < 1e-12
    th = any_cfg.point_residue("theta")
    assert abs(residue_value(any_cfg, seed, th) - seed.theta_value) < 1e-12


def test_seed_q_has_exact_order(cfg_e7):
    seed = make_seed(cfg_e7, 5)
    assert abs(seed.q**14 - 1) < 1e-12
    assert all(abs(seed.q**m - 1) > 0.1 for m in range(1, 14))


def test_seed_paired_bases_are_reciprocal(cfg_generic):
    seed = make_seed(cfg_generic, 11)
    for orbit in ("A", "B", "C"):
        z = seed.orbit_bases[orbit]
        assert 0.5 <= abs(z) <= 2.0
        assert abs(z * seed.orbit_bases[orbit + "*"] - 1) < 1e-12


def test_boundary_parameters_land_in_annulus(any_cfg):
    for s in range(5):
        seed = make_seed(any_cfg, s)
        assert 0.5 - 1e-9 <= abs(seed.q0) <= 2.0 + 1e-9
        assert 0.5 - 1e-9 <= abs(seed.qn) <= 2.0 + 1e-9


# alpha1 and alpha2 on the partner orbits A and A*: alpha1*alpha2 = -q0^2
# pins q0, and the base of A is what is left free
PARTNER = make_config(
    None,
    {"alpha1": Formal("A", 0), "alpha2": Formal("A*", 6), "theta": Integral(5)},
    {"A": Paired("A*")},
)


@settings(max_examples=60, deadline=None)
@example(PARTNER)
@given(valid_configs())
def test_valid_configs_are_seeded_on_their_points(cfg):
    seed = make_seed(cfg, 0)
    for label, value in (("alpha1", seed.alpha1), ("alpha2", seed.alpha2)):
        want = residue_value(cfg, seed, cfg.point_residue(label))
        assert abs(value - want) <= 1e-12 * abs(want), label


@st.composite
def _sound_configs(draw):
    """Structurally sound configurations, valid or not, with no
    self-inverse orbit at finite e: A is paired with A*, and B with B*
    or, at e = infinity, self-inverse about a small even center."""
    e = draw(st.one_of(st.none(), st.integers(min_value=3, max_value=12)))
    span = 2 * (e or 12)
    points = {}
    for name in POINT_NAMES:
        if draw(st.booleans()):
            points[name] = Integral(draw(st.integers(-span, span)))
        else:
            points[name] = Formal(draw(st.sampled_from(("A", "A*", "B"))),
                                  2 * draw(st.integers(-span // 2, span // 2)))
    inversions = {"A": Paired("A*"), "B": Paired("B*")}
    if e is None and draw(st.booleans()):
        inversions["B"] = SelfInverse(2 * draw(st.integers(-3, 3)))
    return make_config(e, points, inversions)


@settings(max_examples=300, deadline=None)
@given(_sound_configs(), st.integers(min_value=0, max_value=10**6))
def test_numeric_standing_assumptions_match_exact(cfg, rng_seed):
    # the numeric evaluation make_seed runs, on res_to_complex values with
    # annulus bases, reports what validate_config reports on residues; a
    # self-inverse B at e = infinity takes the base -q^-c, which keeps its
    # points off the integral lattice
    rng = random.Random(rng_seed)
    q = calibrated._sample_q(cfg, rng)
    bases = {}
    for orbit, inv in cfg.inversions.items():
        if isinstance(inv, SelfInverse):
            bases[orbit] = -q ** -(inv.center // 2)
        elif orbit not in bases:
            bases[orbit] = calibrated._sample_annulus(rng)
            bases[inv.partner] = 1 / bases[orbit]
    seed = calibrated.NumericSeed(q, 1, 1, bases)
    with mock.patch.object(calibrated, "standing_violations",
                           wraps=standing_violations) as spy:
        calibrated._separated(cfg, seed)
    numeric = standing_violations(*spy.call_args.args)
    assert numeric == validate_config(cfg)


# -- construction --------------------------------------------------------


def test_dimension_matches_tableau_count(cfg_generic):
    seed = make_seed(cfg_generic, 1)
    for n in range(1, 6):
        for sh in shapes(n):
            m = build_calibrated(cfg_generic, n, sh, seed)
            assert m.dim == count_std(n, sh)
            assert all(mat.shape == (m.dim, m.dim) for _, mat, _ in m.generators())


def test_all_relations_hold_on_generic_config(cfg_generic):
    worst = 0.0
    for s in (0, 1):
        seed = make_seed(cfg_generic, s)
        for n in range(1, 6):
            for sh in shapes(n):
                m = build_calibrated(cfg_generic, n, sh, seed)
                for rep in (
                    check_hecke_relations(m),
                    check_tl_relations(m),
                    check_jm_spectrum(m),
                    blob_check(m),
                ):
                    assert rep["pass"], rep
                    worst = max(worst, rep["max_residual"])
    assert worst < TOL


def test_pairs_are_the_standard_weyl_partners(cfg_generic):
    # the off-diagonal support of T_i is the set of pairs {t, s_i t}
    # with s_i t standard, on every shape up to n = 8
    seed = make_seed(cfg_generic, 1)
    for n in range(1, 9):
        for sh in shapes(n):
            m = build_calibrated(cfg_generic, n, sh, seed)
            row = {t: r for r, t in enumerate(m.basis)}
            for i, mat in enumerate(np.asarray(g) for g in [m.t0] + m.ts):
                want = set()
                for t in m.basis:
                    other = seminormal_partner(n, t, i)
                    if other is not None:
                        want.add((row[other], row[t]))
                off = mat - np.diag(np.diag(mat))
                assert set(zip(*np.nonzero(off))) == want, (n, sh, i)


def test_n1_module_is_boundary_only(cfg_generic):
    seed = make_seed(cfg_generic, 3)
    m = build_calibrated(cfg_generic, 1, Shape(1, "alpha1"), seed)
    assert m.dim == 1
    # with no middle generators T_n is T_0v itself
    assert np.array_equal(m.tn, m.t0v)
    rep = check_hecke_relations(m)
    assert rep["pass"]
    assert "quadratic T0" in rep["relations"]
    assert "quadratic T0v" in rep["relations"]
    assert not any(k.startswith("braid") for k in rep["relations"])


def test_report_names_cover_both_braid_kinds(cfg_generic):
    seed = make_seed(cfg_generic, 3)
    m = build_calibrated(cfg_generic, 3, Shape(1, "alpha1"), seed)
    rel = check_hecke_relations(m)["relations"]
    assert "braid4 T0 T1" in rel
    assert "braid4 Tn T2" in rel
    assert "braid3 T1 T2" in rel
    assert "commute X1 X3" in rel


def test_blob_report_shapes(cfg_generic):
    seed = make_seed(cfg_generic, 4)
    kappa_rep = blob_check(build_calibrated(cfg_generic, 2, Shape(0, "theta"), seed))
    assert set(kappa_rep["relations"]) == {"I0 I1 I0 = kappa I0", "I1 I0 I1 = kappa I1"}
    assert kappa_rep["pass"]
    ann_rep = blob_check(build_calibrated(cfg_generic, 2, Shape(2, "alpha2"), seed))
    assert set(ann_rep["relations"]) == {"I0 = 0", "I1 = 0"}
    assert ann_rep["pass"]


def test_blob_kappa_holds_for_both_parities(cfg_generic):
    seed = make_seed(cfg_generic, 8)
    for n in (1, 2, 3, 4, 5):
        rep = blob_check(build_calibrated(cfg_generic, n, Shape(0, "theta"), seed))
        assert rep["max_residual"] < TOL, (n, rep)


# -- Jucys-Murphy spectrum ----------------------------------------------


def test_jm_elements_are_diagonal_with_residue_values(cfg_generic):
    seed = make_seed(cfg_generic, 9)
    for n in (2, 3, 4):
        for sh in shapes(n):
            m = build_calibrated(cfg_generic, n, sh, seed)
            rep = check_jm_spectrum(m)
            assert rep["max_residual"] < TOL, (n, sh, rep)


def test_jm_spectrum_separates_tableaux(cfg_generic):
    # generic seeds give distinct residue sequences distinct value tuples
    seed = make_seed(cfg_generic, 10)
    n, sh = 4, Shape(0, "theta")
    m = build_calibrated(cfg_generic, n, sh, seed)
    seen = set()
    for row in range(m.dim):
        key = tuple(round(g.real, 6) + 1j * round(g.imag, 6) for g in m.gamma[row])
        assert key not in seen
        seen.add(key)


# -- vanishing conditions ------------------------------------------------


def _column_norms(mat):
    return np.linalg.norm(mat, axis=0)


def test_e_zero_columns_match_eigenvalue_conditions(cfg_generic):
    seed = make_seed(cfg_generic, 12)
    q = seed.q
    for n in (2, 3, 4):
        for sh in shapes(n):
            m = build_calibrated(cfg_generic, n, sh, seed)
            eye = np.eye(m.dim)
            e0 = _column_norms(np.asarray(m.t0) - seed.q0 * eye)
            e0v = _column_norms(np.asarray(m.t0v) - seed.qn * eye)
            for row in range(m.dim):
                g1 = m.gamma[row][0]
                hits0 = min(abs(g1 - seed.alpha1), abs(g1 - seed.alpha2))
                hits0v = min(abs(g1 - seed.alpha1), abs(g1 - 1 / seed.alpha2))
                assert (e0[row] < 1e-6) == (hits0 < 1e-6), (n, sh, row)
                assert (e0v[row] < 1e-6) == (hits0v < 1e-6), (n, sh, row)
            for i, t in enumerate(m.ts, start=1):
                ei = _column_norms(np.asarray(t) - q * eye)
                for row in range(m.dim):
                    # e_i v_t = 0 exactly when gamma_{i+1} = q^2 gamma_i
                    ratio = m.gamma[row][i] / m.gamma[row][i - 1]
                    assert (ei[row] < 1e-6) == (abs(ratio - q**2) < 1e-6)


# -- degenerate configurations -------------------------------------------


def test_exact_residue_collision_raises(cfg_e7):
    # (-5,1,2,3,4,6) of shape (4,alpha1) has res_5 = res_6 on the nose
    # at e = 7, so the T_5 denominator vanishes for every seed
    seed = make_seed(cfg_e7, 0)
    with pytest.raises(NonGenericSeedError, match="non-generic seed"):
        build_calibrated(cfg_e7, 6, Shape(4, "alpha1"), seed)


def test_wall_eigenvalue_raises(cfg_einf_integral):
    # (-1,2,3,4,5,6) of shape (2,alpha1) has res_1 = 1 exactly, which
    # degenerates the boundary denominator 1 - g^2
    seed = make_seed(cfg_einf_integral, 0)
    with pytest.raises(NonGenericSeedError, match="T_0"):
        build_calibrated(cfg_einf_integral, 6, Shape(2, "alpha1"), seed)


def test_error_names_the_offending_tableau(cfg_e7):
    seed = make_seed(cfg_e7, 0)
    t = Tableau(Shape(4, "alpha1"), (-5, 1, 2, 3, 4, 6))
    assert t in set(enumerate_std(6, t.shape))
    try:
        build_calibrated(cfg_e7, 6, t.shape, seed)
    except NonGenericSeedError as exc:
        assert "T_" in str(exc)
    else:
        pytest.fail("expected a degenerate denominator")


def test_integral_configs_verify_when_buildable(cfg_e14_fig):
    seed = make_seed(cfg_e14_fig, 3)
    built = 0
    for sh in shapes(4):
        try:
            m = build_calibrated(cfg_e14_fig, 4, sh, seed)
        except NonGenericSeedError:
            continue
        built += 1
        assert check_hecke_relations(m)["pass"]
        assert check_tl_relations(m)["pass"]
        assert blob_check(m)["pass"]
    assert built > 0


# -- property tests --------------------------------------------------------


def _generic_cfg():
    from blobalg.params import Formal, Paired, make_config

    return make_config(
        None,
        {"alpha1": Formal("A", 0), "alpha2": Formal("B", 0), "theta": Formal("C", 0)},
        {"A": Paired("A*"), "B": Paired("B*"), "C": Paired("C*")},
    )


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_random_seeds_verify_small_modules(seed_int):
    cfg = _generic_cfg()
    seed = make_seed(cfg, seed_int)
    for n in (1, 2, 3):
        for sh in shapes(n):
            m = build_calibrated(cfg, n, sh, seed)
            assert check_hecke_relations(m)["pass"]
            assert check_tl_relations(m)["pass"]
            assert blob_check(m)["pass"]


def test_total_square_dimension_is_seed_free(cfg_generic):
    for n in (1, 2, 3, 4, 5):
        total = sum(count_std(n, sh) ** 2 for sh in shapes(n))
        for s in (0, 1):
            seed = make_seed(cfg_generic, s)
            built = sum(
                build_calibrated(cfg_generic, n, sh, seed).dim ** 2
                for sh in shapes(n)
            )
            assert built == total


# -- residual norm ---------------------------------------------------------

# Both norms are rounded, so "never below the spectral norm" is checked
# up to a relative 1e-12; a Frobenius bound a few ulps under a spectral
# norm of rank one is rounding, not under-reporting.
NORM_SLACK = 1e-12


def _buildable(cfg, n, seed):
    for sh in shapes(n):
        try:
            yield build_calibrated(cfg, n, sh, seed)
        except NonGenericSeedError:
            continue


@pytest.mark.parametrize("tol", [1e-30, 1e-8, 1.0, 1e3])
def test_norm_bounds_spectral_on_random_matrices(tol):
    rng = np.random.default_rng(7)
    for dim in (1, 2, 5, 16, 33):
        for scale in (1e-12, 1e-6, 1.0, 10.0):
            mat = scale * (rng.standard_normal((dim, dim))
                           + 1j * rng.standard_normal((dim, dim)))
            spectral = np.linalg.norm(mat, 2)
            got = calibrated._norm(mat, tol)
            assert got >= spectral * (1 - NORM_SLACK)
            if got >= tol:
                assert got == spectral


@pytest.mark.parametrize("cfg_name", ["generic", "e7"])
def test_norm_bounds_spectral_on_residuals(cfg_name, monkeypatch):
    cfg = CONFIG_FACTORIES[cfg_name]()
    seen = []
    real = calibrated._norm

    def recording(mat, tol):
        seen.append((mat, tol))
        return real(mat, tol)

    monkeypatch.setattr(calibrated, "_norm", recording)
    for n in range(1, 6):
        for m in _buildable(cfg, n, make_seed(cfg, n)):
            for checker in CHECKERS:
                checker(m)
    assert len(seen) > 100
    for mat, tol in seen:
        spectral = np.linalg.norm(mat, 2)
        assert real(mat, tol) >= spectral * (1 - NORM_SLACK)


def _commutator_norm(a, b, dtype):
    """Spectral norm of ab - ba, the products formed in dtype."""
    a, b = a.astype(dtype), b.astype(dtype)
    return np.linalg.norm((a @ b - b @ a).astype(complex), 2)


@pytest.mark.parametrize("cfg_name", sorted(CONFIG_FACTORIES))
def test_x_commutator_bound_against_dense(cfg_name):
    # Below tol a commute X_i X_j value is the O(1) bound, never under the
    # spectral norm of the dense commutator; with tol at or under every
    # such bound each pair is rebuilt, and its value is the dense residual.
    cfg = CONFIG_FACTORIES[cfg_name]()
    seen = 0
    for s in range(3):
        seed = make_seed(cfg, s)
        for n in range(2, 8):
            for m in _buildable(cfg, n, seed):
                xs = dense_xs(m)
                pairs = {"commute X%d X%d" % (i + 1, j + 1): (i, j)
                         for i in range(n) for j in range(i + 1, n)}
                bounds = check_hecke_relations(m)["relations"]
                tol = min(bounds[name] for name in pairs)
                exact = check_hecke_relations(m, tol)["relations"]
                for name, (i, j) in pairs.items():
                    a, b = xs[i], xs[j]
                    # the Frobenius norm bounds the spectral norm, so an
                    # SVD runs only where it does not settle the bound;
                    # near 1e-16 the double products round by more than
                    # the commutator, and the last resort forms it in
                    # extended precision
                    norm = np.linalg.norm(a @ b - b @ a)
                    for dtype in (complex, np.clongdouble):
                        if bounds[name] >= norm * (1 - NORM_SLACK):
                            break
                        norm = _commutator_norm(a, b, dtype)
                    assert bounds[name] >= norm * (1 - NORM_SLACK), (
                        s, n, name)
                    assert exact[name] == calibrated._residual(
                        calibrated._commutator(a, b), tol), (s, n, name)
                    seen += bounds[name] < TOL
    assert seen > 1000


def _reports(cfg, n, seed, tol):
    return [checker(m, tol) for m in _buildable(cfg, n, seed)
            for checker in CHECKERS]


@pytest.mark.parametrize("seed_int", [0, 1, 2, 45, 46])
def test_norm_gate_agrees_with_spectral_oracle(cfg_generic, seed_int,
                                               monkeypatch):
    seed = make_seed(cfg_generic, seed_int)
    # 1e-14 sits inside the residual range, so both outcomes occur; the
    # annihilation residuals reach 3e-31, below 1e-30, so only tol = 0
    # sends every relation through the spectral norm
    for tol in (1e-8, 1e-14, 1e-30, 0.0):
        for n in range(1, 6):
            got = _reports(cfg_generic, n, seed, tol)
            with monkeypatch.context() as mp:
                mp.setattr(calibrated, "_norm", spectral_norm)
                want = _reports(cfg_generic, n, seed, tol)
            assert [r["pass"] for r in got] == [r["pass"] for r in want]
            for g, w in zip(got, want):
                if not w["pass"]:
                    worst = max(w["relations"], key=w["relations"].get)
                    assert max(g["relations"], key=g["relations"].get) == worst
                    assert g["max_residual"] == w["max_residual"]
                for name, value in g["relations"].items():
                    if value >= tol:
                        assert value == w["relations"][name]
                    else:
                        assert w["relations"][name] < tol
