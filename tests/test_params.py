import cmath
import json
import re
from pathlib import Path

import pytest

from blobalg import params as pm
from blobalg.params import Formal, Integral, Paired, Residue, SelfInverse

from oracles import marker_label_at_loop, orbits


def test_residue_reduction_mod_2e(cfg_e5_formal):
    cfg = cfg_e5_formal
    assert cfg.residue("A", 13) == Residue("A", 3)
    assert cfg.residue("A", -2) == Residue("A", 8)
    assert cfg.residue("q", 0) == Residue("q", 0)


def test_residue_no_reduction_at_infinity(cfg_einf_integral):
    cfg = cfg_einf_integral
    assert cfg.residue("q", 37) == Residue("q", 37)
    assert cfg.residue("q", 37) != cfg.residue("q", 37 + 2 * 14)


def test_unknown_orbit_rejected(cfg_e5_formal):
    with pytest.raises(ValueError):
        cfg_e5_formal.residue("Z", 0)


def test_res_shift_examples(cfg_e5_formal, cfg_einf_integral):
    # shifting by k multiplies by q^(2k)
    assert cfg_e5_formal.res_shift(Residue("A", 0), 2) == Residue("A", 4)
    assert cfg_e5_formal.res_shift(Residue("A", 6), 2) == Residue("A", 0)
    assert cfg_einf_integral.res_shift(Residue("q", 4), -2) == Residue("q", 0)


def test_res_invert_examples(cfg_e5_formal, cfg_einf_integral):
    assert cfg_einf_integral.res_invert(Residue("q", 4)) == Residue("q", -4)
    assert cfg_e5_formal.res_invert(Residue("A", 4)) == Residue("A*", -4 % 10)


def test_res_invert_is_involution(any_cfg):
    cfg = any_cfg
    for orbit in sorted(orbits(cfg)):
        for x in range(-6, 7):
            r = cfg.residue(orbit, x)
            assert cfg.res_invert(cfg.res_invert(r)) == r


def test_six_special_points_distinct(any_cfg):
    cfg = any_cfg
    residues = [cfg.point_residue(label) for label in pm.MARKER_LABELS]
    assert len(set(residues)) == 6


def test_point_residue_is_residue_of_point_site(any_cfg):
    cfg = any_cfg
    for label in pm.MARKER_LABELS:
        assert cfg.point_residue(label) == cfg.residue(*cfg.point_site(label))


def test_marker_table_matches_six_label_loop(any_cfg):
    cfg = any_cfg
    # +-60 holds every special point and its 2e-translates (2e <= 28)
    for orbit in sorted(orbits(cfg)):
        for x in range(-60, 61):
            assert cfg.marker_label_at(orbit, x) == marker_label_at_loop(cfg, orbit, x)


def test_marker_table_first_label_wins():
    # alpha1 = alpha1_inv = (S, 2) on a self-inverse orbit through 4
    cfg = pm.make_config(
        6,
        {"alpha1": Formal("S", 2), "alpha2": Formal("S", 8), "theta": Formal("C", 0)},
        {"S": SelfInverse(4), "C": Paired("C*")},
    )
    assert cfg.point_residue("alpha1") == cfg.point_residue("alpha1_inv")
    assert cfg.marker_label_at("S", 2) == "alpha1"
    assert cfg.marker_label_at("S", 14) == "alpha1"  # 2e-translate
    for orbit in sorted(orbits(cfg)):
        for x in range(-30, 31):
            assert cfg.marker_label_at(orbit, x) == marker_label_at_loop(cfg, orbit, x)


def test_marker_label_at(cfg_e5_formal, cfg_einf_integral):
    cfg = cfg_e5_formal
    assert cfg.marker_label_at("A", 4) == "alpha2"
    assert cfg.marker_label_at("A", 10) == "alpha1"  # 2e-translate
    assert cfg.marker_label_at("A", 6) == "theta"
    assert cfg.marker_label_at("A", 2) is None
    assert cfg.marker_label_at("A*", 0) == "alpha1_inv"
    assert cfg.marker_label_at("A*", -4) == "alpha2_inv"
    assert cfg.marker_label_at("A*", 4) == "theta_inv"
    cfg2 = cfg_einf_integral
    assert cfg2.marker_label_at("q", 8) == "alpha2"
    assert cfg2.marker_label_at("q", -8) == "alpha2_inv"
    assert cfg2.marker_label_at("q", 8 + 28) is None  # no translates at e=infinity


def test_marker_label_is_2e_periodic(cfg_e7):
    cfg = cfg_e7
    for x in range(-14, 15):
        assert cfg.marker_label_at("q", x) == cfg.marker_label_at("q", x + 14)


def test_on_hyperplane(cfg_e7, cfg_einf_integral, cfg_e5_formal):
    assert cfg_e7.on_hyperplane("q", 0)
    assert cfg_e7.on_hyperplane("q", 7)
    assert cfg_e7.on_hyperplane("q", -14)
    assert not cfg_e7.on_hyperplane("q", 4)
    assert cfg_einf_integral.on_hyperplane("q", 0)
    assert not cfg_einf_integral.on_hyperplane("q", 14)
    assert not cfg_e5_formal.on_hyperplane("A", 0)
    assert not cfg_e5_formal.on_hyperplane("A*", 5)


def test_self_inverse_orbit_geometry():
    cfg = pm.make_config(
        6,
        {"alpha1": Formal("S", 2), "alpha2": Formal("S", 8), "theta": Formal("C", 0)},
        {"S": SelfInverse(4), "C": Paired("C*")},
    )
    r = cfg.residue("S", 2)
    assert cfg.res_invert(r) == cfg.residue("S", 2)  # fixed by inversion: 4-2=2
    assert cfg.res_invert(cfg.residue("S", 8)) == cfg.residue("S", -4)
    # walls sit at center/2 plus multiples of e
    assert cfg.on_hyperplane("S", 2)
    assert cfg.on_hyperplane("S", 8)
    assert not cfg.on_hyperplane("S", 4)
    # alpha1 sits on a wall here, so this config cannot be valid
    assert pm.validate_config(cfg)


def test_validate_golden_configs(any_cfg):
    assert pm.validate_config(any_cfg) == []


def test_validate_alpha_equal_one():
    cfg = pm.make_config(
        5,
        {"alpha1": Integral(0), "alpha2": Integral(4), "theta": Formal("C", 0)},
        {"C": Paired("C*")},
    )
    violations = pm.validate_config(cfg)
    assert any("alpha1" in v and "+-1" in v for v in violations)


def test_validate_e_too_small():
    cfg = pm.make_config(
        2,
        {"alpha1": Formal("A", 0), "alpha2": Formal("B", 0), "theta": Formal("C", 0)},
        {"A": Paired("A*"), "B": Paired("B*"), "C": Paired("C*")},
    )
    assert any("e must be" in v for v in pm.validate_config(cfg))


def test_validate_base_collisions():
    cfg = pm.make_config(
        None,
        {"alpha1": Integral(4), "alpha2": Integral(4), "theta": Formal("C", 0)},
        {"C": Paired("C*")},
    )
    assert any("collide" in v for v in pm.validate_config(cfg))
    # alpha2 = alpha1^{-1} q^2 collides shifted-vs-base
    cfg2 = pm.make_config(
        None,
        {"alpha1": Integral(4), "alpha2": Integral(-2), "theta": Formal("C", 0)},
        {"C": Paired("C*")},
    )
    assert any("collide" in v for v in pm.validate_config(cfg2))


def test_validate_theta_constraints():
    base = {"alpha1": Integral(4), "alpha2": Integral(8)}
    for bad_exp in (0, 1, 2, 4, -8):
        cfg = pm.make_config(None, dict(base, theta=Integral(bad_exp)), {})
        assert pm.validate_config(cfg), "theta exponent %d must be rejected" % bad_exp
    ok = pm.make_config(None, dict(base, theta=Integral(13)), {})
    assert pm.validate_config(ok) == []


def test_validate_odd_offset_and_missing_inversion():
    cfg = pm.make_config(
        5,
        {"alpha1": Formal("A", 1), "alpha2": Formal("B", 0), "theta": Formal("C", 0)},
        {"B": Paired("B*"), "C": Paired("C*")},
    )
    v = pm.validate_config(cfg)
    assert any("must be even" in s for s in v)
    assert any("no declared inversion" in s for s in v)


def test_make_config_closes_pairing(cfg_e5_formal):
    assert cfg_e5_formal.inversions["A*"] == Paired("A")
    with pytest.raises(ValueError):
        pm.make_config(5, {}, {"A": Paired("B"), "B": Paired("C")})


def test_parse_and_dump_round_trip(any_cfg):
    obj = pm.config_to_obj(any_cfg)
    again = pm.parse_config(json.loads(json.dumps(obj)))
    assert again == any_cfg


def test_parse_rejects_unknown_keys():
    good = {
        "e": 5,
        "points": {
            "alpha1": {"orbit": "A", "offset": 0},
            "alpha2": {"orbit": "A", "offset": 4},
            "theta": {"orbit": "A", "offset": 6},
        },
        "inversions": {"A": {"paired": "A*"}},
    }
    assert pm.validate_config(pm.parse_config(good)) == []

    bad = dict(good, extra=1)
    with pytest.raises(ValueError, match="unknown keys"):
        pm.parse_config(bad)

    bad = json.loads(json.dumps(good))
    bad["points"]["alpha1"] = {"orbit": "A", "offset": 0, "exp": 3}
    with pytest.raises(ValueError):
        pm.parse_config(bad)

    bad = json.loads(json.dumps(good))
    bad["points"]["alpha1"] = {"integral": 4, "orbit": "A"}
    with pytest.raises(ValueError):
        pm.parse_config(bad)

    bad = json.loads(json.dumps(good))
    del bad["points"]["theta"]
    with pytest.raises(ValueError, match="missing"):
        pm.parse_config(bad)

    bad = json.loads(json.dumps(good))
    bad["e"] = True
    with pytest.raises(ValueError):
        pm.parse_config(bad)

    bad = json.loads(json.dumps(good))
    bad["inversions"]["A"] = {"paired": "A*", "self_center": 0}
    with pytest.raises(ValueError):
        pm.parse_config(bad)


def test_parse_e_infinity():
    obj = {
        "e": "infinity",
        "points": {
            "alpha1": {"integral": 4},
            "alpha2": {"integral": 8},
            "theta": {"orbit": "C", "offset": 0},
        },
        "inversions": {"C": {"paired": "C*"}},
    }
    cfg = pm.parse_config(obj)
    assert cfg.e is None
    assert pm.config_to_obj(cfg)["e"] == "infinity"
    with pytest.raises(ValueError):
        pm.parse_config(dict(obj, e="inf"))


ROOT = Path(__file__).resolve().parents[1]


def test_shipped_configs_load_and_validate():
    paths = sorted((ROOT / "configs").glob("*.json"))
    assert paths
    for path in paths:
        assert pm.validate_config(pm.load_config(path)) == [], path.name


def test_readme_config_fragments_parse():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Configuration files", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```json\n(.*?)```", section, re.S)
    full = json.loads(block)
    assert pm.parse_config(full) == pm.load_config(ROOT / "configs" / "e5-formal.json")

    # every inline JSON fragment, placed where it belongs in a config
    base = {
        "e": 7,
        "points": {"alpha1": {"integral": 4}, "alpha2": {"integral": 3},
                   "theta": {"orbit": "T", "offset": 0}},
        "inversions": {"T": {"paired": "T*"}},
    }
    kinds = set()
    inline = re.sub(r"```.*?```", "", section, flags=re.S)
    for span in re.findall(r"`([^`\n]+)`", inline):
        try:
            frag = json.loads(span)
        except ValueError:
            continue  # a key or file name, not a JSON value
        obj = json.loads(json.dumps(base))
        if isinstance(frag, dict) and set(frag) in ({"orbit", "offset"}, {"integral"}):
            obj["points"]["alpha1"] = frag
            if "orbit" in frag:
                obj["inversions"][frag["orbit"]] = {"paired": frag["orbit"] + "*"}
        elif isinstance(frag, dict):
            obj["inversions"]["T"] = frag
        else:
            obj["e"] = frag
        pm.parse_config(obj)
        kinds.add(tuple(sorted(frag)) if isinstance(frag, dict) else "e")
    assert kinds == {("offset", "orbit"), ("integral",), ("paired",),
                     ("self_center",), "e"}


def test_res_to_complex_integral(cfg_einf_integral):
    q = cmath.exp(2j * cmath.pi * 0.123)
    val = pm.res_to_complex(cfg_einf_integral, Residue("q", 4), q)
    assert abs(val - q**4) < 1e-12


def test_res_to_complex_checks_q_order(cfg_e5_formal):
    cfg = cfg_e5_formal
    good = cmath.exp(2j * cmath.pi / 10)
    bases = {"A": 2j, "A*": -0.5j}
    assert abs(pm.res_to_complex(cfg, Residue("A", 2), good, bases) - 2j * good**2) < 1e-12
    with pytest.raises(ValueError, match="order"):
        pm.res_to_complex(cfg, Residue("A", 2), cmath.exp(2j * cmath.pi / 5), bases)
    with pytest.raises(ValueError, match="q does not satisfy"):
        pm.res_to_complex(cfg, Residue("A", 2), 1.1 * good, bases)
    with pytest.raises(ValueError, match="base"):
        pm.res_to_complex(cfg, Residue("A", 2), good, {})
    with pytest.raises(ValueError, match="not inverse"):
        pm.res_to_complex(cfg, Residue("A", 2), good, {"A": 2j, "A*": 3j})


def test_res_to_complex_inversion_consistency(any_cfg):
    cfg = any_cfg
    if cfg.e is None:
        q = cmath.exp(2j * cmath.pi * 0.08721)
    else:
        q = cmath.exp(2j * cmath.pi / (2 * cfg.e))
    bases = {}
    seeds = [0.7 + 0.4j, 1.1 - 0.3j, 0.2 + 0.9j]
    for orbit in sorted(cfg.inversions):
        inv = cfg.inversions[orbit]
        if isinstance(inv, Paired) and orbit not in bases:
            z = seeds[len(bases) % len(seeds)]
            bases[orbit] = z
            bases[inv.partner] = 1 / z
    for orbit in sorted(orbits(cfg)):
        for x in (-3, 0, 2, 5):
            r = cfg.residue(orbit, x)
            v = pm.res_to_complex(cfg, r, q, bases)
            w = pm.res_to_complex(cfg, cfg.res_invert(r), q, bases)
            assert abs(v * w - 1) < 1e-9
