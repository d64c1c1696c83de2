import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest

import blobalg.calibrated as calibrated
import blobalg.cli as cli
import blobalg.paths as paths
import blobalg.tableaux as tableaux
from blobalg import laurent
from blobalg.calibrated import (
    MAX_MODULE_BYTES,
    build_calibrated,
    make_seed,
    module_bytes,
)
from blobalg.cli import _CHECKS, run
from blobalg.decomp import simple_dim_lower_bounds, simple_graded_dims
from blobalg.params import load_config, parse_config, validate_config
from blobalg.tableaux import (
    count_std,
    enumerate_std,
    parse_shape,
    shape_str,
    shapes,
    tableau_str,
)

from oracles import degree_klr_residues, degree_tiles_tilewise, tau_order_scan

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"


def invoke(capsys, *argv):
    rc = run(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_validate_ok(capsys):
    rc, out, _ = invoke(capsys, "validate", "--config", str(CONFIGS / "e5-formal.json"))
    assert rc == 0
    assert out.startswith("ok\ne\t5\n")
    assert "alpha2\torbit A offset 4" in out


def test_validate_json_round_trip(capsys):
    rc, out, _ = invoke(capsys, "validate", "--config",
                        str(CONFIGS / "einf-integral.json"), "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["ok"] is True
    assert obj["config"]["e"] == "infinity"
    assert obj["config"]["points"]["alpha1"] == {"integral": 4}


def test_validate_rejects_standing_assumption_violation(tmp_path, capsys):
    bad = tmp_path / "e2.json"
    bad.write_text(json.dumps({
        "e": 2,
        "points": {"alpha1": {"orbit": "A", "offset": 0},
                   "alpha2": {"orbit": "B", "offset": 0},
                   "theta": {"orbit": "C", "offset": 0}},
        "inversions": {"A": {"paired": "A*"}, "B": {"paired": "B*"},
                       "C": {"paired": "C*"}},
    }))
    rc, out, _ = invoke(capsys, "validate", "--config", str(bad))
    assert rc == 1
    assert out.startswith("invalid\n")
    rc, out, _ = invoke(capsys, "validate", "--config", str(bad),
                        "--format", "json")
    assert rc == 1
    assert json.loads(out)["ok"] is False


# theta = q^2/alpha1 (q^14 = q^-4 at e = 9): the blob relation's kappa
# [theta/q] - [alpha1/q] vanishes at even n
KAPPA_ROOT = {"e": 9, "points": {"alpha1": {"integral": -12},
                                 "alpha2": {"integral": 13},
                                 "theta": {"integral": -4}},
              "inversions": {}}


def test_validate_rejects_theta_at_second_kappa_root(tmp_path, capsys):
    assert validate_config(parse_config(KAPPA_ROOT)) == [
        "theta equals q^2/alpha1"]
    bad = tmp_path / "kappa.json"
    bad.write_text(json.dumps(KAPPA_ROOT))
    rc, out, _ = invoke(capsys, "validate", "--config", str(bad))
    assert rc == 1
    assert out == "invalid\ntheta equals q^2/alpha1\n"
    rc, _, _ = invoke(capsys, "bounds", "--config", str(bad), "--n", "2")
    assert rc == 1


def test_malformed_config_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"e": 5}')
    rc, _, err = invoke(capsys, "validate", "--config", str(bad))
    assert rc == 2
    assert "missing keys" in err
    bad.write_text("not json")
    rc, _, err = invoke(capsys, "delta", "--config", str(bad), "--n", "3")
    assert rc == 2
    assert "not valid JSON" in err
    rc, _, err = invoke(capsys, "shapes")  # missing --n
    assert rc == 2


def test_missing_config_file(capsys):
    rc, _, err = invoke(capsys, "validate", "--config", "/no/such/file.json")
    assert rc == 2
    assert "cannot read config" in err


def test_other_commands_reject_invalid_config(tmp_path, capsys):
    bad = tmp_path / "e2.json"
    bad.write_text(json.dumps({
        "e": 2,
        "points": {"alpha1": {"orbit": "A", "offset": 0},
                   "alpha2": {"orbit": "B", "offset": 0},
                   "theta": {"orbit": "C", "offset": 0}},
        "inversions": {"A": {"paired": "A*"}, "B": {"paired": "B*"},
                       "C": {"paired": "C*"}},
    }))
    rc, _, err = invoke(capsys, "blocks", "--config", str(bad), "--n", "3")
    assert rc == 1
    assert "standing assumptions" in err


def test_shapes_listing(capsys):
    rc, out, _ = invoke(capsys, "shapes", "--n", "4")
    assert rc == 0
    lines = out.strip().split("\n")
    assert len(lines) == len(shapes(4))
    assert lines[-1] == "(0,theta)\t16"
    rc, out, _ = invoke(capsys, "shapes", "--n", "4", "--format", "json")
    obj = json.loads(out)
    for row in obj["shapes"]:
        assert row["std_count"] == count_std(4, parse_shape(row["shape"]))


def test_tableaux_theta_n2_lists_four(capsys):
    rc, out, _ = invoke(capsys, "tableaux", "--n", "2", "--shape", "(0,theta)")
    assert rc == 0
    assert out.splitlines() == [
        "(0,theta):[1,2]",
        "(0,theta):[-1,2]",
        "(0,theta):[-2,1]",
        "(0,theta):[-2,-1]",
    ]


def test_tableaux_unknown_shape_is_usage_error(capsys):
    rc, _, err = invoke(capsys, "tableaux", "--n", "3", "--shape", "(2,alpha1)")
    assert rc == 2
    assert "not a shape" in err
    rc, _, err = invoke(capsys, "tableaux", "--n", "3", "--shape", "(2,beta)")
    assert rc == 2


def test_decomp_block_tsv_golden(capsys):
    rc, out, _ = invoke(capsys, "decomp", "--config",
                        str(CONFIGS / "e5-formal.json"), "--n", "16",
                        "--block-of", "(16,alpha1)", "--jobs", "1")
    assert rc == 0
    assert out == (
        "# conjectural\n"
        "\t(16,alpha1)\t(16,alpha1_inv)\t(12,alpha2)\t(10,alpha2_inv)"
        "\t(6,alpha1)\t(6,alpha1_inv)\t(2,alpha2)\t(0,theta)\n"
        "(16,alpha1)\t1\t0\t0\t0\t0\t0\t0\t0\n"
        "(16,alpha1_inv)\t0\t1\t0\t0\t0\t0\t0\t0\n"
        "(12,alpha2)\tv\t0\t1\t0\t0\t0\t0\t0\n"
        "(10,alpha2_inv)\t0\tv\t0\t1\t0\t0\t0\t0\n"
        "(6,alpha1)\tv^2\t0\tv\t0\t1\t0\t0\t0\n"
        "(6,alpha1_inv)\t0\tv^2\t0\tv\t0\t1\t0\t0\n"
        "(2,alpha2)\tv^3\t0\tv^2\t0\tv\t0\t1\t0\n"
        "(0,theta)\tv^4\tv^3\tv^3\tv^2\tv^2\tv\tv\t1\n"
    )


def test_decomp_block_json_flags_conjectural(capsys):
    rc, out, _ = invoke(capsys, "decomp", "--config",
                        str(CONFIGS / "einf-integral.json"), "--n", "18",
                        "--block-of", "(18,alpha2_inv)", "--jobs", "1",
                        "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["conjectural"] is True
    assert obj["n"] == 18
    assert obj["shapes"] == ["(18,alpha2_inv)", "(14,alpha1_inv)",
                             "(6,alpha1)", "(2,alpha2)"]
    assert obj["entries"][2] == [{"1": 1}, {}, {"0": 1}, {}]


def test_delta_all_blocks_layout(capsys):
    rc, out, _ = invoke(capsys, "delta", "--config", str(CONFIGS / "e7.json"),
                        "--n", "4", "--jobs", "1")
    assert rc == 0
    assert out.startswith("# block 1 of ")
    chunks = out.split("\n\n")
    listed = []
    for chunk in chunks:
        header = chunk.splitlines()[1]
        listed.extend(s for s in header.split("\t") if s)
    assert sorted(listed) == sorted("(%d,%s)" % s for s in shapes(4))


def test_blocks_cover_all_shapes(capsys):
    rc, out, _ = invoke(capsys, "blocks", "--config",
                        str(CONFIGS / "einf-integral.json"), "--n", "6",
                        "--jobs", "1", "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    seen = [s for b in obj["blocks"] for s in b]
    assert sorted(seen) == sorted("(%d,%s)" % s for s in shapes(6))
    assert ["(6,alpha1)", "(2,alpha2)"] in obj["blocks"]


def test_ladders_generic_lists_everything(capsys):
    rc, out, _ = invoke(capsys, "ladders", "--config",
                        str(CONFIGS / "generic.json"), "--n", "3")
    assert rc == 0
    total = sum(count_std(3, s) for s in shapes(3))
    assert len(out.splitlines()) == total


@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_ladders_shape_lists_its_rows_of_the_full_listing(capsys, fmt):
    def listing(*shape):
        rc, out, _ = invoke(capsys, "ladders", "--config",
                            str(CONFIGS / "e7.json"), "--n", "7",
                            "--format", fmt, *shape)
        assert rc == 0
        return (json.loads(out)["ladders"] if fmt == "json"
                else out.splitlines())

    full = listing()
    rows = []
    for s in shapes(7):
        lit = "(%d,%s)" % s
        part = listing("--shape", lit)
        assert part == [t for t in full if t.startswith(lit + ":")]
        rows.extend(part)
    assert rows == full
    assert len(full) < sum(count_std(7, s) for s in shapes(7))


def test_bounds_table(capsys):
    rc, out, _ = invoke(capsys, "bounds", "--config",
                        str(CONFIGS / "e5-formal.json"), "--n", "4",
                        "--jobs", "1")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("#") and "conjectural" in lines[0]
    assert lines[1] == "shape\tlower_bound\tdim_at_1\tgraded_dim"
    for line in lines[2:]:
        _, low, at1, _ = line.split("\t")
        assert 1 <= int(low) <= int(at1)


def test_bounds_json_flag(capsys):
    rc, out, _ = invoke(capsys, "bounds", "--config",
                        str(CONFIGS / "e7.json"), "--n", "3",
                        "--jobs", "1", "--format", "json")
    obj = json.loads(out)
    assert obj["conjectural"] is True
    assert all(r["lower_bound"] <= r["dim_at_1"] for r in obj["rows"])


def _bounds_warnings(capsys, cfg, n):
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        rc, out, _ = invoke(capsys, "bounds", "--config", str(CONFIGS / cfg),
                            "--n", str(n))
    assert rc == 0 and out
    return [str(w.message) for w in seen]


@pytest.mark.parametrize("cfg", sorted(p.name for p in CONFIGS.glob("*.json")))
def test_bounds_warns_nothing_on_shipped_configs(capsys, cfg):
    for n in range(1, 9):
        assert _bounds_warnings(capsys, cfg, n) == [], n


def _spread(p):
    # bar-symmetric, the same at v = 1, and -1 at exponents outside p
    e = 1 + max(map(abs, p))
    return laurent.add(p, {e: -1, -e: -1, e + 1: 1, -e - 1: 1})


@pytest.mark.parametrize("what, broken", [
    ("not bar-symmetric", lambda p, lo: laurent.add(p, {1: 1})),
    ("a negative coefficient", lambda p, lo: _spread(p)),
    ("below its ladder bound", lambda p, lo: {0: lo - 1}),
])
def test_bounds_warns_on_broken_simple_dims(capsys, monkeypatch, what, broken):
    cfg, n, la = load_config(CONFIGS / "e7.json"), 6, parse_shape("(0,theta)")
    lo = simple_dim_lower_bounds(cfg, n)[la]
    assert lo > 1

    def patched(cfg, n):
        dims = simple_graded_dims(cfg, n)
        dims[la] = broken(dims[la], lo)
        return dims

    monkeypatch.setattr("blobalg.decomp.simple_graded_dims", patched)
    seen = _bounds_warnings(capsys, "e7.json", n)
    assert len(seen) == 1
    assert seen[0].startswith("conjectural graded dimension of (0,theta): " + what)


def test_calibrated_check_tol_is_only_the_residual_gate(capsys):
    # seed 1 has a seminormal denominator below 1 at n = 6, which is no
    # reason to call it non-generic when the residual gate is 1
    rc, out, err = invoke(capsys, "calibrated-check", "--config",
                          str(CONFIGS / "generic.json"), "--n", "6",
                          "--seed", "1", "--tol", "1")
    assert (rc, err) == (0, "")
    assert out.splitlines()[-1].endswith("against tol 1.0e+00: PASS")


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_calibrated_check_tol_must_be_positive_finite(capsys, tol):
    rc, out, err = invoke(capsys, "calibrated-check", "--config",
                          str(CONFIGS / "generic.json"), "--n", "2",
                          "--tol", tol)
    assert rc == 2
    assert out == ""
    assert "--tol" in err and "must be a positive finite number" in err


@pytest.mark.parametrize("preset, want", [(None, "1"), ("3", "3")])
def test_calibrated_check_defaults_to_one_blas_thread(capsys, monkeypatch,
                                                      preset, want):
    if preset is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
    rc, _, _ = invoke(capsys, "calibrated-check", "--config",
                      str(CONFIGS / "generic.json"), "--n", "2")
    assert rc == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == want


def test_calibrated_check_passes(capsys):
    rc, out, _ = invoke(capsys, "calibrated-check", "--config",
                        str(CONFIGS / "generic.json"), "--n", "3",
                        "--seed", "42", "--tol", "1e-8")
    assert rc == 0
    assert out.splitlines()[-1].endswith("PASS")
    rc, out, _ = invoke(capsys, "calibrated-check", "--config",
                        str(CONFIGS / "generic.json"), "--n", "2",
                        "--seed", "7", "--format", "json")
    obj = json.loads(out)
    assert obj["pass"] is True
    assert obj["worst_residual"] < 1e-8
    assert {c["check"] for c in obj["checks"]} == {"hecke", "tl", "jm", "blob"}


def test_calibrated_check_json_names_worst_relation(capsys):
    path = str(CONFIGS / "generic.json")
    rc, out, _ = invoke(capsys, "calibrated-check", "--config", path,
                        "--n", "3", "--seed", "5", "--format", "json")
    assert rc == 0
    checks = json.loads(out)["checks"]
    cfg = load_config(path)
    seed = make_seed(cfg, seed=5)
    expected = []
    for shape in shapes(3):
        mod = build_calibrated(cfg, 3, shape, seed)
        for _, func in _CHECKS:
            rel = getattr(calibrated, func)(mod)["relations"]
            expected.append(max(rel, key=rel.get))
    assert [c["worst_relation"] for c in checks] == expected

    # the TSV form is unchanged: four columns per check, no relation name
    rc, tsv, _ = invoke(capsys, "calibrated-check", "--config", path,
                        "--n", "3", "--seed", "5")
    assert rc == 0
    lines = tsv.splitlines()
    assert lines[0] == "shape\tcheck\tmax_residual\tstatus"
    assert lines[1:-1] == [
        "%s\t%s\t%.3e\t%s" % (c["shape"], c["check"], c["max_residual"],
                             "pass" if c["pass"] else "FAIL")
        for c in checks]
    assert lines[-1].startswith("# worst residual ")


def test_module_bytes_counts_the_largest_module(cfg_generic):
    seed = make_seed(cfg_generic, 0)
    held = []
    for shape in shapes(4):
        m = build_calibrated(cfg_generic, 4, shape, seed)
        arrays = [m.t0, m.t0v, m.tn] + m.ts + m.xs
        held.append(sum(a.nbytes for a in arrays))
    assert module_bytes(4) > max(held)
    assert module_bytes(11) == 385 * 2**20 <= MAX_MODULE_BYTES
    assert module_bytes(12) == 1537 * 2**20 > MAX_MODULE_BYTES


def test_module_bytes_bounds_the_traced_peak(capsys):
    # Everything a whole run allocates, the checks' transients included;
    # tol 1e-300 sends every relation to the SVD and every X_i to its
    # rebuild, and so fails.
    for n in range(1, 8):
        for tol, code in (("1e-8", 0), ("1e-300", 1)):
            tracemalloc.start()
            try:
                rc, _, _ = invoke(capsys, "calibrated-check", "--config",
                                  str(CONFIGS / "generic.json"), "--n", str(n),
                                  "--seed", "1", "--tol", tol)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert rc == code, (n, tol)
            assert peak <= module_bytes(n), (n, tol, peak, module_bytes(n))


def test_calibrated_check_peak_at_n8(capsys):
    # The benchmark's run, whole: T_n, a relation's residual and at most
    # one product beside them, strip temporaries, and the tableaux and
    # reports, which are most of the rest at dim 256.  Holding a second
    # dense product, or two shifted copies of T_n, breaks the bound.
    dim = max(count_std(8, s) for s in shapes(8))
    tracemalloc.start()
    try:
        rc, _, _ = invoke(capsys, "calibrated-check", "--config",
                          str(CONFIGS / "generic.json"), "--n", "8",
                          "--seed", "1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert dim == 256
    assert peak <= 4.5 * dim * dim * 16, peak / (dim * dim * 16)


def test_calibrated_check_size_guard(capsys, monkeypatch):
    def no_build(*args):
        raise AssertionError("module built past the size guard")

    monkeypatch.setattr(calibrated, "build_calibrated", no_build)
    rc, out, err = invoke(capsys, "calibrated-check", "--config",
                          str(CONFIGS / "generic.json"), "--n", "12")
    assert rc == 2
    assert out == ""
    assert "1537 MiB" in err and "budget of 512 MiB" in err


def test_calibrated_check_non_generic_config_fails(capsys):
    rc, _, err = invoke(capsys, "calibrated-check", "--config",
                        str(CONFIGS / "e7.json"), "--n", "6", "--seed", "1")
    assert rc == 1
    assert "non-generic" in err


# alpha1 on a self-inverse orbit: its base is pinned to +-q^-3 as the
# integral base is pinned to 1, so alpha1 is a q-power and the seed
# degenerates once n is large enough to reach it
SELF_INVERSE_ALPHA = {"e": "infinity",
                      "points": {"alpha1": {"orbit": "A", "offset": 0},
                                 "alpha2": {"orbit": "B", "offset": 0},
                                 "theta": {"integral": 3}},
                      "inversions": {"A": {"self_center": 6},
                                     "B": {"paired": "B*"}}}


def test_calibrated_check_on_self_inverse_alpha_orbit(tmp_path, capsys):
    path = tmp_path / "self-inverse.json"
    path.write_text(json.dumps(SELF_INVERSE_ALPHA))
    assert invoke(capsys, "validate", "--config", str(path))[0] == 0
    for seed in ("0", "1", "2"):
        rc, out, err = invoke(capsys, "calibrated-check", "--config",
                              str(path), "--n", "2", "--seed", seed)
        assert rc == 0, err
        assert out.endswith(": PASS\n")
    rc, out, err = invoke(capsys, "calibrated-check", "--config", str(path),
                          "--n", "4")
    assert rc == 1
    assert out == ""
    assert err.startswith("non-generic seed: ")


# theta = q^-1 meets the standing assumptions, so it is seeded; at n = 3
# the zero-shape tableau (-3, -1, 2) has residues q, q, q^3, and its two
# equal first residues make T_1's denominator vanish
THETA_Q_INV = {"e": "infinity",
               "points": {"alpha1": {"integral": 4}, "alpha2": {"integral": 8},
                          "theta": {"integral": -1}},
               "inversions": {}}

# alpha1 and alpha2 on the partner orbits A and A*
PARTNER_ALPHAS = {"e": "infinity",
                  "points": {"alpha1": {"orbit": "A", "offset": 0},
                             "alpha2": {"orbit": "A*", "offset": 6},
                             "theta": {"integral": 5}},
                  "inversions": {"A": {"paired": "A*"}}}


def test_calibrated_check_seeds_theta_q_inverse(tmp_path, capsys):
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(THETA_Q_INV))
    assert invoke(capsys, "validate", "--config", str(path))[0] == 0
    for seed in ("0", "1", "2"):
        rc, out, err = invoke(capsys, "calibrated-check", "--config",
                              str(path), "--n", "2", "--seed", seed)
        assert rc == 0, err
        assert out.endswith(": PASS\n")
    rc, out, err = invoke(capsys, "calibrated-check", "--config", str(path),
                          "--n", "3")
    assert rc == 1
    assert out == ""
    assert err == "non-generic seed: T_1 denominator ~ 0 on (-3, -1, 2)\n"


@pytest.mark.parametrize("e", ["infinity", 7])
def test_calibrated_check_on_partner_alpha_orbits(e, tmp_path, capsys):
    path = tmp_path / "partner.json"
    path.write_text(json.dumps(dict(PARTNER_ALPHAS, e=e)))
    assert invoke(capsys, "validate", "--config", str(path))[0] == 0
    for seed in ("0", "1", "2"):
        rc, out, err = invoke(capsys, "calibrated-check", "--config",
                              str(path), "--n", "2", "--seed", seed)
        assert rc == 0, err
        assert out.endswith(": PASS\n")


def test_degree_agreement_columns(capsys):
    rc, out, _ = invoke(capsys, "degree", "--config",
                        str(CONFIGS / "e5-formal.json"), "--n", "3")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "tableau\tdegree_tiles\tdegree_klr"
    assert all(l.split("\t")[1] == l.split("\t")[2] for l in lines[1:])


def test_word_round_trip_output(capsys):
    rc, out, _ = invoke(capsys, "word", "--config", str(CONFIGS / "e7.json"),
                        "--n", "3", "--shape", "(0,theta)", "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    assert all(r["length"] == len(r["word"]) for r in obj["words"])
    assert any(r["length"] > 0 for r in obj["words"])


def test_word_accepts_tableau_literal(capsys):
    rc, out, _ = invoke(capsys, "word", "--config", str(CONFIGS / "e7.json"),
                        "--n", "3", "--shape", "(1,alpha1):[-2,1,3]")
    assert rc == 0
    assert out.splitlines()[1] == "(1,alpha1):[-2,1,3]\t0\t"
    rc, _, err = invoke(capsys, "word", "--config", str(CONFIGS / "e7.json"),
                        "--n", "3", "--shape", "(3,alpha1):[9,9,9]")
    assert rc == 2


def _oracle_statistics(cfg, n):
    """{shape: (degree rows, word rows)} from enumerate_std, tableau_str
    and the embedded-path oracles."""
    out = {}
    for shape in shapes(n):
        degrees, words = out[shape] = [], []
        for t in enumerate_std(n, shape):
            text = tableau_str(t)
            degrees.append((text, degree_tiles_tilewise(cfg, n, t),
                            degree_klr_residues(cfg, n, t)))
            words.append((text, [yc - 1 for _, yc, _ in
                                 reversed(tau_order_scan(cfg, n, t))]))
    return out


def _expect_statistics(n, fmt, degrees, words):
    """{command: stdout} of degree and word for these rows."""
    if fmt == "json":
        return {
            "degree": {"n": n, "degrees": [
                {"tableau": s, "degree_tiles": a, "degree_klr": b}
                for s, a, b in degrees]},
            "word": {"n": n, "words": [
                {"tableau": s, "length": len(w), "word": w}
                for s, w in words]},
        }
    return {
        "degree": "tableau\tdegree_tiles\tdegree_klr\n" + "".join(
            "%s\t%d\t%d\n" % r for r in degrees),
        "word": "tableau\tlength\tword\n" + "".join(
            "%s\t%d\t%s\n" % (s, len(w), " ".join(map(str, w)))
            for s, w in words),
    }


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")),
                         ids=lambda p: p.stem)
def test_tableau_statistics_match_oracle_rows(capsys, path):
    # degree and word stdout in both formats, whole at n <= 7 and per
    # shape at n = 6, 7, and word on tableau literals, against rows
    # built tableau by tableau
    cfg = load_config(path)
    for n in range(1, 8):
        rows = _oracle_statistics(cfg, n)
        whole = tuple(sum((r[i] for r in rows.values()), []) for i in (0, 1))
        runs = [(whole, ())]
        if n >= 6:
            runs += [(rows[s], ("--shape", shape_str(s))) for s in shapes(n)]
        for (degrees, words), flags in runs:
            for fmt in ("tsv", "json"):
                expect = _expect_statistics(n, fmt, degrees, words)
                for command in ("degree", "word"):
                    rc, out, _ = invoke(capsys, command, "--config", str(path),
                                        "--n", str(n), *flags, "--format", fmt)
                    assert rc == 0
                    got = json.loads(out) if fmt == "json" else out
                    assert got == expect[command], (n, flags, fmt, command)
        for row in whole[1][:: max(1, len(whole[1]) // 8)]:
            rc, out, _ = invoke(capsys, "word", "--config", str(path),
                                "--n", str(n), "--shape", row[0])
            assert rc == 0
            assert out == _expect_statistics(n, "tsv", [], [row])["word"]


def test_tableau_statistics_embed_each_shape_once(capsys, monkeypatch):
    # degree and word read the walk tables, built once per command, so
    # t_lambda is built at most a few times per shape, not once per
    # tableau; the library embeds no path at all
    assert not hasattr(paths, "embed")
    calls = dict.fromkeys(("t_lambda", "_build_walk_tables"), 0)
    for name in calls:
        def counted(*args, _real=getattr(paths, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(paths, name, counted)
    n = 7
    for command in ("degree", "word"):
        built = calls["_build_walk_tables"]
        rc, out, _ = invoke(capsys, command, "--config",
                            str(CONFIGS / "e7.json"), "--n", str(n))
        assert rc == 0 and out
        assert calls["_build_walk_tables"] == built + 1, command
    del calls["_build_walk_tables"]
    per_run = 2 * 2 * len(shapes(n))      # two commands, two per shape
    assert sum(count_std(n, s) for s in shapes(n)) > 2 * per_run
    assert all(c <= per_run for c in calls.values()), calls


def test_ladders_build_no_tableau_per_row(capsys, monkeypatch):
    # ladders tests negated-value sets and prints them through one
    # tableau_texts, so neither a Tableau nor its text is built per row
    calls = dict.fromkeys(("from_negated_set", "tableau_str"), 0)
    for name in calls:
        def counted(*args, _real=getattr(tableaux, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(tableaux, name, counted)
    rc, out, _ = invoke(capsys, "ladders", "--config",
                        str(CONFIGS / "e7.json"), "--n", "7")
    assert rc == 0 and len(out.splitlines()) > len(shapes(7))
    assert calls == {"from_negated_set": 0, "tableau_str": 0}


def test_tableau_statistics_build_per_k_tables_once_per_k(capsys, monkeypatch):
    # degree and word run one kernel pass per group of shapes sharing k,
    # so the per-k tables are built once per k, not once per shape
    built = []

    def counted(n, lam, top, _real=paths._diagonals):
        built.append(len(lam))
        return _real(n, lam, top)

    monkeypatch.setattr(paths, "_diagonals", counted)
    n = 7
    ks = {s.k for s in shapes(n)}
    assert len(ks) < len(shapes(n))
    for command in ("degree", "word"):
        del built[:]
        rc, out, _ = invoke(capsys, command, "--config",
                            str(CONFIGS / "e7.json"), "--n", str(n))
        assert rc == 0 and out
        # t_lambda has (n - k) / 2 negated values
        assert sorted(built) == sorted((n - k) // 2 for k in ks), command


def test_byte_identical_reruns(capsys):
    args = ("decomp", "--config", str(CONFIGS / "e5-formal.json"), "--n", "10",
            "--jobs", "1", "--format", "json")
    rc1, out1, _ = invoke(capsys, *args)
    rc2, out2, _ = invoke(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_jobs_flag_is_ignored(capsys):
    args = ("decomp", "--config", str(CONFIGS / "e5-formal.json"), "--n", "8")
    rc1, out1, _ = invoke(capsys, *args, "--jobs", "1")
    rc2, out2, _ = invoke(capsys, *args, "--jobs", "2")
    assert rc1 == rc2 == 0
    assert out1 and out2 == out1


_NOT_RUN_BY_EXACT = ("blobalg.calibrated", "dataclasses", "numpy")
_UNLOADED = {
    "validate": ("blobalg.tableaux", "blobalg.paths", "blobalg.decomp",
                 "blobalg.laurent") + _NOT_RUN_BY_EXACT,
    "degree": ("blobalg.decomp",) + _NOT_RUN_BY_EXACT,
    "word": ("blobalg.decomp",) + _NOT_RUN_BY_EXACT,
    "decomp": _NOT_RUN_BY_EXACT,
    "bounds": _NOT_RUN_BY_EXACT,
    "calibrated-check": ("blobalg.paths", "blobalg.decomp", "blobalg.laurent",
                         "dataclasses"),
}


@pytest.mark.parametrize("cmd", sorted(_UNLOADED))
def test_command_leaves_unrun_modules_unloaded(cmd):
    # a process loads only what its command runs, parser included: only
    # calibrated-check needs numpy, and no command defines a dataclass
    config = "generic.json" if cmd == "calibrated-check" else "e7.json"
    argv = [cmd, "--config", str(CONFIGS / config)]
    if cmd != "validate":
        argv += ["--n", "6"]
    code = ("import sys; from blobalg.cli import run; rc = run(sys.argv[1:]); "
            "sys.stderr.write(' '.join(sorted(sys.modules))); sys.exit(rc)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code] + argv,
                          capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=120)
    assert proc.returncode == 0 and proc.stdout, proc.stderr
    loaded = set(proc.stderr.split())
    assert "blobalg.params" in loaded
    assert loaded & set(_UNLOADED[cmd]) == set()


def test_second_command_in_a_process_prints_what_a_fresh_one_does(capsys):
    # run builds the parser once per process and reuses it
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cfg = ("--config", str(CONFIGS / "e7.json"))
    for argv in (("bounds", *cfg, "--n", "5"),
                 ("validate", *cfg, "--format", "json"),
                 ("word", *cfg, "--n", "4", "--shape", "(2,alpha1)")):
        fresh = subprocess.run([sys.executable, "-m", "blobalg.cli", *argv],
                               capture_output=True, env=env, cwd=ROOT,
                               timeout=120)
        rc, out, _ = invoke(capsys, *argv)
        assert fresh.stdout and (rc, out.encode()) == (fresh.returncode,
                                                        fresh.stdout), argv
    assert cli._parser() is cli._parser()


@pytest.mark.parametrize("cmd", ["decomp", "bounds"])
def test_wrong_na_factor_fails_the_command(cmd):
    # na_factorize checks N*A = Delta on every block: here bar_split puts
    # an extra v into every entry of N below the diagonal
    code = ("import sys\n"
            "from blobalg import laurent\n"
            "from blobalg.cli import run\n"
            "split = laurent.bar_split\n"
            "laurent.bar_split = lambda f: (split(f)[0],\n"
            "                               laurent.add(split(f)[1], {1: 1}))\n"
            "sys.exit(run(sys.argv[1:]))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code, cmd, "--config",
                           str(CONFIGS / "e7.json"), "--n", "6"],
                          capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "RuntimeError: N*A differs from Delta on the block of" in proc.stderr


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "blobalg.cli", "shapes", "--n", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "(2,alpha1)\t1"


def test_bounds_same_bytes_under_optimize():
    # the invariants are explicit errors, not asserts, so -O changes nothing
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = ["-m", "blobalg.cli", "bounds", "--config",
            str(CONFIGS / "e5-formal.json"), "--n", "6"]
    plain = subprocess.run([sys.executable] + argv, capture_output=True,
                           env=env, cwd=ROOT, timeout=120)
    optimized = subprocess.run([sys.executable, "-O"] + argv,
                               capture_output=True, env=env, cwd=ROOT,
                               timeout=120)
    assert plain.returncode == optimized.returncode == 0
    assert plain.stdout and optimized.stdout == plain.stdout


@pytest.mark.parametrize("command", ["degree", "word"])
def test_tableau_statistics_same_bytes_under_optimize(command):
    # the per-shape tables hold no assert, so -O changes nothing
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = ["-m", "blobalg.cli", command, "--config",
            str(CONFIGS / "e7.json"), "--n", "6"]
    plain = subprocess.run([sys.executable] + argv, capture_output=True,
                           env=env, cwd=ROOT, timeout=120)
    optimized = subprocess.run([sys.executable, "-O"] + argv,
                               capture_output=True, env=env, cwd=ROOT,
                               timeout=120)
    assert plain.returncode == optimized.returncode == 0
    assert plain.stdout and optimized.stdout == plain.stdout


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()
    assert run(["decomp", "--help"]) == 0
    capsys.readouterr()


DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          capture_output=True, env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("cmd", ["bounds", "decomp"])
def test_walk_tables_built_once_per_command(monkeypatch, capsys, cmd):
    built = []
    build = paths._build_walk_tables

    def counted(cfg, n):
        built.append(n)
        return build(cfg, n)

    monkeypatch.setattr(paths, "_build_walk_tables", counted)
    rc, _, _ = invoke(capsys, cmd, "--config", str(CONFIGS / "e7.json"),
                      "--n", "8")
    assert rc == 0
    assert built == [8]


GUARDED = ("delta", "decomp", "blocks", "bounds", "ladders", "degree", "word")


@pytest.mark.parametrize("cfg", sorted(p.name for p in CONFIGS.glob("*.json")))
def test_exact_commands_run_without_cstd(monkeypatch, capsys, cfg):
    # every exact command reads the walk tables; none walks cstd
    def argv(cmd, n):
        return (cmd, "--config", str(CONFIGS / cfg), "--n", str(n))

    plain = {(cmd, n): invoke(capsys, *argv(cmd, n))
             for cmd in GUARDED for n in (4, 5)}

    def refuse(*args, **kwargs):
        raise AssertionError("cstd called")

    monkeypatch.setattr(tableaux, "cstd", refuse)
    monkeypatch.setattr(paths, "residue_class_tableaux", refuse)
    for (cmd, n), (rc, out, _) in plain.items():
        assert rc == 0 and out, (cmd, n)
        assert invoke(capsys, *argv(cmd, n))[:2] == (0, out), (cmd, n)
