"""Command-line surface: enumeration, graded matrices, ladder bounds,
and the floating-point relation checks, with TSV and JSON output.

Most commands are short, so a process pays mostly for start-up.  This
module therefore imports only params and the standard library at its
top; each command (and each helper) imports the modules it runs at its
own top, when it runs.  So validate loads neither tableaux, paths,
decomp nor laurent, degree and word load neither decomp nor laurent,
and only calibrated-check loads numpy.  The parser is built once per
process, on the first call of run.
"""

import argparse
import json
import math
import os
import sys
import warnings
from functools import cache

from .params import (
    DEFAULT_TOL,
    Integral,
    config_to_obj,
    load_config,
    validate_config,
)

__all__ = ["run", "main"]


class _UsageError(Exception):
    pass


class _CheckFailure(Exception):
    pass


def _out(text):
    sys.stdout.write(text)


def _out_json(obj):
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _read(path):
    """Parse a config file; unreadable or malformed input is a usage error."""
    try:
        return load_config(path)
    except OSError as exc:
        raise _UsageError("cannot read config %s: %s" % (path, exc)) from None
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _load(path):
    cfg = _read(path)
    problems = validate_config(cfg)
    if problems:
        raise _CheckFailure(
            "config %s violates the standing assumptions:\n%s"
            % (path, "\n".join("  " + p for p in problems)))
    return cfg


def _shape_arg(text, n):
    from .tableaux import parse_shape, validate_shape

    try:
        shape = parse_shape(text)
        validate_shape(n, shape)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    return shape


def _shape_range(args):
    from .tableaux import shapes

    if args.shape is None:
        return shapes(args.n)
    return [_shape_arg(args.shape, args.n)]


# -- subcommands -----------------------------------------------------------

def _cmd_validate(args):
    cfg = _read(args.config)
    problems = validate_config(cfg)
    if args.format == "json":
        obj = {"ok": not problems}
        if problems:
            obj["violations"] = problems
        else:
            obj["config"] = config_to_obj(cfg)
        _out_json(obj)
    elif problems:
        _out("invalid\n" + "".join("%s\n" % p for p in problems))
    else:
        lines = ["ok", "e\t%s" % ("infinity" if cfg.e is None else cfg.e)]
        for name in ("alpha1", "alpha2", "theta"):
            spec = cfg.points[name]
            if isinstance(spec, Integral):
                lines.append("%s\tq^%d" % (name, spec.exp))
            else:
                lines.append("%s\torbit %s offset %d" % (name, spec.orbit, spec.offset))
        _out("".join("%s\n" % l for l in lines))
    return 1 if problems else 0


def _cmd_shapes(args):
    from .tableaux import count_std, shape_str, shapes

    rows = [(shape_str(s), count_std(args.n, s)) for s in shapes(args.n)]
    if args.format == "json":
        _out_json({"n": args.n,
                   "shapes": [{"shape": s, "std_count": c} for s, c in rows]})
    else:
        _out("".join("%s\t%d\n" % r for r in rows))
    return 0


def _cmd_tableaux(args):
    from .tableaux import negated_sets, shape_str, tableau_texts

    entries = tableau_texts(args.n)
    out = [shape_str(shape) + ":" + entries(negs)
           for shape in _shape_range(args)
           for negs in negated_sets(args.n, shape)]
    if args.format == "json":
        _out_json({"n": args.n, "count": len(out), "tableaux": out})
    else:
        _out("".join("%s\n" % t for t in out))
    return 0


def _blocks_of(args, cfg):
    from .decomp import blocks, delta_matrix

    d = delta_matrix(cfg, args.n)
    bls = blocks(d)
    if args.block_of is not None:
        target = _shape_arg(args.block_of, args.n)
        bls = [b for b in bls if target in b]
    return d, bls


def _emit_matrix_blocks(args, mat, bls):
    if args.format == "json":
        if args.block_of is not None:
            obj = {"n": args.n}
            obj.update(mat.submatrix(bls[0]).to_json_obj())
            _out_json(obj)
        else:
            _out_json({"n": args.n,
                       "blocks": [mat.submatrix(b).to_json_obj() for b in bls]})
    elif args.block_of is not None:
        _out(mat.submatrix(bls[0]).to_tsv())
    else:
        chunks = ["# block %d of %d\n%s" % (i + 1, len(bls),
                                            mat.submatrix(b).to_tsv())
                  for i, b in enumerate(bls)]
        _out("\n".join(chunks))
    return 0


def _cmd_delta(args):
    cfg = _load(args.config)
    d, bls = _blocks_of(args, cfg)
    return _emit_matrix_blocks(args, d, bls)


def _cmd_decomp(args):
    from .decomp import decomposition_from_delta

    cfg = _load(args.config)
    d, bls = _blocks_of(args, cfg)
    nmat = decomposition_from_delta(d)
    return _emit_matrix_blocks(args, nmat, bls)


def _cmd_blocks(args):
    from .decomp import blocks, delta_matrix
    from .tableaux import shape_str

    cfg = _load(args.config)
    d = delta_matrix(cfg, args.n)
    bls = blocks(d)
    if args.format == "json":
        _out_json({"n": args.n,
                   "blocks": [[shape_str(s) for s in b] for b in bls]})
    else:
        _out("".join("\t".join(shape_str(s) for s in b) + "\n" for b in bls))
    return 0


def _cmd_ladders(args):
    from .paths import ladder_rows

    cfg = _load(args.config)
    found = ladder_rows(cfg, args.n, _shape_range(args))
    if args.format == "json":
        _out_json({"n": args.n, "ladders": found})
    else:
        _out("".join("%s\n" % t for t in found))
    return 0


def _warn_on_simple_dims(rows):
    """Warn, as decomposition_from_delta does on negative N entries,
    where a conjectural simple dimension breaks what graded cellularity
    implies: a self-dual simple module has a bar-symmetric graded
    dimension with nonnegative coefficients, at least its ladder bound
    at v = 1."""
    from . import laurent
    from .tableaux import shape_str

    for s, lo, d1, p in rows:
        broken = [what for what, bad in (
            ("not bar-symmetric", not laurent.is_bar_symmetric(p)),
            ("a negative coefficient", any(c < 0 for c in p.values())),
            ("below its ladder bound %d" % lo, d1 < lo)) if bad]
        if broken:
            warnings.warn("conjectural graded dimension of %s: %s"
                          % (shape_str(s), ", ".join(broken)))


def _cmd_bounds(args):
    from . import laurent
    from .decomp import simple_dim_lower_bounds, simple_graded_dims
    from .tableaux import shape_str, shapes

    cfg = _load(args.config)
    lows = simple_dim_lower_bounds(cfg, args.n)
    dims = simple_graded_dims(cfg, args.n)
    rows = [(s, lows[s], laurent.eval_one(dims[s]), dims[s])
            for s in shapes(args.n)]
    _warn_on_simple_dims(rows)
    if args.format == "json":
        _out_json({"n": args.n, "conjectural": True,
                   "rows": [{"shape": shape_str(s), "lower_bound": lo,
                             "dim_at_1": d1,
                             "graded_dim": laurent.to_json_obj(p)}
                            for s, lo, d1, p in rows]})
    else:
        lines = ["# graded_dim and dim_at_1 are conjectural",
                 "shape\tlower_bound\tdim_at_1\tgraded_dim"]
        lines.extend("%s\t%d\t%d\t%s"
                     % (shape_str(s), lo, d1, laurent.to_str(p))
                     for s, lo, d1, p in rows)
        _out("".join("%s\n" % l for l in lines))
    return 0


# (check name, function name in blobalg.calibrated).  The functions are
# looked up when the check runs, because calibrated (and so numpy) is
# only imported by calibrated-check.
_CHECKS = (
    ("hecke", "check_hecke_relations"),
    ("tl", "check_tl_relations"),
    ("jm", "check_jm_spectrum"),
    ("blob", "blob_check"),
)


def _cmd_calibrated_check(args):
    # All but a few products of the checks are O(dim^2) gathers, and a
    # second BLAS thread mostly spins: default to one.  This must precede
    # the first import of numpy; a value the user set wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from . import calibrated
    from .tableaux import shape_str, shapes

    cfg = _load(args.config)
    need = calibrated.module_bytes(args.n)
    if need > calibrated.MAX_MODULE_BYTES:
        raise _UsageError(
            "calibrated-check at n=%d needs %.0f MiB for its largest module "
            "and its relation checks, over the budget of %d MiB"
            % (args.n, need / 2**20, calibrated.MAX_MODULE_BYTES // 2**20))
    try:
        seed = calibrated.make_seed(cfg, seed=args.seed)
        results = []
        for shape in shapes(args.n):
            mod = calibrated.build_calibrated(cfg, args.n, shape, seed)
            for name, func in _CHECKS:
                rep = getattr(calibrated, func)(mod, tol=args.tol)
                rel = rep["relations"]
                results.append((shape, name, rep["max_residual"], rep["pass"],
                                max(rel, key=rel.get)))
            del mod  # before the next shape's module is built
    except calibrated.NonGenericSeedError as exc:
        raise _CheckFailure(str(exc)) from None
    worst = max(r[2] for r in results)
    ok = all(r[3] for r in results)
    if args.format == "json":
        _out_json({"n": args.n, "seed": args.seed, "tol": args.tol,
                   "checks": [{"shape": shape_str(s), "check": c,
                               "max_residual": r, "worst_relation": w,
                               "pass": p}
                              for s, c, r, p, w in results],
                   "worst_residual": worst, "pass": ok})
    else:
        lines = ["shape\tcheck\tmax_residual\tstatus"]
        lines.extend("%s\t%s\t%.3e\t%s"
                     % (shape_str(s), c, r, "pass" if p else "FAIL")
                     for s, c, r, p, _ in results)
        lines.append("# worst residual %.3e against tol %.1e: %s"
                     % (worst, args.tol, "PASS" if ok else "FAIL"))
        _out("".join("%s\n" % l for l in lines))
    return 0 if ok else 1


def _kernel_groups(args, cfg, kernel):
    """The rows of degree or word (paths.degree_rows, word_rows), one
    list per kernel pass over a group of shapes that share k, made as
    they are read: TSV output holds one group's rows at a time."""
    from itertools import groupby

    from .tableaux import negated_sets

    groups = [list(g) for _, g in groupby(_shape_range(args),
                                          key=lambda s: s.k)]
    return (list(kernel(cfg, args.n, g, negated_sets(args.n, g[0])))
            for g in groups)


def _cmd_degree(args):
    from .paths import degree_rows

    groups = _kernel_groups(args, _load(args.config), degree_rows)
    if args.format == "json":
        _out_json({"n": args.n,
                   "degrees": [{"tableau": s, "degree_tiles": a,
                                "degree_klr": b}
                               for rows in groups for s, a, b in rows]})
    else:
        _out("tableau\tdegree_tiles\tdegree_klr\n")
        for rows in groups:
            _out("".join(["%s\t%d\t%d\n" % r for r in rows]))
    return 0


def _cmd_word(args):
    from .paths import reduced_word, word_rows
    from .tableaux import parse_tableau, tableau_str

    cfg = _load(args.config)
    if args.shape is not None and ":" in args.shape:
        try:
            t = parse_tableau(args.shape, n=args.n)
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
        word = reduced_word(cfg, args.n, t)
        groups = [[(tableau_str(t), word, " ".join(map(str, word)))]]
    else:
        groups = _kernel_groups(args, cfg, word_rows)
    if args.format == "json":
        _out_json({"n": args.n,
                   "words": [{"tableau": s, "length": len(w), "word": list(w)}
                             for rows in groups for s, w, _ in rows]})
    else:
        _out("tableau\tlength\tword\n")
        for rows in groups:
            _out("".join(["%s\t%d\t%s\n" % (s, len(w), text)
                          for s, w, text in rows]))
    return 0


# -- argument parsing --------------------------------------------------------

def _positive_int(text):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return n


def _positive_float(text):
    x = float(text)
    if not (math.isfinite(x) and x > 0):
        raise argparse.ArgumentTypeError("must be a positive finite number")
    return x


@cache
def _parser():
    top = argparse.ArgumentParser(
        prog="blobalg",
        description="Exact combinatorics and numeric checks for the "
                    "two-boundary diagram algebras.")
    sub = top.add_subparsers(dest="command", required=True, metavar="command")

    def add(name, func, summary, config=False, n=False, shape=False,
            block_of=False, seed=False, jobs=False):
        sp = sub.add_parser(name, help=summary, description=summary)
        if config:
            sp.add_argument("--config", required=True, metavar="PATH",
                            help="parameter configuration JSON file")
        if n:
            sp.add_argument("--n", type=_positive_int, required=True,
                            help="number of strands")
        if shape:
            sp.add_argument("--shape", metavar="STR",
                            help='shape literal "(k,marker)"; default: all')
        if block_of:
            sp.add_argument("--block-of", metavar="STR",
                            help="restrict to the block containing this shape")
        if seed:
            sp.add_argument("--seed", type=int, default=0,
                            help="random seed for the numeric parameters")
            sp.add_argument("--tol", type=_positive_float, default=DEFAULT_TOL,
                            help="residual tolerance (default %g)" % DEFAULT_TOL)
        if jobs:
            sp.add_argument("--jobs", type=_positive_int, default=1,
                            help="accepted and ignored: Delta is built "
                                 "serially")
        sp.add_argument("--format", choices=("tsv", "json"), default="tsv",
                        help="output format (default tsv)")
        sp.set_defaults(func=func)
        return sp

    add("validate", _cmd_validate, "check a configuration file", config=True)
    add("shapes", _cmd_shapes, "list the shapes and their tableau counts",
        n=True)
    add("tableaux", _cmd_tableaux, "enumerate standard tableaux", n=True,
        shape=True)
    add("delta", _cmd_delta, "graded coloured-tableau count matrix",
        config=True, n=True, block_of=True, jobs=True)
    add("decomp", _cmd_decomp,
        "conjectural graded decomposition matrix (N factor)",
        config=True, n=True, block_of=True, jobs=True)
    add("blocks", _cmd_blocks, "partition of the shapes into blocks",
        config=True, n=True, jobs=True)
    add("ladders", _cmd_ladders, "list the ladder tableaux", config=True,
        n=True, shape=True)
    add("bounds", _cmd_bounds,
        "ladder lower bounds next to the conjectural simple dimensions",
        config=True, n=True, jobs=True)
    add("calibrated-check", _cmd_calibrated_check,
        "numeric relation residuals on a random calibrated seed",
        config=True, n=True, seed=True)
    add("degree", _cmd_degree, "tableau degrees, tile-wise and generator-wise",
        config=True, n=True, shape=True)
    add("word", _cmd_word, "reduced words of standard tableaux; --shape also "
        "accepts a full tableau literal", config=True, n=True, shape=True)
    return top


def run(argv=None):
    """Parse argv and execute; returns the process exit code."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except _UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except _CheckFailure as exc:
        print(str(exc), file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
