"""The library is what the command line runs.

Every subcommand runs under sys.settrace (call events only) on the
shipped configurations at n = 2 and 4, in both formats and with
--shape, --block-of, --tol, a tableau literal for word and
calibrated-check at n = 1.  Every function and method defined in
src/blobalg must be entered, apart from the allowlist below, each entry
with its reason; what only tests call is a test oracle and lives in
tests/oracles.py.  Each module's __all__ must list exactly its public
top-level definitions.
"""

import ast
import importlib
import inspect
import pkgutil
import sys
import warnings
from functools import cached_property
from pathlib import Path

import blobalg
from blobalg.cli import run

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "configs").glob("*.json"))
MODULES = [blobalg] + [importlib.import_module("blobalg." + m.name)
                       for m in pkgutil.iter_modules(blobalg.__path__)]

_TRACED = ("named by a perfbench/tracer.py span (tests/test_tracer_names.py); "
           "goes when ROADMAP item 4 drops that span")
_ACCEPTANCE = ("called as an attribute by tests/test_acceptance.py "
               "assertions, which stay as they are")

UNREACHED = {
    "tableaux.cstd": _TRACED,
    "tableaux._target_residues": "reads cstd's target; goes with cstd",
    "paths.residue_class_tableaux": _TRACED,
    "paths.degree_tiles": _TRACED,
    "paths.degree_klr": _TRACED,
    "paths.is_ladder": _TRACED,
    "paths.tau_order": _TRACED,
    "cli.main": "the console-script entry point, sys.exit(run())",
    "params.Residue.__repr__": "a dunder: how residues print in errors",
    "calibrated.Seminormal.nbytes": (
        "read by perfbench/tracer.py's calibrated.dense_bytes "
        "(tests/test_tracer_names.py runs it); goes with ROADMAP item 4"),
    "decomp.GradedMatrix.identity": _ACCEPTANCE,
    "decomp.GradedMatrix.entry": _ACCEPTANCE,
    "laurent.is_positive": _ACCEPTANCE,
    "laurent.normalized": _ACCEPTANCE,
}


def _argvs():
    out = []
    for path in CONFIGS:
        cfg = ("--config", str(path))
        for fmt in ("tsv", "json"):
            out.append(("validate", *cfg, "--format", fmt))
        for n, fmt in ((2, "json"), (4, "tsv")):
            common = (*cfg, "--n", str(n), "--format", fmt)
            for cmd in ("delta", "decomp", "blocks", "bounds", "ladders",
                        "degree", "word"):
                out.append((cmd, *common))
            out.append(("calibrated-check", *common, "--tol", "1e-7"))
            for cmd in ("delta", "decomp"):
                out.append((cmd, *common, "--block-of", "(0,theta)"))
            for cmd in ("ladders", "degree", "word"):
                out.append((cmd, *common, "--shape", "(2,alpha1)"))
    for n, fmt in ((2, "json"), (4, "tsv")):
        for cmd in ("shapes", "tableaux"):
            out.append((cmd, "--n", str(n), "--format", fmt))
        out.append(("tableaux", "--n", str(n), "--shape", "(0,theta)"))
    out.append(("word", "--config", str(CONFIGS[0]), "--n", "3",
                "--shape", "(1,alpha1):[-2,1,3]"))
    # at n = 1 there is no T_i to conjugate by, and T_n is T_0v densified
    out.append(("calibrated-check", "--config", str(CONFIGS[0]), "--n", "1"))
    return out


def _members(obj):
    """(name, function) of what a class defines, properties included."""
    for attr, member in vars(obj).items():
        if isinstance(member, (staticmethod, classmethod)):
            member = member.__func__
        elif isinstance(member, property):
            member = member.fget
        elif isinstance(member, cached_property):
            member = member.func
        if inspect.isfunction(member):
            yield attr, member


def _defined():
    """{qualified name: code object} of every function and method whose
    source is in the package; the methods dataclass and NamedTuple
    generate have none."""
    out = {}
    for mod in MODULES:
        prefix = mod.__name__.partition(".")[2] or "blobalg"
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj):
                found = [(name, obj)]
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                found = [("%s.%s" % (name, attr), f) for attr, f in _members(obj)]
            else:
                continue
            out.update(("%s.%s" % (prefix, qual), f.__code__) for qual, f in found
                       if f.__code__.co_filename == mod.__file__)
    return out


def test_every_library_function_is_reached_by_a_command(capsys):
    entered = set()

    def trace(frame, event, arg):
        entered.add(frame.f_code)   # the global hook only sees calls

    failed = []
    previous = sys.gettrace()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sys.settrace(trace)
        try:
            for argv in _argvs():
                if run(list(argv)) != 0:
                    failed.append(argv)
        finally:
            sys.settrace(previous)
    capsys.readouterr()
    assert not failed
    unreached = {q for q, code in _defined().items() if code not in entered}
    assert unreached - set(UNREACHED) == set(), "only tests reach these"
    assert set(UNREACHED) - unreached == set(), "stale allowlist entries"


def _public_definitions(mod):
    tree = ast.parse(Path(mod.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {name for name in names if not name.startswith("_")}


def test_all_lists_exactly_the_public_definitions():
    for mod in MODULES:
        listed = getattr(mod, "__all__", [])
        assert len(listed) == len(set(listed)), mod.__name__
        assert set(listed) == _public_definitions(mod), mod.__name__
