"""Traced pass of one workload, run in a fresh process by ``run.py``.

    python3 perfbench/tracer.py --workload NAME --size full|tiny --seed N

Times ``import blobalg.cli`` and, in a fresh interpreter, ``import
numpy``.  Then it runs the workload's invocations through
``blobalg.cli.run`` in this process (with ``--jobs 1``, since spans
inside pool workers would be lost): a warm-up pass, an untraced pass,
a pass with spans, and a pass with counters.  It checks every pass's
output and prints the per-layer metrics as one JSON line.

Spans are recorded here, around calls into each module's public
functions; nothing in the package changes.  A wrapper replaces the
function in every ``blobalg`` module namespace that holds it, because
``from .x import y`` binds a copy that callers then look up.  A span's
self time is its duration minus that of the spans it encloses.  The
hot ``ParamConfig`` methods, the Laurent operations and the tableaux
``enumerate_std`` yields are only counted, in the last pass.
"""

import argparse
import contextlib
import functools
import io
import json
import subprocess
import sys
import time

from workloads import check_output, load_golden, pass_argvs, setup_argv

clock = time.perf_counter

# Cost of ``import numpy`` on its own, timed in a fresh interpreter.
NUMPY_IMPORT = ("import time; t = time.perf_counter(); import numpy; "
                "print(time.perf_counter() - t)")

# Spans: (layer, module, function).
SPANS = (
    ("params", "blobalg.params", "load_config"),
    ("params", "blobalg.params", "validate_config"),
    ("tableaux", "blobalg.tableaux", "cstd"),
    ("paths", "blobalg.paths", "degree_tiles"),
    ("paths", "blobalg.paths", "is_ladder"),
    ("paths", "blobalg.paths", "residue_class_tableaux"),
    ("paths", "blobalg.paths", "degree_klr"),
    ("paths", "blobalg.paths", "reduced_word"),
    ("paths", "blobalg.paths", "tau_order"),
    ("decomp", "blobalg.decomp", "delta_matrix"),
    ("decomp", "blobalg.decomp", "blocks"),
    ("decomp", "blobalg.decomp", "na_factorize"),
    ("decomp", "blobalg.decomp", "delta_graded_dim"),
    ("decomp", "blobalg.decomp", "simple_graded_dims"),
    ("decomp", "blobalg.decomp", "simple_dim_lower_bounds"),
    ("calibrated", "blobalg.calibrated", "make_seed"),
    ("calibrated", "blobalg.calibrated", "build_calibrated"),
    ("calibrated", "blobalg.calibrated", "check_hecke_relations"),
    ("calibrated", "blobalg.calibrated", "check_tl_relations"),
    ("calibrated", "blobalg.calibrated", "check_jm_spectrum"),
    ("calibrated", "blobalg.calibrated", "blob_check"),
)
PARAM_METHODS = ("residue", "on_hyperplane", "marker_label_at")
LAURENT_OPS = ("add", "sub", "mul", "bar_split")
CHECKS = ("check_hecke_relations", "check_tl_relations", "check_jm_spectrum",
          "blob_check")

# Per-layer metrics and units; BENCHMARK.json lists the same names.
UNITS = {
    "cli.import_s": "s",
    "cli.import_numpy_s": "s",
    "cli.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
    "params.load_config.s": "s",
    "params.validate_config.s": "s",
    "params.residue.calls": "count",
    "params.on_hyperplane.calls": "count",
    "params.marker_label_at.calls": "count",
    "laurent.ops": "count",
    "tableaux.enumerate_std.tableaux": "count",
    "tableaux.cstd.calls": "count",
    "tableaux.cstd.self_s": "s",
    "tableaux.cstd.useful_ratio": "ratio",
    "paths.degree_tiles.calls": "count",
    "paths.degree_tiles.self_s": "s",
    "paths.is_ladder.calls": "count",
    "paths.is_ladder.total_s": "s",
    "paths.residue_class_tableaux.calls": "count",
    "paths.degree_klr.self_s": "s",
    "paths.reduced_word.self_s": "s",
    "paths.tau_order.self_s": "s",
    "decomp.delta_matrix.calls": "count",
    "decomp.delta_matrix.total_s": "s",
    "decomp.na_factorize.self_s": "s",
    "decomp.blocks.self_s": "s",
    "decomp.matrix_dim": "count",
    "decomp.simple_dim_lower_bounds.total_s": "s",
    "decomp.simple_graded_dims.total_s": "s",
    "decomp.delta_graded_dim.total_s": "s",
    "calibrated.build_calibrated.self_s": "s",
    "calibrated.check_hecke_relations.self_s": "s",
    "calibrated.check_tl_relations.self_s": "s",
    "calibrated.check_jm_spectrum.self_s": "s",
    "calibrated.blob_check.self_s": "s",
    "calibrated.relations": "count",
    "calibrated.norm.calls": "count",
    "calibrated.norm.self_s": "s",
    "calibrated.dense_bytes": "bytes",
    "calibrated.worst_residual": "norm",
}


class Span:
    __slots__ = ("calls", "total", "self_time", "depth")

    def __init__(self):
        self.calls = 0
        self.total = 0.0      # outermost activations only, so recursion counts once
        self.self_time = 0.0
        self.depth = 0


class Tracer:
    def __init__(self):
        self.spans = {}
        self.counts = {}
        self.stack = []       # child time accumulated by each open span
        self.top_time = 0.0   # time inside spans with no enclosing span
        self.cstd_useful = 0
        self.matrix_dim = 0
        self.relations = 0
        self.worst_residual = 0.0
        self.dense_bytes = 0

    def span(self, name, fn, on_result=None):
        stat = self.spans.setdefault(name, Span())
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            stat.depth += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                children = stack.pop()
                stat.depth -= 1
                stat.calls += 1
                stat.self_time += dur - children
                if stat.depth == 0:
                    stat.total += dur
                if stack:
                    stack[-1] += dur
                else:
                    self.top_time += dur
            if on_result is not None:
                on_result(out)
            return out
        return wrapper

    def counter(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def counting_generator(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                cell[0] += 1
                yield item
        return wrapper

    # -- result observers ----------------------------------------------

    def _cstd_result(self, found):
        if found:
            self.cstd_useful += 1

    def _delta_result(self, mat):
        self.matrix_dim = max(self.matrix_dim, mat.dim)

    def _check_result(self, rep):
        self.relations += len(rep["relations"])
        self.worst_residual = max(self.worst_residual, rep["max_residual"])

    def _module_result(self, mod):
        # Computed, not measured: bytes of the dense matrices one module holds.
        arrays = [mod.t0, mod.t0v, mod.tn] + list(mod.ts) + list(mod.xs)
        self.dense_bytes = max(self.dense_bytes, sum(a.nbytes for a in arrays))

    # -- installation --------------------------------------------------

    def install_spans(self):
        import numpy.linalg

        from blobalg import cli
        observers = {
            "cstd": self._cstd_result,
            "delta_matrix": self._delta_result,
            "build_calibrated": self._module_result,
        }
        observers.update((c, self._check_result) for c in CHECKS)
        replaced = {}
        for layer, module, func in SPANS:
            orig = getattr(sys.modules[module], func)
            replaced[id(orig)] = self.span("%s.%s" % (layer, func), orig,
                                           observers.get(func))
        _rebind(replaced)
        # The CLI binds the checkers into a tuple at import time.
        cli._CHECKS = tuple((name, replaced.get(id(f), f))
                            for name, f in cli._CHECKS)
        numpy.linalg.norm = self.span("calibrated.norm", numpy.linalg.norm)

    def install_counters(self):
        from blobalg import laurent, params, tableaux
        replaced = {id(getattr(laurent, op)):
                    self.counter("laurent.ops", getattr(laurent, op))
                    for op in LAURENT_OPS}
        replaced[id(tableaux.enumerate_std)] = self.counting_generator(
            "tableaux.enumerate_std.tableaux", tableaux.enumerate_std)
        _rebind(replaced)
        for method in PARAM_METHODS:
            setattr(params.ParamConfig, method, self.counter(
                "params.%s.calls" % method, getattr(params.ParamConfig, method)))

    # -- report ----------------------------------------------------------

    def span_metrics(self, traced_wall):
        s = self.spans
        cstd_calls = s["tableaux.cstd"].calls
        out = {
            "cli.self_s": traced_wall - self.top_time,
            "params.load_config.s": s["params.load_config"].total,
            "params.validate_config.s": s["params.validate_config"].total,
            "tableaux.cstd.useful_ratio":
                self.cstd_useful / cstd_calls if cstd_calls else 0.0,
            "decomp.matrix_dim": self.matrix_dim,
            "calibrated.relations": self.relations,
            "calibrated.worst_residual": self.worst_residual,
            "calibrated.dense_bytes": self.dense_bytes,
        }
        for name in UNITS:
            span, _, stat = name.rpartition(".")
            if name not in out and span in s:
                out[name] = {"calls": s[span].calls, "total_s": s[span].total,
                             "self_s": s[span].self_time}[stat]
        return out

    def count_metrics(self):
        return {name: cell[0] for name, cell in self.counts.items()}


def _rebind(replaced):
    """Swap each function keyed by id in ``replaced`` for its wrapper in
    every blobalg module namespace that holds it."""
    for mod in [m for n, m in sys.modules.items()
                if n == "blobalg" or n.startswith("blobalg.")]:
        for attr, value in list(vars(mod).items()):
            if id(value) in replaced:
                setattr(mod, attr, replaced[id(value)])


def run_pass(run, argvs, golden, errors):
    """Run argvs through ``cli.run`` in this process; return (wall, stdout bytes)."""
    wall, nbytes = 0.0, 0
    for argv in argvs:
        buf = io.StringIO()
        t0 = clock()
        with contextlib.redirect_stdout(buf):
            code = run(argv)
        wall += clock() - t0
        out = buf.getvalue().encode()
        nbytes += len(out)
        problem = check_output(argv, code, out, golden)
        if problem is not None:
            errors.append("traced %s: %s" % (" ".join(argv), problem))
    return wall, nbytes


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    golden = load_golden()
    argvs = [setup_argv(args.workload)] + pass_argvs(
        args.workload, args.size, args.seed, jobs=1)

    t0 = clock()
    from blobalg import cli
    import_s = clock() - t0
    # Loaded here, untimed, in case the CLI imports some of them lazily.
    from blobalg import calibrated, decomp, laurent, params, paths, tableaux  # noqa: F401
    numpy_s = float(subprocess.run(
        [sys.executable, "-c", NUMPY_IMPORT], capture_output=True, text=True,
        check=True).stdout)

    # A warm-up pass first: the first pass in a process pays one-off costs
    # (first allocations, BLAS start-up) that the later ones do not.
    # Counters go on last, so that their cost stays out of the span times.
    errors = []
    run_pass(cli.run, argvs, golden, errors)
    untraced, _ = run_pass(cli.run, argvs, golden, errors)
    tracer = Tracer()
    tracer.install_spans()
    traced, nbytes = run_pass(cli.run, argvs, golden, errors)
    metrics = tracer.span_metrics(traced)
    tracer.install_counters()
    run_pass(cli.run, argvs, golden, errors)
    metrics.update(tracer.count_metrics())
    metrics.update({
        "cli.import_s": import_s,
        "cli.import_numpy_s": numpy_s,
        "cli.stdout_bytes": nbytes,
        "trace.untraced_wall_s": untraced,
        "trace.traced_wall_s": traced,
        "trace.overhead_s": traced - untraced,
    })
    print(json.dumps({
        "attempted": 4 * len(argvs),
        "failed": len(errors),
        "errors": errors,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in UNITS.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
