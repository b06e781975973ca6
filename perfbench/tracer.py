"""Run one `hval` command in this process with its layers instrumented.

    python3 perfbench/tracer.py --out FILE --command ID [--profile] -- <hval arguments>

The package must be importable (the benchmark puts its `src` directory on
PYTHONPATH).  stdout carries exactly what `hval` prints; the measurements
go to FILE as JSON, written once the command has finished.

Span mode (the default) wraps the public entry points of each layer, in
every package module that imported them, and records one span per call:
(name, start, end, parent span, command id, attributes).  Profile mode
instead runs the command under cProfile, in every thread, and records only
call counts; profiling inflates times several-fold, so no time is taken
from it.
"""

from __future__ import annotations

import argparse
import cProfile
import functools
import inspect
import json
import os
import resource
import sys
import threading
import time

# (module, function, span name): the layer entry points that get a span.
SPANNED = (
    ("bimaps", "solve_biderivations", "bimaps.solve"),
    ("commuting", "solve_commuting", "commuting.solve"),
    ("linalg", "nullspace", "linalg.nullspace"),
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "solve_affine", "linalg.solve_affine"),
    ("bimaps", "is_biderivation", "bimaps.check"),
    ("linmaps", "is_derivation", "linmaps.check"),
    ("commuting", "is_commuting", "commuting.check"),
    ("postlie", "is_commutative_postlie", "postlie.check"),
    ("leftsym", "is_left_symmetric", "leftsym.check"),
    ("leftsym", "subadjacent_residual", "leftsym.strata"),
    ("linmaps", "decompose_derivation", "linmaps.decompose"),
    ("linmaps", "collect_report", "linmaps.collect_report"),
    ("parallel", "run_ordered", "parallel.run_ordered"),
    ("render", "render_check_report", "render.render"),
    ("render", "render_solution_space", "render.render"),
    ("render", "render_strata_report", "render.render"),
    ("parsing", "parse_linear_map_file", "parsing.parse"),
    ("parsing", "parse_bilinear_map_file", "parsing.parse"),
    ("parsing", "parse_scalar", "parsing.parse"),
)

# (file name, function name) -> count name, for the profile pass.
COUNTED = {
    ("scalars.py", "__mul__"): "scalars.mul_calls",
    ("scalars.py", "__add__"): "scalars.add_calls",
    ("scalars.py", "inv"): "scalars.inv_calls",
    ("scalars.py", "__init__"): "scalars.new_calls",
    ("fractions.py", "__new__"): "scalars.fraction_new_calls",
    ("core.py", "mul_keys"): "core.mul_keys_calls",
    ("core.py", "__add__"): "core.element_add_calls",
    ("leftsym.py", "mul_keys"): "leftsym.mul_keys_calls",
}


def _cpu_s() -> float:
    """CPU time of this process (all threads) and its reaped children."""
    child = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + child.ru_utime + child.ru_stime


def _measure_args(name, call):
    """Attributes taken from a call's bound arguments.  An iterator argument
    that must be counted is replaced by the list it yields, which the
    callee then consumes in its place."""
    attrs = {}
    arguments = call.arguments
    if name == "linalg.nullspace":
        rows = arguments["rows"] = list(arguments["rows"])
        attrs.update(rows_in=len(rows), cols=arguments["ncols"],
                     nnz_in=sum(len(row) for row in rows))
    elif name == "parallel.run_ordered":
        items = arguments["items"] = list(arguments["items"])
        attrs["items"] = len(items)
        attrs["cpu_start"] = _cpu_s()
    return attrs


def _measure_result(name, attrs, result):
    if name == "linalg.nullspace":
        attrs["nullity"] = len(result)
        attrs["rank"] = attrs["cols"] - len(result)
    elif name == "parallel.run_ordered":
        attrs["cpu_s"] = _cpu_s() - attrs.pop("cpu_start")
    elif name == "linmaps.collect_report":
        attrs.update(
            instances=result.checked + result.skipped,
            skipped=result.skipped,
            counterexamples=len(result.counterexamples),
        )
    elif name == "render.render":
        attrs["bytes_out"] = len(result.encode("utf-8"))


class Spans:
    """Spans kept in memory: [name, start, end, parent index, command id,
    attributes]."""

    def __init__(self, command):
        self.command = command
        self.spans = []
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, func):
        signature = inspect.signature(func)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            call = signature.bind(*args, **kwargs)
            attrs = _measure_args(name, call)
            stack = self._stack()
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.command, attrs]
            index = len(self.spans)
            self.spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = func(*call.args, **call.kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            _measure_result(name, attrs, result)
            return result

        return wrapper

    def install(self, package):
        """Replace every entry point in SPANNED, in every module of the
        package that holds a reference to it."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == package or n.startswith(package + "."))]
        for module_name, func_name, span_name in SPANNED:
            original = getattr(sys.modules[f"{package}.{module_name}"], func_name)
            wrapper = self.wrap(span_name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)


def _profile_counts(main, argv):
    """Run main(argv) under cProfile in every thread; return (exit code,
    counts).  A long switch interval keeps threads from interleaving inside
    one work item, so shared caches see the same hits and misses each run."""
    profiles = []

    def start_thread_profile(frame, event, arg):
        profile = cProfile.Profile()
        profiles.append(profile)
        profile.enable()

    sys.setswitchinterval(100.0)
    threading.setprofile(start_thread_profile)
    main_profile = cProfile.Profile()
    main_profile.enable()
    try:
        code = main(argv)
    finally:
        main_profile.disable()
        threading.setprofile(None)
    counts = dict.fromkeys(COUNTED.values(), 0)
    for profile in [main_profile] + profiles:
        for entry in profile.getstats():
            code_obj = entry.code
            if isinstance(code_obj, str):
                continue
            key = (os.path.basename(code_obj.co_filename), code_obj.co_name)
            if key in COUNTED:
                counts[COUNTED[key]] += entry.callcount
    return code, counts


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--command", required=True,
                        help="identifier shared by this command's spans")
    parser.add_argument("--profile", action="store_true")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    argv = opts.argv[1:] if opts.argv[:1] == ["--"] else opts.argv

    started = time.perf_counter()
    import hvalgebra.cli as cli
    from hvalgebra.core import bracket_keys

    record = {"import_s": time.perf_counter() - started}
    if opts.profile:
        code, record["counts"] = _profile_counts(cli.main, argv)
        info = bracket_keys.cache_info()
        record["counts"]["core.bracket_keys_hits"] = info.hits
        record["counts"]["core.bracket_keys_misses"] = info.misses
    else:
        spans = Spans(opts.command)
        spans.install("hvalgebra")
        begin = time.perf_counter()
        code = cli.main(argv)
        record["main_s"] = time.perf_counter() - begin
        record["spans"] = spans.spans
    sys.stdout.flush()
    record["exit"] = code
    with open(opts.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
