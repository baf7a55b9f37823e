"""Run one CLI invocation with per-module tracing and write the trace.

    python3 perfbench/traced.py TRACE_OUT -- CLI_ARGS...

Wraps every public function of the traced nusets modules, under its own
name and under each name another module imported it as (for example
``nusets.equivalence.validate_indexed``), then calls
``nusets.cli.main(CLI_ARGS)``. Every call is counted, recursive ones too.
A span is recorded where a call crosses from one module into another, and
for the phase functions in PHASES wherever they are called. Spans are kept
in memory as per-name totals (count, inclusive seconds, self seconds, and
inclusive seconds per parent) and written to TRACE_OUT as JSON at exit.
Self time is a span's duration minus that of its child spans.
"""

import functools
import importlib
import inspect
import json
import sys
import time

MODULES = ("words", "presheaf", "shapes", "indexed", "equivalence",
           "parametricity", "streams", "cli")

# Non-recursive entry points that get a span even when called from their
# own module, so that their self time is separable.
PHASES = {
    "indexed.validate_indexed", "indexed.check_coh_frame",
    "indexed.check_coh_painting", "indexed.parse_indexed",
    "indexed.emit_indexed", "equivalence.to_indexed",
    "equivalence.to_fibred", "equivalence.round_trip_report",
    "presheaf.check_functor_laws", "presheaf.parse_nuset",
    "presheaf.emit_nuset", "parametricity.parse_type",
    "parametricity.iterate_types",
}


class Tracer:
    def __init__(self):
        self.calls = {}        # "module.function" -> [count]
        self.spans = {}        # "module.function" -> [count, incl, self]
        self.edges = {}        # "parent>child" -> inclusive seconds
        self.module_self = {}  # module -> self seconds
        # open spans: [name, module, start, seconds of closed children]
        self.stack = [["<root>", "<root>", 0.0, 0.0]]

    def wrap(self, module, name, fn):
        key = f"{module}.{name}"
        counter = self.calls.setdefault(key, [0])
        always = key in PHASES
        stack = self.stack
        clock = time.perf_counter
        close = self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counter[0] += 1
            if not always and stack[-1][1] == module:
                return fn(*args, **kwargs)
            frame = [key, module, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                close(frame, clock())
        return wrapper

    def _close(self, frame, end):
        self.stack.pop()
        key, module, start, children = frame
        dur = end - start
        own = dur - children
        agg = self.spans.setdefault(key, [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += dur
        agg[2] += own
        parent = self.stack[-1]
        parent[3] += dur
        edge = f"{parent[0]}>{key}"
        self.edges[edge] = self.edges.get(edge, 0.0) + dur
        self.module_self[module] = self.module_self.get(module, 0.0) + own

    def install(self, modules):
        wrappers = {}
        for short, mod in modules.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self.wrap(short, name, obj)
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, name, wrappers[obj])

    def dump(self):
        return {"calls": {k: v[0] for k, v in self.calls.items()},
                "spans": self.spans, "edges": self.edges,
                "module_self": self.module_self}


def main():
    out, sep, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if sep != "--":
        sys.exit("usage: traced.py TRACE_OUT -- CLI_ARGS...")
    start = time.perf_counter()
    cli = importlib.import_module("nusets.cli")
    import_s = time.perf_counter() - start
    # Each wrapped call adds one frame: allow the doubled depth, so that
    # whatever recursion succeeds untraced also succeeds traced.
    sys.setrecursionlimit(2 * sys.getrecursionlimit())
    tracer = Tracer()
    tracer.install({m: importlib.import_module(f"nusets.{m}")
                    for m in MODULES})
    try:
        return cli.main(argv)
    finally:
        doc = dict(tracer.dump(), import_s=import_s)
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


if __name__ == "__main__":
    sys.exit(main())
