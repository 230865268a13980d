"""Span tracing from outside the program.

A Tracer wraps public functions of ctagsched by rebinding the names in the
namespace of the module that calls them (for example
``ctagsched.scheduler.enumerate_swap_strategies``), so no source file of the
package changes.  Spans stay in memory as tuples

    (name, start, end, parent, op, out)

where ``parent`` is the index of the enclosing span (-1 at top level), ``op``
identifies the compile every span of one instance shares, and ``out`` is a
small integer taken from the return value (strategies returned, mapping
found) or -1.  Only the traced run installs wrappers; the untraced run calls
the package as imported.

This module imports nothing from ctagsched at load time, so the CLI runner
can time the package import after loading it.
"""
from __future__ import annotations

import importlib
from time import perf_counter

# (module, attribute, span name, out) for names the scheduler calls
SCHEDULER_CALLS = (
    ("ctagsched.scheduler", "enumerate_swap_strategies", "scheduler.enumerate", len),
    ("ctagsched.scheduler", "score_strategy", "scheduler.score", None),
    ("ctagsched.scheduler", "maximal_matching", "scheduler.matching", None),
    ("ctagsched.scheduler", "partial_pattern_cycles", "scheduler.prefix", None),
    ("ctagsched.scheduler", "prune_pattern", "pattern.prune", None),
    ("ctagsched.scheduler", "to_text", "pattern.to_text", None),
    ("ctagsched.scheduler", "astar_initial_mapping", "initial_mapping.astar", None),
    ("ctagsched.scheduler", "iso_initial_mapping", "initial_mapping.iso",
     lambda r: int(r is not None)),
    ("ctagsched.scheduler", "hilbert_embedding", "embedding.chain", None),
    ("ctagsched.scheduler", "multi_embeddings", "embedding.chain", None),
    ("ctagsched.scheduler", "device_embedding", "embedding.chain", None),
)

# names the CLI module calls, wrapped only inside a CLI process
CLI_CALLS = (
    ("ctagsched.cli", "schedule", "scheduler.schedule", None),
    ("ctagsched.cli", "verify", "verify.verify", None),
    ("ctagsched.cli", "metrics", "verify.metrics", None),
    ("ctagsched.cli", "load_problem_graph", "graphs.load_problem_graph", None),
    ("ctagsched.cli", "make_architecture", "graphs.make_architecture", None),
    ("ctagsched.cli", "to_text", "cli.to_text", None),
    ("ctagsched.cli", "to_json_dict", "cli.to_json_dict", None),
    ("ctagsched.cli", "from_json_dict", "cli.from_json", None),
)


class _JsonProxy:
    """Stands in for the ``json`` module inside ctagsched.cli so that the
    file dumps of ``ctagsched schedule`` are timed; every other name passes
    through."""

    def __init__(self, real, dump):
        self._real = real
        self.dump = dump

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.op = -1

    def wrap(self, fn, name: str, out=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                n_out = out(result) if out is not None and result is not None else -1
                spans[idx] = (name, t0, t1, parent, self.op, n_out)

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run one call of the benchmark's own under a span."""
        return self.wrap(fn, name)(*args, **kwargs)

    def install(self, table) -> None:
        for modname, attr, name, out in table:
            mod = importlib.import_module(modname)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self.wrap(orig, name, out))

    def install_cli(self) -> None:
        self.install(SCHEDULER_CALLS + CLI_CALLS)
        cli = importlib.import_module("ctagsched.cli")
        self._saved.append((cli, "json", cli.json))
        cli.json = _JsonProxy(cli.json, self.wrap(cli.json.dump, "cli.dump"))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    def __enter__(self):
        self.install(SCHEDULER_CALLS)
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def totals(spans) -> dict[int, dict[str, float]]:
    """Per op and span name: ``<name>_s`` (wall time inside),
    ``<name>_self_s`` (wall time minus the part covered by child spans),
    ``<name>_calls``, and for wrappers with an out value ``<name>_out`` (sum)
    and ``<name>_hits`` (calls with out > 0)."""
    child = [0.0] * len(spans)
    for _name, t0, t1, parent, _op, _out in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    by_op: dict[int, dict[str, float]] = {}
    for i, (name, t0, t1, _parent, op, out) in enumerate(spans):
        acc = by_op.setdefault(op, {})
        d = t1 - t0
        acc[name + "_s"] = acc.get(name + "_s", 0.0) + d
        acc[name + "_self_s"] = acc.get(name + "_self_s", 0.0) + d - child[i]
        acc[name + "_calls"] = acc.get(name + "_calls", 0) + 1
        if out >= 0:
            acc[name + "_out"] = acc.get(name + "_out", 0) + out
            acc[name + "_hits"] = acc.get(name + "_hits", 0) + (out > 0)
    return by_op
