"""In-memory span tracer that wraps azdual's public functions from outside.

A span is one call of a wrapped function (or one pull from a wrapped
generator): name, start, end, parent span and op id.  The tracer replaces
a function at every place an azdual module looked its name up (for example
``azdual.langdata.validate`` and ``azdual.ad_core.validate``) and the
entries of ``azdual.verify.SUITES``; ``restore`` puts the originals back.
Nothing under src/azdual is edited.
"""
from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

# (module under azdual, function name, span name)
TARGETS = (
    ("cli", "main", "cli.dataset"),
    ("cli", "render_doc", "cli.render"),
    ("cli", "render_output", "cli.render"),
    ("verify", "enumerate_data", "verify.enumerate"),
    ("verify", "enumerate_symm", "verify.enumerate"),
    ("verify", "standard_sweep", "verify.enumerate"),
    ("verify", "run_properties", "verify.run_properties"),
    ("verify", "first_start_prediction", "verify.first_start_prediction"),
    ("langdata", "transfer", "langdata.transfer"),
    ("langdata", "untransfer", "langdata.untransfer"),
    ("langdata", "validate", "langdata.validate"),
    ("langdata", "require_valid", "langdata.require_valid"),
    ("ad_core", "ad_data", "ad_core.ad_data"),
    ("ad_core", "ad_symm", "ad_core.ad_symm"),
    ("ad_core", "ad_step", "ad_core.ad_step"),
    ("mw_gl", "mw_transpose", "mw_gl.mw_transpose"),
    ("mw_gl", "transpose_pairs", "mw_gl.transpose_pairs"),
    ("mw_gl", "kz_capacity", "mw_gl.kz_capacity"),
    ("mw_gl", "containment_count", "mw_gl.containment_count"),
    ("derivatives", "derivative", "derivatives.derivative"),
    ("derivatives", "derivative_L", "derivatives.derivative_L"),
    ("derivatives", "best_matching", "derivatives.best_matching"),
    ("derivatives", "reduced_report", "derivatives.reduced_report"),
)

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """Records spans while ``enabled``; wrappers pass straight through
    otherwise, so checks run between traced ops stay out of the trace."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self._stack = []
        self._patched = []
        self.enabled = False
        self.op = -1

    def next_op(self):
        self.op += 1

    def _begin(self, name):
        self._stack.append(len(self.spans))
        parent = self._stack[-2] if len(self._stack) > 1 else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op])

    def _end(self):
        self.spans[self._stack.pop()][END] = perf_counter()

    def wrap(self, fn, name):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                return self._pulls(name, gen) if self.enabled else gen
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self._begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end()
        return wrapper

    def _pulls(self, name, gen):
        """Each pull from ``gen`` is one span."""
        while True:
            self._begin(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._end()
            yield item

    def install(self):
        """Wrap every TARGETS function at each azdual module that holds it,
        and every property suite."""
        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == "azdual" or k.startswith("azdual."))]
        for modname, attr, span in TARGETS:
            orig = getattr(sys.modules["azdual." + modname], attr)
            wrapped = self.wrap(orig, span)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                        self._patched.append((vars(mod), key, orig))
        suites = sys.modules["azdual.verify"].SUITES
        for key, orig in list(suites.items()):
            suites[key] = self.wrap(orig, "verify.suite." + key)
            self._patched.append((suites, key, orig))

    def restore(self):
        while self._patched:
            table, key, orig = self._patched.pop()
            table[key] = orig

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\top\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start!r}\t{end!r}\t{parent}\t{op}\n")


def self_times(spans):
    """Per-span self time: duration minus the time its child spans cover.

    Spans come from one thread and a stack, so a span's children never
    overlap each other and lie inside it; their durations simply add up.
    """
    child = [0.0] * len(spans)
    for sp in spans:
        if sp[PARENT] >= 0:
            child[sp[PARENT]] += sp[END] - sp[START]
    return [sp[END] - sp[START] - c for sp, c in zip(spans, child)]


def summarize(spans):
    """{name: (self seconds, inclusive seconds, calls inside ops)}."""
    out = {}
    for sp, self_s in zip(spans, self_times(spans)):
        s, incl, calls = out.get(sp[NAME], (0.0, 0.0, 0))
        out[sp[NAME]] = (s + self_s, incl + sp[END] - sp[START],
                         calls + (sp[OP] >= 0))
    return out
