"""Spans around calls into bdecay's public functions, recorded from outside.

`Tracer.install` replaces each traced function in every loaded bdecay module
that holds a reference to it (modules import each other's functions by
name), so calls made inside the package are traced as well as calls made by
the benchmark.  Spans stay in memory; `round_totals` folds the spans of one
round into inclusive seconds, self seconds and counters.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# layer name -> the (module, function) pairs it covers
TRACED = {
    "chain.ladder": [("chain", "build_eps_sis_ladder"), ("chain", "restrict_transient")],
    "charpoly.char_coeffs": [("charpoly", "char_coeffs")],
    "decay.newton_bound": [("decay", "newton_bound")],
    "decay.exact_zeta": [("decay", "exact_zeta")],
    "decay.decay_report": [("decay", "decay_report")],
    "cli.main": [("cli", "main")],
    "sis.lifetime_direct": [("sis", "lifetime_direct")],
    "sis.lifetime_expint": [("sis", "lifetime_expint")],
    "sis.mean_absorption_time": [("sis", "mean_absorption_time")],
    "oracle.gillespie_simulate": [("oracle", "gillespie_simulate")],
    "oracle.dense_spectrum": [("oracle", "dense_spectrum")],
    "oracle.hitting_time_solve": [("oracle", "hitting_time_solve")],
    "validate.run_suite": [("validate", "run_suite")],
}


def _exact_zeta_counts(args, kwargs, result):
    ladder = args[0] if args else kwargs["ladder"]
    ctx = args[1] if len(args) > 1 else kwargs.get("ctx")
    return {"states": ladder.n_states, "bits": ctx.mantissa_bits if ctx else 128}


def _lifetime_direct_counts(args, kwargs, result):
    return {"states": args[0] if args else kwargs["n"]}


def _gillespie_counts(args, kwargs, result):
    return {"runs": result.runs_completed}


COUNTERS = {
    "decay.exact_zeta": _exact_zeta_counts,
    "sis.lifetime_direct": _lifetime_direct_counts,
    "oracle.gillespie_simulate": _gillespie_counts,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_s", "counts")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.child_s = 0.0
        self.counts = None


class Tracer:
    """Records one span per call of a traced function."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), parent)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start
                self.spans.append(span)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Swap every traced function for its wrapper in all bdecay modules."""
        for targets in TRACED.values():
            for mod_name, _ in targets:
                importlib.import_module(f"bdecay.{mod_name}")
        modules = [m for k, m in sys.modules.items() if k == "bdecay" or k.startswith("bdecay.")]
        for name, targets in TRACED.items():
            for mod_name, fn_name in targets:
                original = getattr(sys.modules[f"bdecay.{mod_name}"], fn_name)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def take(self):
        """Spans recorded since the last call."""
        spans, self.spans = self.spans, []
        return spans


def round_totals(spans):
    """Per-layer totals of one round.

    `<layer>_s` is the inclusive time of the outermost calls of that layer,
    `<layer>.self_s` the time not covered by other traced calls, and
    `<layer>.<counter>` the summed counters.
    """
    out = {}
    for span in spans:
        duration = span.end - span.start
        # a layer nested in itself (through another layer) counts once
        outer = span.parent
        while outer is not None and outer.name != span.name:
            outer = outer.parent
        if outer is None:
            out[f"{span.name}_s"] = out.get(f"{span.name}_s", 0.0) + duration
        out[f"{span.name}.self_s"] = out.get(f"{span.name}.self_s", 0.0) + duration - span.child_s
        out[f"{span.name}.calls"] = out.get(f"{span.name}.calls", 0) + 1
        for key, value in (span.counts or {}).items():
            out[f"{span.name}.{key}"] = out.get(f"{span.name}.{key}", 0) + value
    return out
