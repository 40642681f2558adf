"""Outside-in per-layer tracing of the vexp library.

The tracer never edits program files.  `Tracer.wrap` replaces a public
callable of a `vexp` module by a wrapper under every name a `vexp` module
imported it as (for a method, on its class), and `Tracer.uninstall` puts the
originals back; `install_vexp_probes` wraps every layer boundary.
Wrappers either open a span (name, inclusive time, self time) or only bump a
counter; counters measure work where it happens (points evaluated, matrix
elements, modular evaluations).

Spans keep aggregates per name rather than a record per call: the audit makes
hundreds of thousands of calls, and only totals are reported.  A span's self
time is its duration minus the time covered by its child spans.  The tracer
assumes one calling thread; the benchmark runs every traced workload that way.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

PROBE_MARK = "_perfbench_probe"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []   # [name, start, child_time]
        self._patches: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def begin(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def end(self) -> float:
        name, start, child = self._stack.pop()
        dur = self.clock() - start
        agg = self.spans[name]
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        return dur

    def current(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def calls(self, name: str) -> int:
        return self.spans[name][0] if name in self.spans else 0

    def inclusive_s(self, name: str) -> float:
        return self.spans[name][1] if name in self.spans else 0.0

    def self_s(self, name: str) -> float:
        return self.spans[name][2] if name in self.spans else 0.0

    # -- patching -----------------------------------------------------------

    def wrap(self, owner, attr: str, span: str | None = None,
             before=None, after=None, only_in: tuple[str, ...] | None = None):
        """Wrap `owner.attr` (a module function or a class attribute).

        For a module function every `vexp` module binding the same object is
        patched, unless `only_in` names the modules to patch.  `before(args)`
        runs ahead of the call; `after(args, result)` may return a
        replacement result (used to wrap returned closures).
        """
        orig = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            if span is None:
                out = orig(*args, **kwargs)
            else:
                tracer.begin(span)
                try:
                    out = orig(*args, **kwargs)
                finally:
                    tracer.end()
            if after is not None:
                replaced = after(args, out)
                if replaced is not None:
                    return replaced
            return out

        setattr(wrapper, PROBE_MARK, True)
        if isinstance(owner, type):
            self._set(owner, attr, wrapper)
            return
        for mod in _vexp_modules():
            if only_in is not None and mod.__name__ not in only_in:
                continue
            for name, val in list(vars(mod).items()):
                if val is orig:
                    self._set(mod, name, wrapper)

    def _set(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, orig = self._patches.pop()
            setattr(owner, name, orig)


def _vexp_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "vexp" or name.startswith("vexp."))]


def assert_untraced() -> None:
    """Raise if any probe is still installed; timed runs call this first."""
    for mod in _vexp_modules():
        for val in list(vars(mod).values()):
            inner = list(vars(val).values()) if isinstance(val, type) else []
            for obj in (val, *inner):
                if getattr(obj, PROBE_MARK, False):
                    raise RuntimeError(f"a trace probe is installed in {mod.__name__}")


def _size(x) -> int:
    return int(np.size(x))


def install_vexp_probes(tr: Tracer) -> None:
    """Wrap the layer boundaries of vexp; see perfbench/README.md for the map."""
    from vexp import (audit, bandlimited, fnexpr, functions, norms, quad,
                      smoothness, steklov)

    count = tr.counts

    def bump(key, amount=1):
        def hook(args):
            count[key] += amount(args) if callable(amount) else amount
        return hook

    # fnexpr: calls into a parsed expression, and every node dispatch
    tr.wrap(fnexpr.FuncExpr, "__call__", span="fnexpr",
            before=bump("fnexpr.points", lambda a: _size(a[1])))
    tr.wrap(fnexpr, "evaluate", before=bump("fnexpr.node_evals"))

    # functions: the outer-product kernel; calls from the bandlimited layer
    # are also the convolution's elements
    tr.wrap(functions, "outer_apply", span="functions.outer_apply",
            before=bump("functions.outer_apply.elements",
                        lambda a: _size(a[1]) * _size(a[2])))
    tr.wrap(bandlimited, "outer_apply",
            before=bump("bandlimited.conv_elements",
                        lambda a: _size(a[1]) * _size(a[2])),
            only_in=("vexp.bandlimited",))

    # points sampled by a sup norm or a modular are the arguments of the
    # RealFunction calls those layers make directly
    point_keys = {"steklov.sup_norm": "steklov.sup_norm.points",
                  "norms.sample": "norms.sampled_points"}

    def real_call(args):
        key = point_keys.get(tr.current())
        if key is not None:
            count[key] += _size(args[1])
    tr.wrap(functions.RealFunction, "__call__", before=real_call)

    # quad and norms
    tr.wrap(quad, "find_root_decreasing", before=bump("quad.roots"))
    tr.wrap(norms.SampledModular, "__init__", span="norms.sample")
    tr.wrap(norms.SampledModular, "value", before=bump("norms.modular_evals"))
    tr.wrap(norms.SampledModular, "luxemburg", span="norms.root")
    tr.wrap(norms, "norm_of", before=bump("norms.norm_of.calls"))

    # steklov
    tr.wrap(steklov, "sup_norm", span="steklov.sup_norm")
    tr.wrap(steklov, "iterated_steklov", before=bump("steklov.operator_builds"))
    exact_points = bump("steklov.exact.points", lambda a: _size(a[0]))

    def counted_engine(args, ev):
        if getattr(ev, "__self__", None) is args[0]:
            return None  # the undivided indicator: counted by __call__ below

        def counted(x):
            exact_points((x,))
            return ev(x)
        return counted
    tr.wrap(steklov.IndicatorSteklov, "iterated", after=counted_engine)
    tr.wrap(steklov.IndicatorSteklov, "__call__",
            before=bump("steklov.exact.points", lambda a: _size(a[1])))

    # smoothness
    tr.wrap(smoothness, "modulus", span="smoothness.modulus")
    tr.wrap(smoothness, "k_functional_upper", span="smoothness.khat")

    # bandlimited
    tr.wrap(bandlimited, "vp_operator", span="bandlimited.vp_operator",
            after=lambda a, out: _track_max(tr, getattr(out, "tail_bound", 0.0)))
    tr.wrap(bandlimited, "panel_rule", only_in=("vexp.bandlimited",),
            after=lambda a, out: _add(count, "bandlimited.u_nodes", _size(out[0])))
    tr.wrap(bandlimited, "vp_kernel",
            before=bump("bandlimited.kernel_points", lambda a: _size(a[0])))
    tr.wrap(bandlimited, "best_approx_surrogate", span="bandlimited.ahat",
            after=lambda a, out: _track_max(tr, out.tail_bound))

    # audit: per-family time via run_case, and cache hits.  A lookup is a
    # miss when the call that fills the cache ran inside it.
    _wrap_run_case(tr, audit)
    for owner, attr, cache, fills in (
            (audit.Context, "norm", "norm", lambda: count["norms.norm_of.calls"]),
            (audit, "_omega", "omega", lambda: tr.calls("smoothness.modulus")),
            (audit.Context, "ahat", "ahat", lambda: tr.calls("bandlimited.ahat"))):
        _wrap_cache(tr, owner, attr, cache, fills)
    tr.wrap(audit, "write_reports", span="report.write")


def _add(count, key, amount):
    count[key] += amount


def _track_max(tr: Tracer, value: float) -> None:
    key = "bandlimited.tail_bound_max"
    tr.counts[key] = max(tr.counts[key], float(value))


def _wrap_run_case(tr: Tracer, audit) -> None:
    """Span each audit case and book its time under its theorem family."""
    orig = audit.run_case

    def run_case(ctx, case):
        tr.begin("audit.case")
        try:
            rows = orig(ctx, case)
        finally:
            tr.counts[f"audit.family.{case.theorem}_s"] += tr.end()
        tr.counts["audit.rows"] += len(rows)
        return rows
    setattr(run_case, PROBE_MARK, True)
    tr._set(audit, "run_case", run_case)


def _wrap_cache(tr: Tracer, owner, attr: str, cache: str, fills) -> None:
    orig = getattr(owner, attr)

    def lookup(*args, **kwargs):
        before = fills()
        out = orig(*args, **kwargs)
        tr.counts[f"audit.cache.{cache}_lookups"] += 1
        if fills() == before:
            tr.counts[f"audit.cache.{cache}_hits"] += 1
        return out
    setattr(lookup, PROBE_MARK, True)
    tr._set(owner, attr, lookup)
