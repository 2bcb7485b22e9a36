"""Span tracer for the benchmark's traced run.

`Tracer.install()` wraps every public mucorr function at the name its
caller looks it up:

* a function imported from another mucorr module, such as
  `mucorr.scenarios.max_info_direction` or `mucorr.cli.run`;
* a function reached through a module alias, such as `mc.estimate_*` and
  `nsb.validate_no_signalling` inside `mucorr.scenarios`: the alias is
  replaced by a namespace of wrapped functions, so calls inside the
  aliased module itself stay untraced;
* the few calls inside one module that the per-layer metrics name
  (`cli.emit`, `scenarios.validate_scenario`), and `cli.main`.

Each span is attributed to the module that defines the function. Self
time is a span's duration minus the durations of its child spans. Wrapping
a call costs time that would otherwise not be spent, and that time lands
in the caller's span; `install()` times an empty wrapped call first and
takes that cost off every aggregate, so self and inclusive times estimate
the untraced ones. The aggregates cover every span. The raw spans are kept
in memory for every `stride`-th operation, and the stride doubles each time
SPAN_CAP spans are held, so the kept spans are spread over the whole run;
they are written out when the run ends. `uninstall()` puts every original
back.
"""
from __future__ import annotations

import itertools
import statistics
import sys
import tracemalloc
import types
from collections import defaultdict
from time import perf_counter

MODULES = ("cli", "scenarios", "counterfactual", "spin", "nsbox", "montecarlo")
#: Same-module calls wrapped in their caller's namespace, as (module, name).
_INNER_CALLS = (("cli", "emit"), ("cli", "main"), ("scenarios", "validate_scenario"))
#: Spans whose outermost occurrences make up `scenarios.load_validate_s`.
LOAD_VALIDATE = ("scenarios.load_scenario_file", "scenarios.validate_scenario")
#: Most raw spans held at once; a chsh operation makes up to ~20k.
SPAN_CAP = 100_000
#: Calls per batch, and batches, of the wrapper-cost calibration.
_CAL_CALLS = 20_000
_CAL_BATCHES = 7


class Stat:
    """Aggregate of the spans of one name, one module, or LOAD_VALIDATE."""

    __slots__ = ("calls", "self_s", "outer_s", "errors", "open")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.outer_s = 0.0
        self.errors = 0
        self.open = 0


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        #: Raw spans are kept for operations whose index is a multiple of this.
        self.stride = 1
        self.op = 0
        #: Wrapper costs in seconds, set by `_calibrate`: what one wrapped
        #: child call adds to its parent's self time (`child_cost`), to every
        #: enclosing span's duration (`call_cost`), and to its own (`inner_cost`).
        self.child_cost = self.call_cost = self.inner_cost = 0.0
        self.by_name: dict[str, Stat] = defaultdict(Stat)
        self.by_module: dict[str, Stat] = defaultdict(Stat)
        self.load_validate = Stat()
        self.samples_drawn = 0
        self.mc_peak_alloc = 0
        #: One [child seconds, span id, children, descendants] frame per open span.
        self._stack: list[list] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _wrap(self, fn, name: str, module: str):
        """`fn` wrapped in a span named `name`, attributed to `module`.

        The hot path touches only objects bound here, because the scan in
        `max_info_direction` makes thousands of traced calls per operation.
        """
        tracer = self
        stack = self._stack
        spans = self.spans
        name_stat = self.by_name[name]
        mod_stat = self.by_module[module]
        group_stat = self.load_validate if name in LOAD_VALIDATE else None
        is_mc = module == "montecarlo"
        is_main = name == "cli.main"
        ids = self._ids
        child_cost, call_cost, inner_cost = self.child_cost, self.call_cost, self.inner_cost

        def traced(*args, **kwargs):
            if is_mc and mod_stat.open == 0:
                tracemalloc.start()
            mod_stat.open += 1
            name_stat.open += 1
            if group_stat:
                group_stat.open += 1
            span_id = next(ids)
            parent = stack[-1][1] if stack else 0
            frame = [0.0, span_id, 0, 0]
            stack.append(frame)
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = not (is_main and result != 0)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    caller = stack[-1]
                    caller[0] += duration
                    caller[2] += 1
                    caller[3] += 1 + frame[3]
                own = duration - frame[0] - frame[2] * child_cost - inner_cost
                inclusive = duration - frame[3] * call_cost - inner_cost
                name_stat.calls += 1
                name_stat.self_s += own
                name_stat.open -= 1
                mod_stat.calls += 1
                mod_stat.self_s += own
                mod_stat.open -= 1
                if not ok:
                    name_stat.errors += 1
                    mod_stat.errors += 1
                if not name_stat.open:
                    name_stat.outer_s += inclusive
                if not mod_stat.open:
                    mod_stat.outer_s += inclusive
                    if is_mc:
                        tracer.samples_drawn += sum(getattr(a, "n_samples", 0) for a in args)
                        tracer.mc_peak_alloc = max(
                            tracer.mc_peak_alloc, tracemalloc.get_traced_memory()[1]
                        )
                        tracemalloc.stop()
                if group_stat:
                    group_stat.open -= 1
                    if not group_stat.open:
                        group_stat.outer_s += inclusive
                if tracer.op % tracer.stride == 0:
                    spans.append((tracer.op, span_id, parent, name, start, end, ok))
                    if len(spans) >= SPAN_CAP:
                        tracer._thin()

        traced.__wrapped__ = fn
        return traced

    def _thin(self) -> None:
        """Double the stride and drop the spans of operations it skips."""
        self.stride *= 2
        self.spans[:] = [span for span in self.spans if span[0] % self.stride == 0]

    def _calibrate(self) -> None:
        """Time an empty function, wrapped and bare, and set the wrapper costs.

        A wrapped call, seen from its caller, takes `wrapped` seconds, of
        which its own span records `recorded`; the rest is charged to the
        caller's self time. `bare` is the cost of the call itself, which
        untraced code pays too. Each figure is a median over batches.
        """
        def empty():
            pass

        wrapped_fn = self._wrap(empty, "_calibration", "_calibration")
        self.op, self.stride = 1, 2  # keep no spans: a skipped operation

        def per_call(fn) -> float:
            batches = []
            for _ in range(_CAL_BATCHES):
                start = perf_counter()
                for _ in range(_CAL_CALLS):
                    fn()
                batches.append((perf_counter() - start) / _CAL_CALLS)
            return statistics.median(batches)

        bare = per_call(empty)
        wrapped = per_call(wrapped_fn)
        stat = self.by_name.pop("_calibration")
        recorded = stat.self_s / stat.calls
        del self.by_module["_calibration"]
        self.op, self.stride = 0, 1
        self.child_cost = wrapped - recorded
        self.call_cost = wrapped - bare
        self.inner_cost = recorded - bare

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _traced_namespace(self, module: types.ModuleType) -> types.SimpleNamespace:
        short = module.__name__.rsplit(".", 1)[-1]
        entries = {}
        for attr, value in vars(module).items():
            if _is_public_function(value, module.__name__):
                value = self._wrap(value, f"{short}.{attr}", short)
            entries[attr] = value
        return types.SimpleNamespace(**entries)

    def install(self) -> None:
        """Time the wrapper, then wrap the lookups of every mucorr module
        named in MODULES."""
        self._calibrate()
        for short in MODULES:
            caller = sys.modules[f"mucorr.{short}"]
            for attr, value in list(vars(caller).items()):
                if isinstance(value, types.ModuleType) and value.__name__.startswith("mucorr."):
                    self._patch(caller, attr, self._traced_namespace(value))
                elif (
                    isinstance(value, types.FunctionType)
                    and not attr.startswith("_")
                    and value.__module__.startswith("mucorr.")
                    and value.__module__ != caller.__name__
                ):
                    owner = value.__module__.rsplit(".", 1)[-1]
                    self._patch(caller, attr, self._wrap(value, f"{owner}.{value.__name__}", owner))
        for short, attr in _INNER_CALLS:
            caller = sys.modules[f"mucorr.{short}"]
            self._patch(caller, attr, self._wrap(getattr(caller, attr), f"{short}.{attr}", short))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if tracemalloc.is_tracing():
            tracemalloc.stop()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def _is_public_function(value, module_name: str) -> bool:
    return (
        isinstance(value, types.FunctionType)
        and not value.__name__.startswith("_")
        and value.__module__ == module_name
    )
