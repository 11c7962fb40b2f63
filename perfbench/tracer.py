"""Outside-in tracing of the oddcycles layers for the benchmark's traced run.

Nothing inside the package is changed.  The tracer replaces module
attributes (and a few class attributes) with wrappers in the benchmark's
own process.  The package's layers reach each other through module
attributes such as ``enumerator.joint_table`` or ``verify.run_suites``, so
a wrapper on the attribute sees every call that crosses a layer boundary.
A call made from inside the same layer is passed straight through and
records nothing, so per-call counters count boundary crossings only; the
verify suites are the one exception, traced inside ``run_suites`` so each
suite's time can be reported.

Each traced call is a span: name, layer, start, end and parent span.  A
generator is traced one ``next`` at a time, so its spans cover only the
time spent producing items.  Work counters are taken at the same
boundaries.  Bookkeeping that inspects a result (coefficient bit lengths)
runs inside its own ``trace`` span, so it is not charged to the caller.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import time
from collections import defaultdict

# name -> (unit, better); the traced run reports every one on every workload
PER_LAYER = {
    "enumerator.busy_s": ("s", "lower"),
    "enumerator.calls": ("count", "lower"),
    "enumerator.tables_built": ("count", "lower"),
    "enumerator.tables_distinct": ("count", "lower"),
    "enumerator.useful_ratio": ("ratio", "higher"),
    "enumerator.cycles_yielded": ("count", "lower"),
    "enumerator.max_n": ("n", "higher"),
    "enumerator.pool_workers": ("count", "lower"),
    "gentree.busy_s": ("s", "lower"),
    "gentree.joint_poly_calls": ("count", "lower"),
    "gentree.levels_verified": ("count", "lower"),
    "gentree.cycles_grown": ("count", "lower"),
    "gentree.max_coeff_bits": ("bits", "lower"),
    "recurrences.busy_s": ("s", "lower"),
    "recurrences.calls": ("count", "lower"),
    "recurrences.useful_ratio": ("ratio", "higher"),
    "recurrences.max_coeff_bits": ("bits", "lower"),
    "series.busy_s": ("s", "lower"),
    "series.calls": ("count", "lower"),
    "series.max_order": ("order", "lower"),
    "series.max_coeff_bits": ("bits", "lower"),
    "polynomials.serialize_s": ("s", "lower"),
    "cycles.busy_s": ("s", "lower"),
    "cycles.calls": ("count", "lower"),
    "verify.self_s": ("s", "lower"),
    "verify.checks": ("count", "higher"),
    "verify.checks_failed": ("count", "lower"),
    "verify.suite_s.oracle": ("s", "lower"),
    "verify.suite_s.series": ("s", "lower"),
    "verify.suite_s.genocchi": ("s", "lower"),
    "verify.suite_s.identities": ("s", "lower"),
    "verify.suite_s.pde": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.stdout_bytes": ("bytes", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

SUITES = ("oracle", "series", "genocchi", "identities", "pde")

# span record fields, in order
NAME, LAYER, START, END, PARENT = range(5)


def coeff_bits(value) -> int:
    """Largest coefficient bit length in an int, polynomial, series or list."""
    if isinstance(value, bool):
        return 0
    if isinstance(value, int):
        return value.bit_length()
    if isinstance(value, (list, tuple)):
        return max((coeff_bits(v) for v in value), default=0)
    terms = getattr(value, "terms", None)  # BiPoly
    if isinstance(terms, dict):
        return coeff_bits(list(terms.values()))
    coeffs = getattr(value, "coeffs", None)  # BigPoly, TruncSeries
    return coeff_bits(coeffs) if isinstance(coeffs, tuple) else 0


class Tracer:
    """Spans and boundary counters for one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.t0 = time.perf_counter()
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self.distinct: dict[str, set] = defaultdict(set)
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- spans -----------------------------------------------------------

    def caller_layer(self) -> str | None:
        return self.spans[self.stack[-1]][LAYER] if self.stack else None

    def open(self, name: str, layer: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, layer, time.perf_counter() - self.t0, None, parent])
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][END] = time.perf_counter() - self.t0
        popped = self.stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {sid} closed out of order (top was {popped})")

    def write(self, path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for sid, (name, layer, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": name, "layer": layer, "start": start,
                    "end": end, "parent": parent, "run": self.run_id,
                }, separators=(",", ":")) + "\n")

    # -- wrapping --------------------------------------------------------

    def _bookkeep(self, fn, *args) -> None:
        sid = self.open("trace.bookkeeping", "trace")
        try:
            fn(*args)
        finally:
            self.close(sid)

    def wrap(self, fn, name: str, layer: str, *, nested=False, callers=None,
             on_call=None, on_result=None, on_item=None):
        """A stand-in for fn that records a span when called across a boundary.

        nested: also trace calls made from inside the same layer.
        callers: trace only when the calling layer is one of these.
        Each traced call adds 1 to the counter "<layer>.calls".
        on_call(args, kwargs): cheap counter update at call time.
        on_result(args, kwargs, result): result inspection, in a trace span.
        on_item(item): per-item hook; fn then returns an iterator that is
        traced one next() at a time.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            caller = tracer.caller_layer()
            if (caller == layer and not nested) or (callers is not None and caller not in callers):
                return fn(*args, **kwargs)
            tracer.bump(f"{layer}.calls")
            if on_call is not None:
                on_call(args, kwargs)
            if on_item is not None:
                return tracer._iterate(fn(*args, **kwargs), name, layer, on_item)
            sid = tracer.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if on_result is not None:
                tracer._bookkeep(on_result, args, kwargs, result)
            return result

        return wrapper

    def _iterate(self, it, name, layer, on_item):
        while True:
            sid = self.open(name, layer)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self.close(sid)
            on_item(item)
            yield item

    def patch(self, owner, attr: str, make) -> None:
        """Replace owner.attr with make(original); a missing name is recorded.

        The package may lose a name the tracer knows about; the traced run
        then reports that layer as idle and lists the name in ``missing``.
        """
        original = vars(owner).get(attr)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        self._restore.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def unpatch(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- counters ----------------------------------------------------------

    def bump(self, key: str, by: int = 1) -> None:
        self.counts[key] += by

    def peak(self, key: str, value: int) -> None:
        if value > self.maxima[key]:
            self.maxima[key] = value


def _public_functions(module):
    for attr, obj in sorted(vars(module).items()):
        if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield attr, obj


def _first_arg(fn):
    """Reads fn's first argument out of a call's (args, kwargs)."""
    name = next(iter(inspect.signature(fn).parameters))
    return lambda args, kwargs: args[0] if args else kwargs[name]


def install(tracer: Tracer) -> None:
    """Wrap the public surface of each oddcycles layer; undo with unpatch()."""
    from oddcycles import cli, enumerator, gentree, polynomials, recurrences, series, verify

    t = tracer

    def wrap_module(module, hooks_for):
        layer = module.__name__.rsplit(".", 1)[-1]
        for attr, fn in _public_functions(module):
            t.patch(module, attr, lambda fn, attr=attr: t.wrap(fn, f"{layer}.{attr}", layer, **hooks_for(attr, fn)))

    # enumerator: table builds, listings and the worker pool they start
    def enumerator_hooks(attr, fn):
        size = _first_arg(fn)
        if attr == "iter_odd_drop_cycles":
            return {"on_call": lambda a, k: t.peak("enumerator.max_n", size(a, k)),
                    "on_item": lambda item: t.bump("enumerator.cycles_yielded")}
        if attr in ("joint_table", "count_even_odd_only", "count_odd_odd_only"):
            def on_table(args, kwargs):
                n = size(args, kwargs)
                t.bump("enumerator.tables_built")
                t.distinct["enumerator.tables"].add(n)
                t.peak("enumerator.max_n", n)
            return {"on_call": on_table}
        return {}

    wrap_module(enumerator, enumerator_hooks)

    def observe_pool(real_pool):
        def observed_pool(*args, **kwargs):
            t.peak("enumerator.pool_workers", kwargs.get("max_workers") or 0)
            return real_pool(*args, **kwargs)
        return observed_pool

    t.patch(enumerator, "ProcessPoolExecutor", observe_pool)

    # gentree: transfer steps and tree levels
    def gentree_hooks(attr, fn):
        if attr == "joint_poly":
            return {"on_result": lambda a, k, poly: t.peak("gentree.max_coeff_bits", coeff_bits(poly))}
        if attr == "verify_level":
            return {"on_result": lambda a, k, result: t.bump("gentree.cycles_grown", len(result[0]))}
        return {}

    wrap_module(gentree, gentree_hooks)

    # recurrences: distinct (function, arguments) against calls
    def recurrences_hooks(attr, fn):
        return {
            "on_call": lambda a, k: t.distinct["recurrences.pairs"].add((attr, a, frozenset(k.items()))),
            "on_result": lambda a, k, poly: t.peak("recurrences.max_coeff_bits", coeff_bits(poly)),
        }

    wrap_module(recurrences, recurrences_hooks)

    # series: module functions plus the public methods of TruncSeries
    def on_series_result(_args, _kwargs, result):
        if isinstance(result, series.TruncSeries):
            t.peak("series.max_order", result.order)
        t.peak("series.max_coeff_bits", coeff_bits(result))

    wrap_module(series, lambda attr, fn: {"on_result": on_series_result})
    cls = series.TruncSeries
    for attr, raw in sorted(vars(cls).items()):
        if attr.startswith("_"):
            continue
        name = f"series.TruncSeries.{attr}"
        if isinstance(raw, classmethod):
            t.patch(cls, attr, lambda raw, name=name: classmethod(
                t.wrap(raw.__func__, name, "series", on_result=on_series_result)))
        elif inspect.isfunction(raw):
            t.patch(cls, attr, lambda raw, name=name: t.wrap(raw, name, "series", on_result=on_series_result))

    # verify: run_suites and each suite, whose time is reported per suite
    def on_checks(_args, _kwargs, result):
        t.bump("verify.checks", len(result))
        t.bump("verify.checks_failed", sum(not c.passed for c in result))

    t.patch(verify, "run_suites", lambda fn: t.wrap(fn, "verify.run_suites", "verify", on_result=on_checks))
    for suite in SUITES:
        name = f"verify.suite_{suite}"
        t.patch(verify, f"suite_{suite}", lambda fn, name=name: t.wrap(fn, name, "verify", nested=True))

    # cycles, as the command line reaches it
    t.patch(cli, "drop_stats", lambda fn: t.wrap(fn, "cycles.drop_stats", "cycles"))

    # polynomial serialization, only where the command line asks for it
    for cls, attr in ((polynomials.BiPoly, "format"), (polynomials.BiPoly, "sorted_terms"),
                      (polynomials.BigPoly, "format")):
        name = f"polynomials.{cls.__name__}.{attr}"
        t.patch(cls, attr, lambda fn, name=name: t.wrap(fn, name, "polynomials", callers={"cli"}))


# -- span arithmetic -----------------------------------------------------------


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    return [
        (s[END] - s[START]) - covered(children.get(sid, ()), s[START], s[END])
        for sid, s in enumerate(spans)
    ]


def layer_times(spans) -> tuple[dict[str, float], dict[str, float]]:
    """Busy time (union of a layer's spans) and self time, per layer."""
    busy: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for span, self_s in zip(spans, self_times(spans)):
        layer = span[LAYER]
        own[layer] += self_s
        parent = span[PARENT]
        while parent is not None and spans[parent][LAYER] != layer:
            parent = spans[parent][PARENT]
        if parent is None:  # outermost span of its layer
            busy[layer] += span[END] - span[START]
    return busy, own


def per_layer_metrics(tracer: Tracer, stdout_bytes: int, overhead_ratio: float) -> dict[str, float]:
    """Every PER_LAYER metric from one traced pass's spans and counters."""
    spans = tracer.spans
    busy, own = layer_times(spans)
    named: dict[str, int] = defaultdict(int)
    suite_s: dict[str, float] = defaultdict(float)
    for span in spans:
        named[span[NAME]] += 1
        if span[NAME].startswith("verify.suite_"):
            suite_s[span[NAME][len("verify.suite_"):]] += span[END] - span[START]
    c, m, d = tracer.counts, tracer.maxima, tracer.distinct
    built = c["enumerator.tables_built"]
    rec_calls = c["recurrences.calls"]
    out = {
        "enumerator.busy_s": busy["enumerator"],
        "enumerator.calls": c["enumerator.calls"],
        "enumerator.tables_built": built,
        "enumerator.tables_distinct": len(d["enumerator.tables"]),
        "enumerator.useful_ratio": len(d["enumerator.tables"]) / built if built else 0.0,
        "enumerator.cycles_yielded": c["enumerator.cycles_yielded"],
        "enumerator.max_n": m["enumerator.max_n"],
        "enumerator.pool_workers": m["enumerator.pool_workers"],
        "gentree.busy_s": busy["gentree"],
        "gentree.joint_poly_calls": named["gentree.joint_poly"],
        "gentree.levels_verified": named["gentree.verify_level"],
        "gentree.cycles_grown": c["gentree.cycles_grown"],
        "gentree.max_coeff_bits": m["gentree.max_coeff_bits"],
        "recurrences.busy_s": busy["recurrences"],
        "recurrences.calls": rec_calls,
        "recurrences.useful_ratio": len(d["recurrences.pairs"]) / rec_calls if rec_calls else 0.0,
        "recurrences.max_coeff_bits": m["recurrences.max_coeff_bits"],
        "series.busy_s": busy["series"],
        "series.calls": c["series.calls"],
        "series.max_order": m["series.max_order"],
        "series.max_coeff_bits": m["series.max_coeff_bits"],
        "polynomials.serialize_s": busy["polynomials"],
        "cycles.busy_s": busy["cycles"],
        "cycles.calls": c["cycles.calls"],
        "verify.self_s": own["verify"],
        "verify.checks": c["verify.checks"],
        "verify.checks_failed": c["verify.checks_failed"],
        **{f"verify.suite_s.{s}": suite_s[s] for s in SUITES},
        "cli.self_s": own["cli"],
        "cli.stdout_bytes": stdout_bytes,
        "trace.overhead_ratio": overhead_ratio,
    }
    if set(out) != set(PER_LAYER):
        raise RuntimeError(f"per-layer names drifted: {sorted(set(out) ^ set(PER_LAYER))}")
    return out
