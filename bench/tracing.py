"""Spans around the package's public functions, installed from outside.

``install`` wraps every public function of the traced modules, plus a few
``Filter`` methods at class level, and rebinds every module attribute that
refers to a wrapped function, so that ``filterkit.minimize.output_simulates``
and ``filterkit.cli.parse_filter`` land in the same layer as the original.
A span records its layer, the job it ran for, its parent span, its start and
end, and its self time: its duration minus the time covered by its child
spans.  Spans are kept in memory only while ``keep_spans`` is set; per-layer
call counts, self times and counters are always accumulated.

The package is never edited: a function the package no longer has is simply
absent, and its metrics read zero.
"""

import inspect
import sys
from collections import Counter
from time import perf_counter

MODULES = ("cli", "textio", "families", "filters", "nfa", "simulation",
           "minimize", "reductions")
CLASS_METHODS = (("filters", "Filter", "__init__"),
                 ("filters", "Filter", "determinize"),
                 ("filters", "Filter", "trim"))


def _stats_get(result, key):
    stats = getattr(result, "stats", None)
    if isinstance(stats, dict):
        return stats.get(key)
    return getattr(stats, key, None)


def _on_determinize(counters, args, result):
    counters["determinize.subsets"] += len(result[0].states)


def _on_minimize_det(counters, args, result):
    counters["minimize.candidates"] += _stats_get(result, "candidates") or 0
    lower = _stats_get(result, "lower_bound")
    if lower is not None:
        counters["minimize.lower_bound_gap"] += result.size() - lower
    exact = _stats_get(result, "cover_exact")
    if exact is not None:
        counters["minimize.covers"] += 1
        counters["minimize.covers_exact"] += bool(exact)


def _on_minimize_nondet(counters, args, result):
    found = _stats_get(result, "candidates") or 0
    counters["minimize.candidates"] += found
    counters["minimize.search_candidates"] += found


def _on_decide(counters, args, result):
    found = getattr(result, "candidates", 0)
    counters["minimize.candidates"] += found
    counters["minimize.search_candidates"] += found


def _on_parse(counters, args, result):
    counters["textio.parse_filter.bytes"] += len(args[0].encode("utf-8"))


def _on_emit(counters, args, result):
    counters["textio.emit_filter.bytes"] += len(result.encode("utf-8"))


HOOKS = {
    "filters.Filter.determinize": _on_determinize,
    "minimize.minimize_det": _on_minimize_det,
    "minimize.minimize_nondet": _on_minimize_nondet,
    "minimize.decide_size_k": _on_decide,
    "textio.parse_filter": _on_parse,
    "textio.emit_filter": _on_emit,
}


class Tracer:
    def __init__(self):
        self.active = False
        self.job = None
        self.keep_spans = False
        self.spans = []       # (id, parent id, job, layer, start, end, self time)
        self.calls = {}       # layer -> calls
        self.self_s = {}      # layer -> seconds
        self.counters = Counter()
        self.hook_errors = set()
        self._stack = []      # [span id, child time] of the open spans

    def wrap(self, layer, fn):
        hook = HOOKS.get(layer)
        self.calls.setdefault(layer, 0)
        self.self_s.setdefault(layer, 0.0)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            frame = [len(tracer.spans) if tracer.keep_spans else -1, 0.0]
            if tracer.keep_spans:
                tracer.spans.append(None)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    try:
                        hook(tracer.counters, args, result)
                    except (AttributeError, KeyError, TypeError, IndexError):
                        tracer.hook_errors.add(layer)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                own = duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                tracer.calls[layer] += 1
                tracer.self_s[layer] += own
                if frame[0] >= 0:
                    parent = stack[-1][0] if stack else -1
                    tracer.spans[frame[0]] = (frame[0], parent, tracer.job, layer,
                                              start, end, own)

        traced.__name__ = getattr(fn, "__name__", layer)
        traced.__qualname__ = getattr(fn, "__qualname__", layer)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap the layers of the imported filterkit; returns the absent ones."""
        wrappers = {}
        absent = []
        for short in MODULES:
            module = sys.modules.get(f"filterkit.{short}")
            if module is None:
                absent.append(short)
                continue
            for name, obj in sorted(vars(module).items()):
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self.wrap(f"{short}.{name}", obj)
        for short, cls_name, method in CLASS_METHODS:
            module = sys.modules.get(f"filterkit.{short}")
            cls = getattr(module, cls_name, None)
            fn = cls.__dict__.get(method) if cls is not None else None
            if not inspect.isfunction(fn):
                absent.append(f"{short}.{cls_name}.{method}")
                continue
            setattr(cls, method, self.wrap(f"{short}.{cls_name}.{method}", fn))
        for name, module in list(sys.modules.items()):
            if name != "filterkit" and not name.startswith("filterkit."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
        return absent


def _sum(table, layers):
    return sum(table.get(layer, 0) for layer in layers)


def _ratio(num, den):
    return num / den if den else 0.0


FAMILIES = ("families.prime_family", "families.prime_family_minimizer",
            "families.fig3_input", "families.fig3_minimizer", "families.donut_world")
BUILDS = ("reductions.from_nfa_universality", "reductions.from_dfa_union")


def layer_metrics(calls, self_s, counters, passes):
    """Per-layer metrics per pass: calls and counters from the first traced
    pass (they repeat exactly), self times averaged over all traced passes.

    ``calls`` and ``counters`` are the first pass's; ``self_s`` the totals.
    """
    def t(*layers):
        return _sum(self_s, layers) / passes

    det_s = t("filters.Filter.determinize")
    search_s = t("minimize.minimize_nondet", "minimize.decide_size_k")
    parse_s = t("textio.parse_filter")
    emit_s = t("textio.emit_filter")
    covers = counters["minimize.covers"]
    out = {
        "simulation.output_simulates.calls": (calls.get("simulation.output_simulates", 0), "count"),
        "simulation.output_simulates.self_s": (t("simulation.output_simulates"), "s"),
        "simulation.tensor_product.calls": (calls.get("simulation.tensor_product", 0), "count"),
        "simulation.tensor_product.self_s": (t("simulation.tensor_product"), "s"),
        "nfa.is_included.calls": (calls.get("nfa.is_included", 0), "count"),
        "nfa.is_included.self_s": (t("nfa.is_included"), "s"),
        "nfa.intersect.self_s": (t("nfa.intersect"), "s"),
        "nfa.is_universal.self_s": (t("nfa.is_universal"), "s"),
        "filters.determinize.self_s": (det_s, "s"),
        "filters.determinize.subsets": (counters["determinize.subsets"], "count"),
        "filters.determinize.subsets_per_s": (
            _ratio(counters["determinize.subsets"], det_s), "1/s"),
        "filters.trim.self_s": (t("filters.Filter.trim"), "s"),
        "filters.Filter.constructed": (calls.get("filters.Filter.__init__", 0), "count"),
        "filters.Filter.init_self_s": (t("filters.Filter.__init__"), "s"),
        "minimize.compatibility_graph.calls": (
            calls.get("minimize.compatibility_graph", 0), "count"),
        "minimize.compatibility_graph.self_s": (t("minimize.compatibility_graph"), "s"),
        "minimize.minimize_det.self_s": (t("minimize.minimize_det"), "s"),
        "minimize.minimize_nondet.self_s": (t("minimize.minimize_nondet"), "s"),
        "minimize.decide_size_k.self_s": (t("minimize.decide_size_k"), "s"),
        "minimize.candidates": (counters["minimize.candidates"], "count"),
        "minimize.candidates_per_s": (
            _ratio(counters["minimize.search_candidates"], search_s), "1/s"),
        "minimize.lower_bound_gap": (counters["minimize.lower_bound_gap"], "count"),
        "minimize.cover_exact_frac": (_ratio(counters["minimize.covers_exact"], covers),
                                      "ratio"),
        "textio.parse_filter.self_s": (parse_s, "s"),
        "textio.parse_filter.MBps": (
            _ratio(counters["textio.parse_filter.bytes"] / 1e6, parse_s), "MB/s"),
        "textio.emit_filter.self_s": (emit_s, "s"),
        "textio.emit_filter.MBps": (
            _ratio(counters["textio.emit_filter.bytes"] / 1e6, emit_s), "MB/s"),
        "textio.filter_to_dot.self_s": (t("textio.filter_to_dot"), "s"),
        "cli.main.self_s": (t("cli.main"), "s"),
        "families.self_s": (t(*FAMILIES), "s"),
        "reductions.build.self_s": (t(*BUILDS), "s"),
        "reductions.verify_reduction.self_s": (t("reductions.verify_reduction"), "s"),
    }
    return out


def group_breakdown(spans, group_of):
    """Self time per job group and layer, from the kept spans."""
    out = {}
    for _id, _parent, job, layer, _start, _end, own in spans:
        table = out.setdefault(group_of.get(job, "?"), {})
        table[layer] = table.get(layer, 0.0) + own
    return {g: dict(sorted(t.items(), key=lambda kv: -kv[1])) for g, t in out.items()}
