"""In-memory span tracer installed around the package's public functions.

Every public function of a layer module is replaced by a wrapper at every
binding site: the defining module, every other package module that imported
the name with ``from .x import name``, and the package namespace.  Wrapping
only the defining module would miss calls made through those other bindings.
``Patch`` is a class bound in several modules, so its ``__post_init__`` is
wrapped on the class itself, which covers every binding at once.

Spans are kept in memory as (name, start, end, parent) rows; self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

LAYERS = (
    "number_theory",
    "spiral",
    "chabauty_metric",
    "lattice2d",
    "limits",
    "forest",
    "cli",
    "svgplot",
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "error", "children_s")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.error = False
        self.children_s = 0.0

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.children_s


class Tracer:
    """Records spans and per-function counters for one traced pass."""

    def __init__(self, package):
        self.package = package
        self.modules = {name: getattr(package, name) for name in LAYERS}
        self.spans: list[Span] = []
        self.counters = defaultdict(float)
        self.originals = {}  # span name -> original function, for every wrapper
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []
        self._class_keys: dict[tuple[str, int], None] = {}

    # -- installation -----------------------------------------------------

    def install(self):
        sites = [self.package, *self.modules.values()]
        for layer, module in self.modules.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                self.originals[name] = fn
                wrapper = self._wrap(name, fn)
                for site in sites:
                    if vars(site).get(attr) is fn:
                        self._patched.append((site, attr, fn))
                        setattr(site, attr, wrapper)
        patch_cls = self.modules["chabauty_metric"].Patch
        init = patch_cls.__post_init__
        self.originals["chabauty_metric.Patch"] = init
        self._patched.append((patch_cls, "__post_init__", init))
        patch_cls.__post_init__ = self._wrap("chabauty_metric.Patch", init)

    def uninstall(self):
        for site, attr, fn in reversed(self._patched):
            setattr(site, attr, fn)
        self._patched.clear()

    # -- recording --------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, time.perf_counter(), parent)
            tracer._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                if parent is not None:
                    parent.children_s += span.duration
                tracer.spans.append(span)
            tracer._count(name, args, kwargs, result)
            return result

        return traced

    def _count(self, name, args, kwargs, result):
        c = self.counters
        if name == "spiral.recentered_window":
            c[name + ".points"] += len(result[0])
        elif name == "chabauty_metric.Patch":
            c[name + ".points"] += len(args[0])
        elif name == "chabauty_metric.delta":
            c[name + ".uncertified"] += not result.certified
        elif name == "lattice2d.lattice_ball":
            c[name + ".points"] += len(result)
        elif name == "forest.spiral_empty_rectangle_search":
            c[name + ".found"] += result is not None
        elif name == "forest.empty_rectangle_search":
            c[name + ".found"] += result is not None
        elif name == "number_theory.class_triplet_limit":
            alpha, j = args[0], args[1] if len(args) > 1 else kwargs["j"]
            modulus = self.originals["number_theory.class_modulus"](alpha)
            self._class_keys[(alpha.canonical(), j % modulus)] = None

    # -- summaries --------------------------------------------------------

    def function_stats(self):
        """name -> {calls, self_s, errors} over every recorded span."""
        stats = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "errors": 0})
        for span in self.spans:
            s = stats[span.name]
            s["calls"] += 1
            s["self_s"] += span.self_s
            s["errors"] += span.error
        return stats

    def root_seconds(self):
        return sum(s.duration for s in self.spans if s.parent is None)

    def distinct_classes(self):
        return len(self._class_keys)

    def descendants_named(self, ancestor, name):
        """Spans called ``name`` that run inside a span called ``ancestor``."""
        count = 0
        for span in self.spans:
            if span.name != name:
                continue
            p = span.parent
            while p is not None and p.name != ancestor:
                p = p.parent
            count += p is not None
        return count

    def layers_called(self):
        return {span.name.split(".", 1)[0] for span in self.spans}

    def dump(self):
        """Spans as plain rows for writing out at exit."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": index.get(id(s.parent)),
                "error": s.error,
            }
            for s in self.spans
        ]
