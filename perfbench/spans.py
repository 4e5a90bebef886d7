"""Span tracer that times fockcharge's layers from outside the package.

`install` wraps every public function of every fockcharge module and
rebinds each place that holds the original: the defining module, modules
that imported the name directly (`from .quadrature import gram_suite`) and
module-level dicts such as `suites.EXPERIMENTS`.  Each call records a span
(name, start, end, parent) in memory; `Tracer.layer_metrics` folds them into
per-layer numbers when the workload has finished.  Nothing under `src/`
changes.
"""

import functools
import importlib
import inspect
from time import perf_counter

import fockcharge

MB = 2.0 ** 20


def gram_suite_gflop(shell, grid) -> float:
    """Operation count of the folded Gram assembly in `gram_suite`: the
    per-node (2P x Nh)(Nh x Nh)(Nh x 2P) products over Nh planes plus the
    four P^2 x Nh x P tensordots, with P the unordered offset pairs of a
    shell and Nh the positive nodes per axis."""
    P = (2 * shell.K + 1) * (2 * shell.K + 2) // 2
    Nh = grid.cutoff * grid.panels_per_unit * grid.gauss_order
    return (Nh * (4 * P * Nh ** 2 + 8 * P ** 2 * Nh) + 8 * Nh * P ** 3) / 1e9


def dense_spinor_mb(suite) -> float:
    """MB of one dense complex (4n x 4n) spinor matrix, n shell modes."""
    return (4 * suite.shell.count) ** 2 * 16 / MB


class Tracer:
    """Spans of one traced workload run, plus computed work counters."""

    def __init__(self):
        self.spans = []      # (name, start, end, parent index, outermost)
        self.stack = []
        self.active = {}     # name -> open spans of that name (recursion)
        self.gflop = 0.0
        self.dense_mb = 0.0
        self.hooks = {
            "quadrature.gram_suite": self._count_gram_suite,
            "quadrature.m_plus": self._count_dense,
            "quadrature.ideal_m_plus": self._count_dense,
        }

    def _count_gram_suite(self, args):
        self.gflop += gram_suite_gflop(args["shell"], args["grid"])

    def _count_dense(self, args):
        self.dense_mb += dense_spinor_mb(args["suite"])

    def wrap(self, name, fn):
        hook = self.hooks.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(signature.bind(*args, **kwargs).arguments)
            parent = self.stack[-1] if self.stack else -1
            outermost = not self.active.get(name)
            self.active[name] = self.active.get(name, 0) + 1
            index = len(self.spans)
            self.spans.append(None)
            self.stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                self.active[name] -= 1
                self.spans[index] = (name, start, end, parent, outermost)

        return traced

    def install(self):
        """Wrap the public functions of every fockcharge module in place."""
        modules = [importlib.import_module(f"fockcharge.{name}")
                   for name in fockcharge.__all__ if name != "__version__"]
        wrapped = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrapped[obj] = self.wrap(f"{short}.{name}", obj)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, name, wrapped[obj])
                elif isinstance(obj, dict):
                    for key, value in obj.items():
                        if inspect.isfunction(value) and value in wrapped:
                            obj[key] = wrapped[value]

    def layer_metrics(self) -> dict:
        """`<layer>.s` (outermost spans only, so recursion is not counted
        twice), `<layer>.self_s` (duration minus direct child spans) and
        `<layer>.calls` for every traced name, plus the computed counters."""
        total, own, calls = {}, {}, {}
        for name, start, end, parent, outermost in self.spans:
            duration = end - start
            calls[name] = calls.get(name, 0) + 1
            if outermost:
                total[name] = total.get(name, 0.0) + duration
            own[name] = own.get(name, 0.0) + duration
            if parent >= 0:
                parent_name = self.spans[parent][0]
                own[parent_name] = own.get(parent_name, 0.0) - duration
        out = {}
        for name in calls:
            out[f"{name}.s"] = total.get(name, 0.0)
            out[f"{name}.self_s"] = own[name]
            out[f"{name}.calls"] = calls[name]
        gram_s = total.get("quadrature.gram_suite", 0.0)
        out["quadrature.gram_suite.gflop"] = self.gflop
        out["quadrature.gram_suite.gflops"] = self.gflop / gram_s if gram_s else 0.0
        out["quadrature.dense_mb"] = self.dense_mb
        return out

    def major_spans(self, min_share=0.01, max_depth=4):
        """Single calls, in call order, as (depth, name, seconds): every span
        at most `max_depth` below a root that takes at least `min_share` of
        the roots' total time.  For headline-k4 these are its stages."""
        depth = []
        for _, _, _, parent, _ in self.spans:
            depth.append(0 if parent < 0 else depth[parent] + 1)
        roots = sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)
        return [(d, name, end - start)
                for d, (name, start, end, _, _) in zip(depth, self.spans)
                if d <= max_depth and end - start >= min_share * roots]
