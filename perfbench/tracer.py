"""Spans around the public entry points of each gbeq layer.

The tracer replaces each listed function wherever a loaded gbeq module
binds it by name, so calls between modules are seen as well as calls
from the benchmark.  One span is kept per call: name, start, end,
parent span and item id.  A function that calls itself is recorded at
its outermost call only.  Spans stay in memory until write().

Self time is a span's duration minus the durations of its child spans
and minus the tracer's own bookkeeping inside it (counting the nodes
handed to normal_form).
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

# (layer, defining module, attribute path) for every traced entry point.
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("expr.simplify", "gbeq.expr.simplify", "ratio_normal"),
    ("expr.simplify", "gbeq.expr.simplify", "expand"),
    ("expr.simplify", "gbeq.expr.simplify", "normal_form"),
    ("expr.simplify", "gbeq.expr.simplify", "simplify"),
    ("expr.zero", "gbeq.expr.zero", "is_zero"),
    ("expr.calculus", "gbeq.expr.calculus", "differentiate"),
    ("expr.calculus", "gbeq.expr.calculus", "substitute"),
    ("transforms", "gbeq.transforms", "apply_transform"),
    ("transforms", "gbeq.transforms", "compose"),
    ("transforms", "gbeq.transforms", "invert"),
    ("transforms", "gbeq.transforms", "transforms_equal"),
    ("classes", "gbeq.classes", "build_pde"),
    ("classes", "gbeq.classes", "check_membership"),
    ("expr.numeric", "gbeq.expr.numeric", "Evaluator.__call__"),
    ("expr.numeric", "gbeq.expr.numeric", "evaluate"),
    ("degdiv", "gbeq.degdiv", "solve_deg_div"),
    ("verify", "gbeq.verify", "residual"),
    ("hopfcole", "gbeq.hopfcole", "verify_diagram"),
    ("symmetry", "gbeq.symmetry", "is_symmetry"),
    ("expr.parse", "gbeq.expr.parse", "parse"),
    ("expr.fmt", "gbeq.expr.fmt", "format_expr"),
    ("cli", "gbeq.cli", "main"),
)

SPAN_NAMES = tuple(f"{layer}.{attr}" for layer, _, attr in LAYERS)
NORMAL_FORM = "expr.simplify.normal_form"
IS_ZERO = "expr.zero.is_zero"


# Nodes are told apart by class name: this module imports nothing from
# gbeq, so it can be loaded before the program's source is on the path.


def tree_size(e, memo: Optional[Dict[int, int]] = None) -> int:
    """Nodes in the expression tree, shared subtrees counted per use."""
    if memo is None:
        memo = {}
    key = id(e)
    if key in memo:
        return memo[key]
    n = 1
    kind = type(e).__name__
    if kind == "Add":
        for term in e.terms:
            n += tree_size(term, memo)
    elif kind == "Mul":
        for base, _ in e.powers:
            n += tree_size(base, memo)
    elif kind == "Pow":
        n += tree_size(e.base, memo)
    elif kind == "App":
        n += tree_size(e.arg, memo)
    elif kind == "Int":
        n += tree_size(e.body, memo)
    elif kind == "Func" and e.args is not None:
        for arg in e.args:
            n += tree_size(arg, memo)
    memo[key] = n
    return n


def _terms(e) -> int:
    return len(e.terms) if type(e).__name__ == "Add" else 1


class Tracer:
    """Records spans for the entry points in LAYERS once installed."""

    def __init__(self) -> None:
        self.spans: List[Optional[Tuple[str, int, int, int, object]]] = []
        self.item: object = None
        self.nodes_in = 0
        self.terms_out = 0
        self.zero_symbolic = 0
        self.zero_samples = 0
        self._stack: List[int] = []
        self._excluded: Dict[int, int] = {}

    def install(self) -> None:
        """Wrap every listed function wherever a module binds it by name.

        The modules searched are gbeq's own and the benchmark's, so
        calls from the benchmark into a layer are seen as well.
        """
        bench_dir = os.path.dirname(os.path.abspath(__file__))
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None
            and (
                name == "gbeq"
                or name.startswith("gbeq.")
                or os.path.dirname(os.path.abspath(getattr(mod, "__file__", None) or "")) == bench_dir
            )
        ]
        for layer, module_name, attr in LAYERS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self._wrap(vars(cls)[meth], f"{layer}.{attr}"))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, f"{layer}.{attr}")
            for mod in modules + [module]:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def _wrap(self, fn: Callable, name: str) -> Callable:
        spans, stack, excluded = self.spans, self._stack, self._excluded
        clock = time.perf_counter_ns
        active = [False]
        is_nf = name == NORMAL_FORM
        is_zero = name == IS_ZERO
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            if is_nf:
                c0 = clock()
                tracer.nodes_in += tree_size(args[0])
                if parent >= 0:
                    excluded[parent] = excluded.get(parent, 0) + clock() - c0
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            active[0] = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                active[0] = False
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.item)
            if is_nf:
                tracer.terms_out += _terms(result)
            elif is_zero:
                tracer.zero_symbolic += result.verdict == "SYMBOLIC_ZERO"
                tracer.zero_samples += len(result.samples)
            return result

        return wrapper

    def self_times(self) -> Dict[str, Tuple[int, float]]:
        """(calls, self seconds) per span name."""
        return aggregate(self.spans, self._excluded)

    def write(self, path) -> None:
        """One line per span: index, name, start, end, parent, item."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_ns\tend_ns\tparent\titem\texcluded_ns\n")
            for idx, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, item = span
                fh.write(
                    f"{idx}\t{name}\t{start}\t{end}\t{parent}\t{item}\t"
                    f"{self._excluded.get(idx, 0)}\n"
                )

    def counters(self) -> Dict[str, int]:
        return {
            "nodes_in": self.nodes_in,
            "terms_out": self.terms_out,
            "zero_symbolic": self.zero_symbolic,
            "zero_samples": self.zero_samples,
        }


def aggregate(spans, excluded: Dict[int, int]) -> Dict[str, Tuple[int, float]]:
    child_ns: Dict[int, int] = {}
    for span in spans:
        if span is not None and span[3] >= 0:
            child_ns[span[3]] = child_ns.get(span[3], 0) + span[2] - span[1]
    out: Dict[str, List[float]] = {}
    for idx, span in enumerate(spans):
        if span is None:
            continue
        name, start, end = span[0], span[1], span[2]
        own = end - start - child_ns.get(idx, 0) - excluded.get(idx, 0)
        acc = out.setdefault(name, [0, 0])
        acc[0] += 1
        acc[1] += own
    return {name: (int(c), ns / 1e9) for name, (c, ns) in out.items()}


def read_spans(path) -> Tuple[list, Dict[int, int]]:
    """Spans and excluded times from a file written by Tracer.write."""
    spans: list = []
    excluded: Dict[int, int] = {}
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            idx, name, start, end, parent, item, excl = line.rstrip("\n").split("\t")
            idx = int(idx)
            spans.extend([None] * (idx + 1 - len(spans)))
            spans[idx] = (name, int(start), int(end), int(parent), item)
            if int(excl):
                excluded[idx] = int(excl)
    return spans, excluded
