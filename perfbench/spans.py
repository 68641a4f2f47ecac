"""In-memory span tracing of the hgprod layers, and the per-layer metrics.

Spans are recorded only from the benchmark: `Tracer.install` replaces each
layer entry point named in `LAYER_FUNCTIONS` with a timing wrapper on every
module attribute that binds it (callers import by name, so
`hgprod.checker.product` and `hgprod.cli.product` are separate bindings of
`hgprod.products.product`).  Inner-loop helpers such as `label_key`,
`format_label`, `parse_label` and the regroup/swap maps are deliberately
left unwrapped: their cost belongs to the calling layer's self time.

A span is (name, start, end, parent, op): `parent` is the index of the
enclosing span or -1, and `op` is the id shared by all spans of one
benchmark operation.  A span's self time is its duration minus the part of
it that its child spans cover.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from functools import lru_cache

from oracle import PER_PAIR

# Layer -> public entry points wrapped in that layer's module.
LAYER_FUNCTIONS = {
    "cli": ("main",),
    "products": ("product", "cartesian", "dirmin", "dirmax", "dirnon", "normal", "strong"),
    "checker": ("check_associativity", "check_commutativity", "check_lemma1", "counterexample_audit"),
    "iso": ("are_isomorphic",),
    "hgio": ("parse_hg", "serialize_hg"),
    "core": ("validate",),
    "counting": ("verify_count",),
}

AUDITS = ("check_associativity", "check_commutativity", "check_lemma1")

# Time the tracer spends on its own counting (the per-pair edge formulas)
# is recorded as a child span of this layer, so no layer is charged for it.
BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    """Collects spans in compact arrays plus per-span counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counters: dict[int, tuple] = {}
        self._stack = [-1]
        self._op = -1

    def _intern(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def open(self, name: str) -> int:
        """Start a span under the innermost open one; returns its index."""
        index = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.end[index] = self.clock()
        self._stack.pop()

    def begin_op(self, op_id: int, name: str) -> int:
        self._op = op_id
        return self.open(name)

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished span under the innermost open one."""
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.start.append(start)
        self.end.append(end)

    def span_name(self, index: int) -> str:
        return self.names[self.name_id[index]]

    def wrap(self, name: str, fn, count=None):
        """A wrapper that records one span per call of `fn`.

        `count(index, args, kwargs, result)` may attach counters to the
        span; its running time is recorded as a bookkeeping span.
        """
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if count is not None:
                t0 = tracer.clock()
                count(index, args, kwargs, result)
                tracer.record(BOOKKEEPING, t0, tracer.clock())
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> int:
        """Wrap every binding of the layer entry points in the loaded
        hgprod modules.  Returns the number of bindings replaced."""
        modules = {
            key: mod
            for key, mod in sys.modules.items()
            if key == "hgprod" or key.startswith("hgprod.")
        }
        wrappers = {}
        for layer, functions in LAYER_FUNCTIONS.items():
            home = modules[f"hgprod.{layer}"]
            for fn_name in functions:
                fn = getattr(home, fn_name)
                wrappers[id(fn)] = (fn, self.wrap(f"{layer}.{fn_name}", fn, self._counter_for(layer, fn_name)))
        replaced = 0
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    replaced += 1
        return replaced

    def _counter_for(self, layer: str, fn_name: str):
        counters = self.counters
        if layer == "products":
            def count(index, args, kwargs, result):
                if self._is_top_product(index):
                    if fn_name == "product":
                        kind, h1, h2 = args
                        kind = getattr(kind, "value", kind)
                    else:
                        kind, (h1, h2) = fn_name, args
                    counters[index] = (len(result.edges), generated_edges(kind, h1, h2))
            return count
        if layer == "checker" and fn_name in AUDITS:
            def count(index, args, kwargs, result):
                counters[index] = (not result.psi_is_isomorphism,)
            return count
        if layer == "iso":
            def count(index, args, kwargs, result):
                counters[index] = (result.isomorphic, result.nodes_explored)
            return count
        if fn_name == "parse_hg":
            def count(index, args, kwargs, result):
                counters[index] = (len(args[0]),)
            return count
        if fn_name == "serialize_hg":
            def count(index, args, kwargs, result):
                counters[index] = (len(result),)
            return count
        if layer == "counting":
            def count(index, args, kwargs, result):
                counters[index] = (not result.agreement,)
            return count
        return None

    def _is_top_product(self, index: int) -> bool:
        parent = self.parent[index]
        return parent < 0 or not self.span_name(parent).startswith("products.")

    def dump(self, path, wall: dict) -> None:
        """Write every span and counter as one JSON object."""
        spans = [
            [self.name_id[i], self.start[i], self.end[i], self.parent[i], self.op[i]]
            for i in range(len(self.start))
        ]
        payload = {
            "fields": ["name", "start", "end", "parent", "op"],
            "names": self.names,
            "spans": spans,
            "counters": {str(k): v for k, v in self.counters.items()},
            "wall": wall,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def self_times(start, end, parent) -> list[float]:
    """Per-span duration minus the union of its children's intervals."""
    n = len(start)
    children: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        p = parent[i]
        if p >= 0:
            children[p].append(i)
    out = []
    for i in range(n):
        covered = 0.0
        lo = hi = None
        for c in sorted(children[i], key=lambda c: start[c]):
            s, e = max(start[c], start[i]), min(end[c], end[i])
            if e <= s:
                continue
            if hi is None or s > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = s, e
            else:
                hi = max(hi, e)
        if hi is not None:
            covered += hi - lo
        out.append((end[i] - start[i]) - covered)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric, derived from the recorded spans."""
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    self_by_name: Counter = Counter()
    calls: Counter = Counter()
    for i, value in enumerate(selfs):
        name = tracer.span_name(i)
        self_by_name[name] += value
        calls[name] += 1

    def layer_self(layer: str) -> float:
        return sum(v for k, v in self_by_name.items() if k.startswith(layer + "."))

    product_calls = edges_out = generated = 0
    audits = violations = iso_calls = nodes = screened = 0
    parse_bytes = serialize_bytes = disagreements = 0
    for index, values in tracer.counters.items():
        name = tracer.span_name(index)
        if name.startswith("products."):
            product_calls += 1
            edges_out += values[0]
            generated += values[1]
        elif name.startswith("checker."):
            audits += 1
            violations += values[0]
        elif name.startswith("iso."):
            iso_calls += 1
            nodes += values[1]
            screened += (not values[0]) and values[1] == 0
        elif name == "hgio.parse_hg":
            parse_bytes += values[0]
        elif name == "hgio.serialize_hg":
            serialize_bytes += values[0]
        elif name.startswith("counting."):
            disagreements += values[0]

    products_self = layer_self("products")
    iso_self = layer_self("iso")
    parse_s = self_by_name["hgio.parse_hg"]
    serialize_s = self_by_name["hgio.serialize_hg"]
    return {
        "cli.calls": calls["cli.main"],
        "cli.self_s": layer_self("cli"),
        "products.calls": product_calls,
        "products.edges_out": edges_out,
        "products.self_s": products_self,
        "products.edges_per_s": _ratio(edges_out, products_self),
        "products.dedup_ratio": _ratio(edges_out, generated),
        "checker.audits": audits,
        "checker.self_s": layer_self("checker"),
        "checker.violations": violations,
        "iso.calls": iso_calls,
        "iso.self_s": iso_self,
        "iso.search_nodes": nodes,
        "iso.nodes_per_s": _ratio(nodes, iso_self),
        "iso.screen_reject_ratio": _ratio(screened, iso_calls),
        "hgio.parse_s": parse_s,
        "hgio.parse_mb_per_s": _ratio(parse_bytes / 1e6, parse_s),
        "hgio.serialize_s": serialize_s,
        "hgio.serialize_mb_per_s": _ratio(serialize_bytes / 1e6, serialize_s),
        "core.validate_s": self_by_name["core.validate"],
        "counting.calls": calls["counting.verify_count"],
        "counting.self_s": layer_self("counting"),
        "counting.disagreements": disagreements,
    }


@lru_cache(maxsize=None)
def _per_pair(kind: str, s: int, t: int) -> int:
    return PER_PAIR[kind](s, t)


def generated_edges(kind: str, h1, h2) -> int:
    """Edges a product generates summed over generating pairs: cartesian
    |V1||E2|+|E1||V2|, dirmin sum max!/(max-min)!, dirmax sum
    min!*S(max,min), dirnon sum |e1||e2|; normal and strong add cartesian."""
    total = 0
    if kind in ("cartesian", "normal", "strong"):
        total += len(h1.vertices) * len(h2.edges) + len(h1.edges) * len(h2.vertices)
    direct = {"normal": "dirmin", "strong": "dirmax"}.get(kind, kind)
    if direct in PER_PAIR:
        sizes1 = Counter(len(e) for e in h1.edges)
        sizes2 = Counter(len(e) for e in h2.edges)
        for s, m in sizes1.items():
            for t, n in sizes2.items():
                total += m * n * _per_pair(direct, s, t)
    return total
