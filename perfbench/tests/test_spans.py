"""Self time and layer metrics from synthetic spans.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import pytest  # noqa: E402

from spans import Tracer, generated_edges, layer_metrics, self_times  # noqa: E402


class FakeClock:
    """Returns the queued timestamps in order."""

    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_self_time_subtracts_children_including_normal_nesting():
    # op [0, 10] -> checker [1, 9] -> products.normal [2, 8]
    #   -> products.cartesian [3, 4] and products.dirmin [5, 7]
    start = [0.0, 1.0, 2.0, 3.0, 5.0]
    end = [10.0, 9.0, 8.0, 4.0, 7.0]
    parent = [-1, 0, 1, 2, 2]
    assert self_times(start, end, parent) == pytest.approx([2.0, 2.0, 3.0, 1.0, 2.0])


def test_self_time_counts_overlapping_children_once():
    start = [0.0, 1.0, 2.0, 6.0]
    end = [10.0, 4.0, 5.0, 7.0]
    parent = [-1, 0, 0, 0]
    # Children cover [1, 5] and [6, 7]: 5 of the parent's 10.
    assert self_times(start, end, parent)[0] == pytest.approx(5.0)


def test_tracer_records_nesting_and_layer_self_times():
    # begin_op, checker open, normal open, cartesian open/close,
    # dirmin open/close, normal close, checker close, op close.
    clock = FakeClock(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 8.0, 9.0, 10.0)
    tracer = Tracer(clock=clock)
    op = tracer.begin_op(0, "op.assoc")
    checker = tracer.open("checker.check_associativity")
    normal = tracer.open("products.normal")
    tracer.close(tracer.open("products.cartesian"))
    tracer.close(tracer.open("products.dirmin"))
    tracer.close(normal)
    tracer.close(checker)
    tracer.close(op)
    assert list(tracer.parent) == [-1, 0, 1, 2, 2]
    assert set(tracer.op) == {0}
    metrics = layer_metrics(tracer)
    assert metrics["products.self_s"] == pytest.approx(6.0)
    assert metrics["checker.self_s"] == pytest.approx(2.0)


class _Hg:
    def __init__(self, vertices, edges):
        self.vertices = frozenset(vertices)
        self.edges = frozenset(frozenset(e) for e in edges)


def test_generated_edges_uses_the_per_pair_counts():
    g = _Hg("ab", ["ab"])
    h = _Hg("xyz", ["xyz"])
    assert generated_edges("cartesian", g, h) == 2 * 1 + 1 * 3
    assert generated_edges("dirmin", g, h) == 6  # 3!/(3-2)!
    assert generated_edges("dirmax", g, h) == 6  # 2! * S(3, 2)
    assert generated_edges("dirnon", g, h) == 6  # 2 * 3
    assert generated_edges("strong", g, h) == 5 + 6
