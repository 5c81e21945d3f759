"""Tests for the dataflow graph."""

import pytest

from repro.compiler.graph import Graph
from repro.compiler.operators import Elementwise, ElementwiseKind, MatMul
from repro.errors import CompileError


def _mm(name):
    return MatMul(name, m=8, k=8, n=8)


def test_chain_construction():
    g = Graph("g")
    a = g.add(_mm("a"))
    b = g.add(_mm("b"))
    assert g.node(b).inputs == [a]


def test_explicit_inputs_and_fanin():
    g = Graph("g")
    a = g.add(_mm("a"), inputs=[])
    b = g.add(_mm("b"), inputs=[])
    c = g.add(
        Elementwise("c", kind=ElementwiseKind.ADD, elements=64, arity=2),
        inputs=[a, b],
    )
    assert set(g.node(c).inputs) == {a, b}
    assert g.consumers(a) == [c]


def test_unknown_input_rejected():
    g = Graph("g")
    with pytest.raises(CompileError):
        g.add(_mm("a"), inputs=[99])


def test_topo_order_respects_dependencies():
    g = Graph("g")
    a = g.add(_mm("a"), inputs=[])
    b = g.add(_mm("b"), inputs=[])
    c = g.add(_mm("c"), inputs=[a, b])
    d = g.add(_mm("d"), inputs=[c])
    order = [n.node_id for n in g.topo_order()]
    assert order.index(a) < order.index(c) < order.index(d)
    assert order.index(b) < order.index(c)


def test_cycle_detection():
    g = Graph("g")
    a = g.add(_mm("a"), inputs=[])
    b = g.add(_mm("b"), inputs=[a])
    g.rewire(a, [b])
    with pytest.raises(CompileError):
        g.topo_order()


def test_remove_requires_no_consumers():
    g = Graph("g")
    a = g.add(_mm("a"))
    b = g.add(_mm("b"))
    with pytest.raises(CompileError):
        g.remove(a)
    g.remove(b)
    g.remove(a)
    assert len(g) == 0


def test_aggregates():
    g = Graph("g")
    g.add(_mm("a"))
    g.add(Elementwise("e", kind=ElementwiseKind.RELU, elements=64))
    assert g.count_me_ops() == 1
    assert g.count_ve_ops() == 1
    assert g.total_flops > 0
    assert g.total_hbm_bytes > 0


def _quadratic_topo_ids(graph):
    """The Kahn's algorithm ``topo_order`` ran before it was linear:
    each placed node scans every node for its consumers, and a consumer
    is queued once all of its inputs are placed."""
    nodes = {n.node_id: n for n in graph}
    ready = sorted(nid for nid, n in nodes.items() if not n.inputs)
    order, satisfied = [], set()
    while ready:
        nid = ready.pop(0)
        order.append(nid)
        satisfied.add(nid)
        for consumer in sorted(graph.consumers(nid)):
            if consumer in satisfied:
                continue
            if all(dep in satisfied for dep in nodes[consumer].inputs):
                if consumer not in ready:
                    ready.append(consumer)
    return order


@pytest.mark.parametrize("batch", [1, 4, 8, 32])
def test_topo_order_matches_the_quadratic_algorithm(batch):
    from repro.workloads.catalog import build_model, model_names

    for name in model_names(include_llm=True):
        graph = build_model(name, batch)
        ids = [n.node_id for n in graph.topo_order()]
        assert ids == _quadratic_topo_ids(graph), name
        assert len(ids) == len(graph)


def test_topo_order_queues_a_repeated_input_once():
    g = Graph("g")
    a = g.add(_mm("a"), inputs=[])
    b = g.add(_mm("b"), inputs=[])
    c = g.add(
        Elementwise("c", kind=ElementwiseKind.ADD, elements=64, arity=2),
        inputs=[a, a],
    )
    d = g.add(_mm("d"), inputs=[c, b, c])
    assert [n.node_id for n in g.topo_order()] == [a, b, c, d]
    assert [n.node_id for n in g.topo_order()] == _quadratic_topo_ids(g)


@pytest.mark.parametrize("seed", range(5))
def test_topo_order_matches_the_quadratic_algorithm_on_random_dags(seed):
    """Catalog models are chains, so random DAGs cover fan-in, repeated
    inputs and edges against id order: each node depends on nodes of
    lower rank, the ranks a random permutation of the ids."""
    import random

    rng = random.Random(seed)
    for _ in range(20):
        g = Graph("g")
        n = rng.randint(1, 40)
        ids = [g.add(_mm(f"n{i}"), inputs=[]) for i in range(n)]
        rank = ids[:]
        rng.shuffle(rank)
        for pos, nid in enumerate(rank):
            if pos:
                g.rewire(nid, [rng.choice(rank[:pos])
                               for _ in range(rng.randint(0, 3))])
        order = [node.node_id for node in g.topo_order()]
        assert order == _quadratic_topo_ids(g)
        assert sorted(order) == ids
