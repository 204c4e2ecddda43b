"""``optimize_placement``'s own s-t cut against ``networkx.minimum_cut``.

networkx left the runtime path (300 modules to cut a graph of four tasks)
and stayed as the oracle: the same partition — ties included, by the shared
convention that the sink (CPU) side is exactly the set of nodes that still
reach the sink in the residual graph — the same objective, the same verdict
on infeasible graphs.
"""

from __future__ import annotations

import math
import os
from types import SimpleNamespace

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen.placement import Task, TaskGraph, optimize_placement
from repro.gpu.spec import A6000
from repro.util.errors import CodegenError

# CI pins the examples (HYPOTHESIS_PROFILE=ci): a red run names a reproducible input
settings.register_profile("ci", derandomize=True)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])

#: a link whose transfer times are dyadic rationals, like the costs drawn
#: below: every sum either solver forms is exact, so ties are exact ties and
#: "same partition" is a fair demand (with arbitrary floats two correct
#: max-flow algorithms may round a tie differently)
DYADIC_LINK = SimpleNamespace(pcie_latency_s=2.0 ** -10, pcie_bw_bytes=lambda: 2.0 ** 20)


def networkx_cut(graph: TaskGraph, link):
    """The flow network of ``optimizer.py``'s docstring, cut by networkx."""
    def seconds(nbytes):
        return 0.0 if nbytes <= 0 else link.pcie_latency_s + nbytes / link.pcie_bw_bytes()

    g = nx.DiGraph()
    for task in graph.tasks.values():
        g.add_edge("GPU", task.name, capacity=math.inf if task.pinned == "gpu" else task.cost_cpu)
        g.add_edge(task.name, "CPU", capacity=math.inf if task.pinned == "cpu" else task.cost_gpu)
    for edge in graph.edges:
        for a, b in ((edge.src, edge.dst), (edge.dst, edge.src)):
            if g.has_edge(a, b):
                g[a][b]["capacity"] += seconds(edge.nbytes)
            else:
                g.add_edge(a, b, capacity=seconds(edge.nbytes))
    try:
        value, (gpu_side, _) = nx.minimum_cut(g, "GPU", "CPU")
    except nx.NetworkXUnbounded:
        return None
    return value, {name: "gpu" if name in gpu_side else "cpu" for name in graph.tasks}


def modelled_cost(graph: TaskGraph, link, device: dict[str, str]) -> float:
    """What a placement pays: execution where assigned + every split edge."""
    cost = sum(t.cost_gpu if device[t.name] == "gpu" else t.cost_cpu
               for t in graph.tasks.values())
    for e in graph.edges:
        if device[e.src] != device[e.dst] and e.nbytes > 0:
            cost += link.pcie_latency_s + e.nbytes / link.pcie_bw_bytes()
    return cost


@st.composite
def task_graphs(draw, costs, nbytes):
    graph = TaskGraph()
    n = draw(st.integers(0, 8))
    for i in range(n):
        pinned = draw(st.sampled_from([None, None, None, "cpu", "gpu"]))
        cost_gpu = draw(costs if pinned == "gpu" else st.one_of(costs, st.just(math.inf)))
        graph.add_task(Task(f"t{i}", draw(st.one_of(costs, st.just(math.inf))), cost_gpu, pinned))
    if n:
        for _ in range(draw(st.integers(0, 14))):  # duplicates and self-loops included
            graph.add_edge(f"t{draw(st.integers(0, n - 1))}", f"t{draw(st.integers(0, n - 1))}",
                           draw(nbytes))
    return graph


dyadic_costs = st.integers(0, 16).map(lambda k: k / 1024)
dyadic_bytes = st.one_of(st.just(0.0), st.just(math.inf),
                         st.integers(0, 12).map(lambda k: 1024.0 * k))


@settings(max_examples=400, deadline=None)
@given(task_graphs(dyadic_costs, dyadic_bytes))
def test_same_partition_objective_and_verdict_as_networkx(graph):
    expected = networkx_cut(graph, DYADIC_LINK) if graph.tasks else (0.0, {})
    if expected is None:
        with pytest.raises(CodegenError, match="placement infeasible"):
            optimize_placement(graph, DYADIC_LINK)
        return
    plan = optimize_placement(graph, DYADIC_LINK)
    value, device = expected
    assert plan.device == device
    assert plan.objective_seconds == value
    assert modelled_cost(graph, DYADIC_LINK, plan.device) == value
    assert plan.cut_edges == [(e.src, e.dst, e.nbytes) for e in graph.edges
                              if device[e.src] != device[e.dst]]


@settings(max_examples=200, deadline=None)
@given(task_graphs(st.floats(0.0, 1.0), st.floats(0.0, 1e9)))
def test_arbitrary_costs_reach_the_networkx_objective(graph):
    """With arbitrary floats the cut *value* is what both must agree on (to
    rounding), and the partition returned must cost exactly that."""
    expected = networkx_cut(graph, A6000) if graph.tasks else (0.0, {})
    if expected is None:
        with pytest.raises(CodegenError, match="placement infeasible"):
            optimize_placement(graph, A6000)
        return
    plan = optimize_placement(graph, A6000)
    assert plan.objective_seconds == pytest.approx(expected[0], rel=1e-12, abs=1e-300)
    assert modelled_cost(graph, A6000, plan.device) == pytest.approx(
        plan.objective_seconds, rel=1e-12, abs=1e-300)
    for task in graph.tasks.values():
        assert task.pinned in (None, plan.device[task.name])


def test_exact_ties_go_to_the_gpu_as_networkx_breaks_them():
    """A task that costs the same on both sides cannot reach the sink
    through its saturated arc: it stays on the source (GPU) side."""
    graph = TaskGraph()
    graph.add_task(Task("tie", 0.25, 0.25))
    graph.add_task(Task("host", 0.5, math.inf, pinned="cpu"))
    graph.add_edge("tie", "host", 0.0)
    assert optimize_placement(graph, DYADIC_LINK).device == networkx_cut(graph, DYADIC_LINK)[1] \
        == {"tie": "gpu", "host": "cpu"}


def test_unbounded_cut_is_a_typed_error():
    """An unmovable pair joined by an unpayable edge: networkx raised its own
    ``NetworkXUnbounded`` here; the placement reports infeasibility."""
    graph = TaskGraph()
    graph.add_task(Task("kernel", 1.0, 1.0, pinned="gpu"))
    graph.add_task(Task("callback", 1.0, 1.0, pinned="cpu"))
    graph.add_edge("kernel", "callback", math.inf)
    assert networkx_cut(graph, A6000) is None
    with pytest.raises(CodegenError, match="placement infeasible") as ei:
        optimize_placement(graph, A6000)
    assert ei.value.code == "RPR140"


def test_empty_graph_is_an_empty_plan():
    plan = optimize_placement(TaskGraph(), A6000)
    assert (plan.device, plan.cut_edges, plan.objective_seconds) == ({}, [], 0.0)
