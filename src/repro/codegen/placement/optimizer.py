"""Minimum-cut device assignment (Stone's formulation).

Build a flow network with terminals ``GPU`` (source) and ``CPU`` (sink):

* arc ``source -> task`` with capacity ``cost_cpu(task)`` — paid when the
  task ends up on the CPU side of the cut;
* arc ``task -> sink`` with capacity ``cost_gpu(task)`` — paid when the
  task runs on the GPU;
* for each data edge, arcs in both directions with capacity equal to the
  PCIe transfer time of its bytes — paid when the endpoints are split.

Pinning is an infinite terminal capacity.  The minimum s-t cut therefore
minimises ``sum(execution time on the assigned device) + sum(per-step
transfer time across the split)`` — the paper's "partitions the work into
CPU and GPU tasks while considering data movement costs".
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

from repro.codegen.placement.graph import TaskGraph
from repro.gpu.spec import DeviceSpec
from repro.util.errors import CodegenError
from repro.util.logging import get_logger

logger = get_logger("codegen.placement")

_SOURCE = "__GPU__"
_SINK = "__CPU__"
_INF = float("inf")


@dataclass
class PlacementPlan:
    """Result of one placement optimisation."""

    device: dict[str, str]  # task -> 'cpu' | 'gpu'
    objective_seconds: float  # modelled step cost (exec + transfers)
    cut_edges: list[tuple[str, str, float]]  # (src, dst, bytes) crossing devices
    bytes_moved_per_step: float
    graph: TaskGraph = field(repr=False, default=None)
    # task -> original device, for plans produced by degrade_to_cpu()
    degraded_from: dict[str, str] | None = None

    def predicted_cost(self, task: str) -> float | None:
        """Modelled per-step seconds of ``task`` on its assigned device.

        This is the quantity the min-cut optimised; the observability layer
        compares it against measured per-task times (the run report's
        placement-accuracy section).  ``None`` when the plan carries no
        graph (detached plans).
        """
        if self.graph is None or task not in self.graph.tasks:
            return None
        t = self.graph.tasks[task]
        return t.cost_gpu if self.device.get(task) == "gpu" else t.cost_cpu

    def degrade_to_cpu(self, task: str) -> "PlacementPlan":
        """A new plan with ``task`` re-placed on the CPU (fault fallback).

        Used by the resilient runtime when the device executing ``task``
        faulted: the assignment moves, the crossing edges and per-step
        objective are recomputed from the original graph, and the returned
        plan records the degradation so reports can show the re-placement
        alongside the optimiser's original choice.
        """
        if task not in self.device:
            raise CodegenError(f"no task named {task!r} in this plan")
        device = dict(self.device)
        device[task] = "cpu"
        if self.graph is not None:
            cut_edges = [
                (e.src, e.dst, e.nbytes)
                for e in self.graph.edges
                if device[e.src] != device[e.dst]
            ]
            t = self.graph.tasks[task]
            objective = (
                self.objective_seconds
                - (t.cost_gpu if self.device[task] == "gpu" else t.cost_cpu)
                + t.cost_cpu
            )
        else:
            cut_edges = [e for e in self.cut_edges if task not in (e[0], e[1])]
            objective = self.objective_seconds
        return PlacementPlan(
            device=device,
            objective_seconds=objective,
            cut_edges=cut_edges,
            bytes_moved_per_step=sum(b for _, _, b in cut_edges),
            graph=self.graph,
            degraded_from={task: self.device[task]},
        )

    def report(self) -> str:
        """Human-readable placement summary (shown by the GPU examples)."""
        lines = ["placement plan (min-cut over the step task graph):"]
        for name in sorted(self.device):
            task = self.graph.tasks[name] if self.graph else None
            pin = ""
            if task is not None and task.pinned:
                pin = f"   [pinned {task.pinned}]"
            if self.degraded_from and name in self.degraded_from:
                pin += f"   [degraded from {self.degraded_from[name].upper()}]"
            lines.append(f"  {name:<24} -> {self.device[name].upper()}{pin}")
        lines.append(
            f"  data moved per step: {self.bytes_moved_per_step / 1e6:.3f} MB "
            f"({len(self.cut_edges)} crossing edge(s))"
        )
        lines.append(f"  modelled step cost: {self.objective_seconds * 1e3:.3f} ms")
        return "\n".join(lines)


def _sink_side(cap: defaultdict, source: str, sink: str) -> tuple[float, set[str]]:
    """Maximum ``source -> sink`` flow over the arc capacities ``cap[a][b]`` (a
    nested ``defaultdict``, left holding the residuals) by shortest augmenting
    paths, and the sink side of the minimum cut in networkx's convention: the
    nodes that still reach the sink through unsaturated arcs; every other
    node is on the source side.  An unbounded flow returns ``inf``."""
    def reach(start: str, arcs: dict[str, dict[str, float]]) -> dict[str, str]:
        parent, queue = {start: start}, [start]
        for a in queue:  # breadth-first: ``queue`` grows while it is read
            for b, residual in arcs[a].items():
                if residual > 0 and b not in parent:
                    parent[b] = a
                    queue.append(b)
        return parent

    flow = 0.0
    while sink in (parent := reach(source, cap)):
        path = [sink]
        while path[-1] != source:
            path.append(parent[path[-1]])
        arcs = list(zip(path[1:], path))
        pushed = min(cap[a][b] for a, b in arcs)
        if math.isinf(pushed):
            return pushed, set()
        flow += pushed
        for a, b in arcs:
            cap[a][b] -= pushed
            cap[b][a] += pushed
    reverse = defaultdict(dict)
    for a, arcs in cap.items():
        for b, residual in arcs.items():
            reverse[b][a] = residual
    return flow, set(reach(sink, reverse))


def optimize_placement(graph: TaskGraph, link: DeviceSpec) -> PlacementPlan:
    """Solve the assignment by minimum s-t cut on ``graph``.

    ``link`` supplies the PCIe latency/bandwidth converting bytes to
    seconds so execution and transfer costs share a unit.
    """
    graph.validate()
    cap: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))

    def transfer_seconds(nbytes: float) -> float:
        if nbytes <= 0:
            return 0.0
        return link.pcie_latency_s + nbytes / link.pcie_bw_bytes()

    for task in graph.tasks.values():
        # source(GPU)->task capacity = cost if task lands CPU-side
        cap[_SOURCE][task.name] = _INF if task.pinned == "gpu" else task.cost_cpu
        # task->sink(CPU) capacity = cost if task lands GPU-side
        cap[task.name][_SINK] = _INF if task.pinned == "cpu" else task.cost_gpu
    for edge in graph.edges:
        w = transfer_seconds(edge.nbytes)
        cap[edge.src][edge.dst] += w
        cap[edge.dst][edge.src] += w

    cut_value, cpu_side = _sink_side(cap, _SOURCE, _SINK)
    if math.isinf(cut_value):
        raise CodegenError("placement infeasible: conflicting pinned tasks")

    device = {
        name: ("cpu" if name in cpu_side else "gpu") for name in graph.tasks
    }
    cut_edges = [
        (e.src, e.dst, e.nbytes)
        for e in graph.edges
        if device[e.src] != device[e.dst]
    ]
    n_gpu = sum(1 for d in device.values() if d == "gpu")
    logger.info(
        "placement: %d task(s) -> GPU, %d -> CPU; objective %.3e s/step, "
        "%.3f MB moved over %d crossing edge(s)",
        n_gpu, len(device) - n_gpu, cut_value,
        sum(b for _, _, b in cut_edges) / 1e6, len(cut_edges),
    )
    for name in sorted(device):
        task = graph.tasks[name]
        logger.debug("  %-24s -> %s (cpu %.3e s, gpu %.3e s)",
                     name, device[name], task.cost_cpu, task.cost_gpu)
    return PlacementPlan(
        device=device,
        objective_seconds=float(cut_value),
        cut_edges=cut_edges,
        bytes_moved_per_step=sum(b for _, _, b in cut_edges),
        graph=graph,
    )


__all__ = ["PlacementPlan", "optimize_placement"]
