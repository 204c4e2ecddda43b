"""Canonical problem signatures — the compilation cache's content address.

The cache must answer "is this the *same* generation problem?" without
running the generation pipeline (the whole point is to skip it).  The key
therefore hashes the cheap, declarative inputs the pipeline is a pure
function of:

* the equation string (always a conservation form);
* the entity tables (indices with ranges, variables with their component
  spaces, coefficients with hashed values, callbacks by code identity);
* the boundary declarations (region, kind, value / callback identity);
* the mesh content (node coordinates + connectivity, hashed once and
  memoised on the mesh object);
* the codegen options that shape the emitted source or the baked
  operators: stepper, flux order, assembly loop order, partitioning,
  GPU spec, machine rates (they steer the placement optimiser), network
  name, and the GPU placement knobs in ``problem.extra``;
* the emitter itself (:func:`emitter_digest`): a persisted ``source.py``
  calls helpers of ``geom``/``kernels``/``state`` as they were when it was
  written, so an artifact stored by another emitter must be a miss.

Deliberately **excluded** (bound fresh on every cache hit, see
``bind_artifact``): ``dt``/``nsteps``, initial values, and the pre/post
step callback *objects* — they only parameterise the run, not the
generated artifact.  Callback and function-coefficient *code* is hashed
(bytecode + best-effort closure contents), so redefining one invalidates
the entry while re-creating an identical closure does not.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import json
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:
    from repro.dsl.problem import Problem

SCHEMA = "repro.cache/1"

#: ``problem.extra`` keys that feed codegen / placement and therefore the key.
_EXTRA_KEYS = (
    "gpu_force_offload",
    "gpu_flop_factor",
    "placement_override",
)

#: Fields normalised out of :func:`tuning_key` so one run-registry
#: timeline covers the problem regardless of the knobs currently applied,
#: and outlives emitter changes (a recorded run is re-measurable, a stored
#: artifact is not).  (``nparts`` stays — the rank count is a resource,
#: not a knob.)
_KNOB_SIG_FIELDS = ("assembly_order", "extra", "emitter")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@functools.cache
def emitter_digest() -> str:
    """Content hash of the modules that emit generated source
    (``repro.codegen``) and of the helpers that source calls into
    (``repro.fvm``: kernels, geometry, boundary sets); read once per
    process."""
    h = hashlib.sha256()
    for package in ("repro.codegen", "repro.fvm"):
        root = Path(importlib.util.find_spec(package).origin).parent
        for path in sorted(root.rglob("*.py")):
            h.update(str(path.relative_to(root.parent)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _hash_array(arr: np.ndarray) -> str:
    arr = np.ascontiguousarray(arr)
    return _sha(str(arr.dtype).encode() + str(arr.shape).encode() + arr.tobytes())


def _hash_callable(fn: Any) -> str:
    """Code-identity hash: bytecode + consts + best-effort closure contents.

    Two closures created by the same factory hash equal unless their
    captured values differ; objects we cannot hash stably degrade to their
    type name (conservative: may alias, never unstable across processes).
    A callable that declares a ``callback_version`` is identified by that in
    place of its bytecode and constants: an edit that changes how fast it
    runs, not what it returns, keeps every key — and the timelines stored
    under it — and a bumped version changes them.
    """
    code = getattr(fn, "__code__", None)
    parts = [getattr(fn, "__qualname__", repr(type(fn)))]
    version = getattr(fn, "callback_version", None)
    if version is not None:
        parts.append(f"version {version}")
    elif code is not None:
        parts.append(_sha(code.co_code))
        parts.append(repr(tuple(c for c in code.co_consts if isinstance(c, (int, float, str, bytes, type(None))))))
    closure = getattr(fn, "__closure__", None)
    if closure:
        for cell in closure:
            try:
                parts.append(_hash_value(cell.cell_contents))
            except Exception:  # unhashable capture: fall back to its type
                parts.append(type(cell.cell_contents).__name__)
    return _sha("|".join(parts).encode())


def _hash_value(value: Any, code: bool = True) -> str:
    """Stable hash of a coefficient/boundary value of any supported kind; a
    callable by its code (:func:`_hash_callable`), or with ``code`` false by
    its name alone."""
    if value is None:
        return "none"
    if isinstance(value, (bool, int, float, str)):
        return repr(value)
    if isinstance(value, np.ndarray):
        return _hash_array(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_hash_value(v, code) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(
            f"{k}:{_hash_value(v, code)}"
            for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))
        ) + "}"
    if callable(value):
        return _hash_callable(value) if code else \
            f"callable {getattr(value, '__qualname__', type(value).__name__)}"
    try:
        arr = np.asarray(value)
        if arr.dtype != object:
            return _hash_array(arr)
    except Exception:
        pass
    return type(value).__name__


def mesh_signature(mesh) -> str:
    """Content hash of a mesh (memoised on the instance)."""
    cached = mesh.__dict__.get("_repro_content_hash")
    if cached is not None:
        return cached
    h = hashlib.sha256()
    h.update(str(mesh.dim).encode())
    for arr in (
        mesh.nodes,
        mesh.cell_node_offsets,
        mesh.cell_node_indices,
        mesh.face_region,
    ):
        a = np.ascontiguousarray(arr)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    digest = h.hexdigest()
    mesh.__dict__["_repro_content_hash"] = digest
    return digest


def _entities_signature(problem: "Problem", code: bool = True) -> dict[str, Any]:
    ents = problem.entities
    return {
        "indices": [
            {"name": ix.name, "lo": ix.lo, "hi": ix.hi}
            for ix in sorted(ents.indices.values(), key=lambda i: i.name)
        ],
        "variables": [
            {
                "name": v.name,
                "type": v.var_type,
                "location": v.location,
                "indices": list(v.index_names()),
            }
            for v in sorted(ents.variables.values(), key=lambda v: v.name)
        ],
        "coefficients": [
            {
                "name": c.name,
                "type": c.var_type,
                "indices": list(c.index_names()),
                "value": _hash_value(c.value, code),
            }
            for c in sorted(ents.coefficients.values(), key=lambda c: c.name)
        ],
        "callbacks": [
            {"name": cb.name, "code": _hash_value(cb.fn, code)}
            for cb in sorted(ents.callbacks.values(), key=lambda cb: cb.name)
        ],
    }


def _boundary_signature(problem: "Problem", code: bool = True) -> list[dict[str, Any]]:
    out = []
    for b in sorted(problem.boundaries, key=lambda b: (b.variable, b.region)):
        out.append({
            "variable": b.variable,
            "region": b.region,
            "kind": b.kind.value,
            "value": _hash_value(b.value, code),
            "call": repr(b.call) if b.call is not None else None,
            "callback": _hash_value(b.python_callback, code)
            if b.python_callback is not None else None,
            "reflection": _hash_value(b.reflection_map, code),
        })
    return out


def _problem_fields(problem: "Problem", code: bool = True) -> dict[str, Any]:
    """What the problem itself declares: the part of
    :func:`problem_signature` no target, knob or emitter changes, and the
    whole of :func:`problem_identity` but ``dt``."""
    cfg = problem.config
    return {
        "dimension": cfg.dimension,
        # constants since finite volumes are the one discretisation, kept in
        # the document so the run-registry keys recorded before stay valid
        "solver_type": "FV",
        "stepper": cfg.stepper,
        "flux_order": cfg.flux_order,
        "equation": {
            "kind": "conservation",
            "source": problem.equation.source if problem.equation else None,
        },
        "entities": _entities_signature(problem, code),
        "boundaries": _boundary_signature(problem, code),
        "mesh": mesh_signature(problem.mesh) if problem.mesh is not None else None,
    }


def problem_signature(problem: "Problem", target_name: str) -> dict[str, Any]:
    """The canonical, JSON-able signature document of one generation."""
    cfg = problem.config
    sig: dict[str, Any] = {
        "schema": SCHEMA,
        "emitter": emitter_digest(),
        "target": target_name,
        **_problem_fields(problem),
        "assembly_order": list(cfg.assembly_order),
        "partition": {
            "strategy": cfg.partition_strategy,
            "nparts": cfg.nparts,
            "index": cfg.partition_index,
        },
        "use_gpu": cfg.use_gpu,
        "gpu_spec": getattr(cfg.gpu_spec, "name", None),
        # always None: the machine rates and the network model are
        # constants, and the two fields stay so that keys recorded before
        # (the registry's timelines, the pinned digests) stay valid
        "machine": None,
        "network": None,
        "extra": {k: _hash_value(problem.extra[k])
                  for k in _EXTRA_KEYS if k in problem.extra},
    }
    # callbacks stay out of the key, but a declared reduction is an array of
    # the device targets' transfer plan (and of no other target's source)
    reductions = [[cb.reduce.name, cb.reduce.rows]
                  for cb in problem.post_step_callbacks if cb.reduce]
    if reductions and target_name in ("gpu", "gpu_distributed"):
        sig["reductions"] = reductions
    return sig


def signature_digest(sig: dict[str, Any]) -> str:
    return _sha(json.dumps(sig, sort_keys=True, separators=(",", ":")).encode())


def cache_key(problem: "Problem", target_name: str) -> str:
    """The compilation-cache key: sha256 of the canonical signature."""
    return signature_digest(problem_signature(problem, target_name))


def request_key(problem: "Problem", target: str | None = None) -> str:
    """The solver-service dedup key for a request: the compilation-cache
    key of the target the problem *would* dispatch to.

    Identical in-flight requests (same signature, same resolved target)
    coalesce onto one job and one compiled artifact; ``dt``/``nsteps``/
    initial values/callbacks are excluded from the signature by design, so
    requests differing only in those do NOT coalesce at the job layer —
    the service additionally keys jobs on the runtime binding (see
    :mod:`repro.serve.schema`).
    """
    return cache_key(problem, problem.resolve_target(target))


def problem_identity(problem: "Problem") -> str:
    """What a ``repro.checkpoint/1`` snapshot of ``problem`` may be restored
    into: what the problem declares (:func:`_problem_fields`: the mesh
    content, the equation, the entities, the boundaries, the stepper) and
    ``dt``.  Not the target, its knobs or the emitter (a run may resume on
    another target), not ``nsteps`` or the initial values (a resumed run may
    go further, and overwrites them), and callables by name only, so the
    identity does not move with the interpreter's bytecode."""
    return signature_digest({**_problem_fields(problem, code=False),
                             "dt": float(problem.config.dt)})


def tuning_key(problem: "Problem", target_name: str | None = None) -> str:
    """The run-registry key: the cache signature with every *knob* field
    (assembly order, partitioning, GPU knob extras) normalised out, so
    runs of one problem share a timeline whatever knobs each carried.
    ``target_name`` defaults to ``"auto"`` because the knobs themselves
    may change the dispatched target."""
    sig = problem_signature(problem, target_name or "auto")
    for field in _KNOB_SIG_FIELDS:
        sig.pop(field, None)
    # strategy and split index are tunable; the rank count is a resource
    sig["partition"] = {"nparts": sig["partition"]["nparts"]}
    return signature_digest(sig)


__all__ = [
    "SCHEMA",
    "cache_key",
    "emitter_digest",
    "mesh_signature",
    "problem_identity",
    "problem_signature",
    "request_key",
    "signature_digest",
    "tuning_key",
]
