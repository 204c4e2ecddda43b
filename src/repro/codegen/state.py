"""Runtime state shared by all generated solvers.

A :class:`SolverState` is built once per generated solver: it owns the
fields (unknown + known variables), the FV geometry, the lowered boundary
conditions, the component-block structure implied by ``assemblyLoops``, the
phase timers behind the execution-time breakdowns, and the user ``extra``
dict that callbacks use to carry problem-specific data (the BTE keeps its
temperature array there).
"""

from __future__ import annotations

import weakref
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.fvm.boundary import (
    BCKind,
    BoundaryCondition,
    BoundaryContext,
    BoundarySet,
)
from repro.fvm.fields import CellField
from repro.fvm.geometry import FVGeometry
from repro.obs import phase_span
from repro.symbolic.expr import Call, Indexed, Num, Sym
from repro.util.context import current
from repro.util.errors import (
    CodegenError,
    ConfigError,
    DeviceOOMError,
    KernelFaultError,
)
from repro.util.misc import check_finite
from repro.util.timing import TimerRegistry, phase_shares

if TYPE_CHECKING:
    from repro.dsl.problem import BoundarySpec, Problem


class SolverState:
    """Mutable runtime state of one generated solver."""

    def __init__(self, problem: "Problem"):
        if problem.mesh is None:
            raise ConfigError("problem has no mesh")
        self.problem = problem
        self.mesh = problem.mesh
        self.geom = FVGeometry(problem.mesh)
        self.unknown = problem.unknown
        self.dt = problem.config.dt
        self.nsteps = problem.config.nsteps
        self.time = 0.0
        self.step_index = 0
        self.timers = TimerRegistry()
        self.extra: dict[str, Any] = dict(problem.extra)
        # a proxy, not ``self``: a state in a reference cycle (and the scratch
        # it owns) would outlive its solver until the cyclic collector runs
        self.extra.setdefault("state", weakref.proxy(self))

        # distributed context (set by the distributed/gpu targets):
        # exactly one of owned_comps/owned_cells is set on a rank state;
        # callbacks use them (plus `comm`) to restrict work and reduce.
        self.comm = None  # repro.runtime.Communicator on rank states
        # device context (set by the gpu targets' attach_device): while
        # ``device.buffers['u'].on_device`` the device owns the unknown
        self.device = None
        self.owned_comps: np.ndarray | None = None  # band partitioning
        self.owned_cells: np.ndarray | None = None  # cell partitioning

        # fields: the unknown plus every declared variable
        self.fields: dict[str, CellField] = {}
        for name, var in problem.entities.variables.items():
            self.fields[name] = CellField(name, var.space, self.mesh.ncells)
        self._apply_initial_conditions()

        self.bset = self._build_boundary_set()
        self.comp_blocks = self._build_component_blocks()
        self._scratch: dict[str, np.ndarray] = {}
        self._tables: dict[str, tuple[Any, list]] = {}  # builder name -> (builder, its tables)
        self.plans: dict = {}  # the sweeps' tile plans (kernels.tile_plan), held like the tables
        self._sweep_inputs_checked = False

        # per-step solver metrics (residual, energy drift) — lazily
        # initialised by observe_step when a live registry is installed
        self._prev_u: np.ndarray | None = None
        self._energy0: float | None = None

        # resilience wiring: periodic checkpoints and restart-from-file,
        # configured through problem.extra so distributed rank states
        # (rebuilt per run) inherit them without target-specific plumbing
        self.checkpoint_every = int(self.extra.get("checkpoint_every", 0) or 0)
        # the one place the directory is resolved (the elastic runner reads
        # it): concurrent solves sharing one --checkpoint-dir would clobber
        # each other's snapshots (names carry only step + rank).  A namespace
        # isolates them: a subdirectory named verbatim (the solver service
        # passes its job key).
        self.checkpoint_dir = self.extra.get("checkpoint_dir")
        namespace = self.extra.get("checkpoint_namespace")
        if namespace:
            self.checkpoint_dir = str(
                Path(self.checkpoint_dir or ".") / str(namespace))
        # elastic runtime hook: the distributed targets attach a
        # per-rank imbalance monitor here (see runtime.rebalance)
        self.rebalance = None
        restore_from = self.extra.get("restore_from")
        if restore_from:
            self.restore_checkpoint(restore_from)
            current().resilience.record_restore(restore_from)

    # ------------------------------------------------------------ step hooks
    def end_step(self) -> None:
        """What follows every finished step, in this order, on every target
        (the one generated time loop,
        :func:`repro.codegen.target_base.emit_step_loop`, calls it).  The
        hooks are looked up on the instance, which may shadow one (the e2e
        harness times them that way)."""
        self.observe_step()
        self.sanitize_step()
        self.maybe_checkpoint()
        self.maybe_rebalance()

    def sanitize_step(self) -> None:
        """Per-step runtime-sanitizer hook.

        A no-op (one ``None`` check) outside a ``--sanitize`` run; inside
        one it runs the read-only NaN/Inf, residency, CFL and
        conservation-drift checks with this step's provenance.
        """
        san = current().sanitizer
        if san is not None:
            san.check_state(self)

    def log_run_event(self, name: str, **fields: Any) -> None:
        """Emit one structured run-lifecycle event with this state's
        provenance (rank, step, problem).  Called by generated run loops at
        run start/end; cheap when the log is below info level."""
        elog = current().events
        if elog.enabled and elog.wants("info"):
            rank = self.comm.rank if self.comm is not None else None
            elog.emit(name, level="info", rank=rank, step=self.step_index,
                      problem=self.problem.name, **fields)

    def phase(self, name: str):
        """Scope of one phase of a step (``pre_step``, ``solve``,
        ``post_step``, ``boundary``): timed by the phase timers — the one
        record of its duration, behind the breakdowns of Figs. 5/8 and every
        profile row — and, under a live tracer, a span on the thread's host
        track, so a phase means the same on every target."""
        timed = self.timers.time(name)
        if not current().tracer.enabled:
            return timed
        return _Nested(timed, phase_span(name))

    # ------------------------------------------------------------- properties
    @property
    def u(self) -> np.ndarray:
        """The unknown's data, ``(ncomp, ncells)`` — on a device target a
        host access: see :meth:`claim_unknown`."""
        if self.device is not None:
            self.claim_unknown()
        return self.fields[self.unknown.name].data

    @u.setter
    def u(self, values: np.ndarray) -> None:
        self.u[...] = values

    @property
    def host_u(self) -> np.ndarray:
        """The host array of the unknown, whoever owns it (generated code)."""
        return self.fields[self.unknown.name].data

    def claim_unknown(self) -> None:
        """Ownership handoff, device -> host.  While the device owns the
        unknown the host array is stale; any host access (``u``, a
        checkpoint, a degraded step) takes it back with one counted ``d2h``
        charged to the host clock, and marks the host copy as possibly
        written — a write through the array ``u`` returned cannot be seen,
        so reading and writing are one case — which makes the next step
        upload it again."""
        dev = self.device
        if dev is not None and dev.buffers["u"].on_device:
            self.device_transfers("d2h", [("u", self.host_u)])
            dev.mark_host_dirty("u")

    def device_transfers(self, kind: str, arrays) -> None:
        """One batch of counted ``h2d``/``d2h`` copies of ``(name, host
        array)`` pairs; the host clock resumes when the last has landed and
        books the wait as communication."""
        dev, host = self.device, self.host_clock
        mark = end = host.now()
        with self.timers.time(kind):
            for name, array in arrays:
                end = (dev.h2d(name, array, mark) if kind == "h2d"
                       else dev.d2h(name, out=array, host_time=mark)[1])
        host.advance_to(end)
        current().tracer.complete(self.host_track, kind, mark, end, cat="transfer")
        self.charge_phase("communication", end - mark)

    def await_device(self, since: float) -> None:
        """Join the device timeline (``cudaDeviceSynchronize``); the wait
        since ``since`` — a launch, with the host work that overlapped it —
        is time spent solving for the intensity."""
        host = self.host_clock
        sync = self.device.synchronize(host.now())
        if sync > host.now():
            current().tracer.complete(self.host_track, "sync_wait", host.now(), sync,
                                      cat="sync")
        host.advance_to(sync)
        self.charge_phase("solve for intensity", sync - since)

    def charge_phase(self, phase: str, seconds: float) -> None:
        """Book virtual seconds the host clock has advanced by: the phase
        totals of the hybrid timeline and, on a rank, its communicator clock."""
        self.gpu_phases[phase] += seconds
        if self.comm is not None:
            self.comm.compute(seconds, phase=phase)

    @property
    def ncomp(self) -> int:
        return self.fields[self.unknown.name].ncomp

    @property
    def ncells(self) -> int:
        return self.mesh.ncells

    def field(self, name: str) -> CellField:
        if name not in self.fields:
            raise CodegenError(f"no field named {name!r}")
        if name == self.unknown.name:
            self.claim_unknown()  # a host access, like ``u``
        return self.fields[name]

    def check_health(self) -> None:
        """NaN/Inf guard, called by generated run loops between steps; it
        runs where the unknown lives (one flag back from the device, the
        array only when the flag says to look)."""
        dev = self.device
        if dev is not None and dev.buffers["u"].on_device:
            mark = self.host_clock.now()
            try:
                finite, end = dev.all_finite("u", mark)
            except (DeviceOOMError, KernelFaultError):
                finite, end = False, mark  # device fault: check on the host
            self.host_clock.advance_to(end)
            self.charge_phase("communication", end - mark)
            if finite:
                return
        check_finite(self.unknown.name, self.u)

    def sanitize_kernel_output(self, kernel: str, array) -> None:
        """Per-kernel NaN/Inf guard on device output (``--sanitize`` only);
        ``array`` may be a zero-argument fetch of output that stays on the
        device."""
        san = current().sanitizer
        if san is not None:
            san.check_kernel_output(kernel, array() if callable(array) else array,
                                    state=self)

    def observe_step(self) -> None:
        """Per-step solver metrics, called by every generated run loop.

        Records the step residual (max |du|/dt — how far the transient is
        from steady state), the volume-weighted energy drift relative to
        the first observed step, and a step counter.  Zero-cost when no
        live metrics registry is installed: the expensive observations are
        computed only behind the ``enabled`` guard.  At debug level the
        event log also gets a ``step.done`` event.
        """
        rank = self.comm.rank if self.comm is not None else None
        ctx = current()
        if ctx.events.debug_enabled:
            ctx.events.emit("step.done", level="debug", rank=rank,
                            step=self.step_index, time=self.time)
        metrics = ctx.metrics
        if not metrics.enabled:
            return
        labels = {"problem": self.problem.name}
        if rank is not None:
            labels["rank"] = rank
        metrics.counter(
            "solver_steps_total", "time steps completed").inc(1, **labels)
        u = self.u
        if self._prev_u is not None and self.dt > 0:
            residual = float(np.max(np.abs(u - self._prev_u))) / self.dt
            metrics.histogram(
                "solver_step_residual",
                "max |du|/dt per step (steady-state distance)",
                buckets=(1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9, 1e12, 1e15),
            ).observe(residual, **labels)
        self._prev_u = u.copy()
        # conservation check: volume-weighted total of the unknown, drift
        # relative to the first observed value (exact for closed boxes)
        energy = float(self.geom.volume @ u.sum(axis=0))
        if self._energy0 is None:
            self._energy0 = energy
        scale = abs(self._energy0)
        drift = (energy - self._energy0) / scale if scale > 0 else 0.0
        metrics.gauge(
            "solver_energy_drift_rel",
            "relative drift of the volume-weighted unknown total",
        ).set(drift, **labels)

    def buffer(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """A reusable scratch array (allocated once, reused every step).

        The generated hot loop and the step callbacks call this instead of
        ``np.empty`` for every array whose lifetime is one statement, one
        tile or one step: the tile's register pools, the sweep terms, the
        ghost values, the temperature update's band energies and closure
        work arrays, the hybrid step's boundary exchange — so a warmed-up
        step allocates nothing of the problem's size.  Contents are
        whatever the last user left.
        """
        buf = self._scratch.get(name)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = np.empty(shape, dtype=dtype)
            self._scratch[name] = buf
        return buf

    def tables(self, build, faces=slice(None), divergence: bool = False) -> list:
        """The generated code's step-invariant tables over this state's
        geometry, ``build(normal, face_dist, owner, neighbor_column)`` on
        ``faces`` (one choice per generated builder) — with ``divergence``
        also handed the gather form of the surface divergence on those
        faces (ids, then): built on first use and again only for another ``build`` of
        that name (a recompiled source), so every state — each rank state of
        each run segment, hence each partition an elastic run migrates to —
        holds its own."""
        held = self._tables.get(build.__name__)
        if held is None or held[0] is not build:
            g = self.geom
            args = [g.normal[faces], g.face_dist[faces], g.owner[faces],
                    g.neighbor_column[faces]]
            if divergence:
                args.append(g.divergence_slots(faces=faces))
            held = self._tables[build.__name__] = (build, build(*args))
        return held[1]

    def require_private_inputs(self, u: np.ndarray, ghost: np.ndarray,
                               overrides=()) -> None:
        """Row-locality guard of the in-place sweep, on this state's first
        sweep: tiles read ``ghost`` and the FLUX override values after
        earlier tiles advanced ``u``, so they must be copies, not views."""
        if not self._sweep_inputs_checked and any(
                np.may_share_memory(u, a) for a in (ghost, *(v for _, v in overrides))):
            raise CodegenError(
                "boundary ghost/flux values share memory with the unknown; the "
                "in-place sweep needs copies evaluated from the pre-step state",
                code="RPR141")
        self._sweep_inputs_checked = True

    # ----------------------------------------------------------------- initial
    def _apply_initial_conditions(self) -> None:
        for name, values in self.problem.initial_values.items():
            fld = self.fields[name]
            if callable(values):
                out = np.asarray(values(self.mesh.cell_centroids), dtype=np.float64)
                if out.shape == (fld.ncells,):
                    fld.data[:] = out[None, :]
                elif out.shape == fld.data.shape:
                    fld.data[...] = out
                else:
                    raise ConfigError(
                        f"initial({name}): callable returned shape {out.shape}, "
                        f"expected ({fld.ncells},) or {fld.data.shape}"
                    )
                continue
            arr = np.asarray(values, dtype=np.float64)
            if arr.ndim == 0:
                fld.fill(float(arr))
            elif arr.shape == (fld.ncomp,):
                fld.data[...] = arr[:, None]
            elif arr.shape == fld.data.shape:
                fld.data[...] = arr
            else:
                raise ConfigError(
                    f"initial({name}): shape {arr.shape} matches neither "
                    f"({fld.ncomp},) nor {fld.data.shape}"
                )

    # ---------------------------------------------------------------- boundary
    def _build_boundary_set(self) -> BoundarySet:
        bset = BoundarySet(self.geom, self.ncomp)
        for spec in self.problem.boundaries:
            if spec.variable != self.unknown.name:
                continue  # conditions of known variables are handled by callbacks
            bset.add(self._lower_boundary_spec(spec))
        return bset

    def _lower_boundary_spec(self, spec: "BoundarySpec") -> BoundaryCondition:
        if spec.kind in (BCKind.DIRICHLET, BCKind.NEUMANN0):
            return BoundaryCondition(
                region=spec.region, kind=spec.kind, value=spec.value
            )
        if spec.kind == BCKind.SYMMETRY:
            return BoundaryCondition(
                region=spec.region,
                kind=spec.kind,
                reflection_map=spec.reflection_map,
            )
        # FLUX / GHOST_CALLBACK: wrap the user callback so DSL-string
        # arguments are resolved automatically ("the relevant values for
        # parameters ... will be interpreted automatically by Finch")
        if spec.python_callback is not None:
            fn = spec.python_callback
            return BoundaryCondition(
                region=spec.region, kind=spec.kind, callback=fn,
                name=getattr(fn, "__name__", "callback"),
            )
        assert spec.call is not None
        adapter = self._make_callback_adapter(spec.call)
        return BoundaryCondition(
            region=spec.region, kind=spec.kind, callback=adapter,
            name=spec.call.func,
        )

    def _make_callback_adapter(self, call: Call):
        """Bind a parsed ``isothermal(I, vg, ..., 300)`` invocation.

        Argument resolution at call time: the unknown -> owner-side values;
        other variables -> their field data; coefficients -> declared values
        (function coefficients evaluated on the region's face centres);
        index entities -> the :class:`~repro.dsl.entities.Index`; the
        reserved name ``normal`` -> the region's outward normals; literals ->
        floats.
        """
        entities = self.problem.entities
        cb = entities.callbacks[call.func]
        unknown_name = self.unknown.name

        resolvers = []
        for arg in call.args:
            if isinstance(arg, Num):
                value = float(arg.value)
                resolvers.append(lambda ctx, v=value: v)
                continue
            name = arg.base if isinstance(arg, Indexed) else (
                arg.name if isinstance(arg, Sym) else None
            )
            if name is None:
                raise CodegenError(
                    f"boundary callback argument {arg} must be an entity name "
                    "or a numeric literal"
                )
            if name == "normal":
                resolvers.append(lambda ctx: ctx.normals)
                continue
            kind = entities.kind_of(name)
            if kind == "variable":
                if name == unknown_name:
                    resolvers.append(lambda ctx: ctx.owner_values)
                else:
                    fld = self.fields[name]
                    resolvers.append(
                        lambda ctx, f=fld: f.data[:, ctx.owner_cells]
                    )
            elif kind == "coefficient":
                coef = entities.coefficients[name]
                if coef.is_function:
                    resolvers.append(lambda ctx, c=coef: c.at(ctx.centers, ctx.time))
                else:
                    value = coef.value
                    resolvers.append(lambda ctx, v=value: v)
            elif kind == "index":
                ix = entities.indices[name]
                resolvers.append(lambda ctx, i=ix: i)
            else:
                raise CodegenError(
                    f"cannot resolve boundary callback argument {name!r}"
                )

        def adapter(ctx: BoundaryContext) -> np.ndarray:
            return cb.fn(ctx, *[r(ctx) for r in resolvers])

        adapter.__name__ = f"bc_{call.func}"
        return adapter

    # --------------------------------------------------------- component blocks
    def _build_component_blocks(self) -> list[Any]:
        """Selectors implied by ``assemblyLoops``.

        Index names appearing *before* ``'cells'`` in the order become outer
        loops: one block per combination of their values.  With ``'cells'``
        outermost there is a single all-components block (fully fused).
        """
        order = self.problem.config.assembly_order
        space = self.unknown.space
        outer = [n for n in order[: order.index("cells")]]
        if not outer or space.ncomp <= 1:
            return [slice(None)]
        axes = [space.axis_values(n) for n in outer]
        sizes = [space.size(n) for n in outer]
        blocks: list[np.ndarray] = []

        def rec(level: int, mask: np.ndarray) -> None:
            if level == len(outer):
                blocks.append(np.flatnonzero(mask))
                return
            for v in range(sizes[level]):
                rec(level + 1, mask & (axes[level] == v))

        rec(0, np.ones(space.ncomp, dtype=bool))
        return [b for b in blocks if len(b)]

    def row_blocks(self, rows=None) -> list[Any]:
        """``comp_blocks`` restricted to the component rows ``rows``.

        ``rows`` is a sorted index array (a band-partitioned rank's owned
        components) or ``None`` for all rows; the block structure — and so
        the ``assemblyLoops`` order — is unchanged, blocks just shrink.
        """
        if rows is None:
            return self.comp_blocks
        return [
            rows if isinstance(blk, slice) else blk[np.isin(blk, rows)]
            for blk in self.comp_blocks
        ]

    # ----------------------------------- checkpoints (repro.runtime.checkpoint)
    def save_checkpoint(self, path) -> None:
        """Write a ``repro.checkpoint/1`` snapshot of this state to ``path``."""
        _checkpoint().save(self, path)

    def restore_checkpoint(self, path) -> None:
        """Restore the cut ``path`` names — one snapshot file, or the rank
        files of one step — checked in full before anything is applied: a
        refused one leaves the state as it was."""
        _checkpoint().restore(self, path)

    def maybe_checkpoint(self) -> None:
        """Periodic checkpoint hook, called by every generated run loop: a
        no-op unless the problem asked for ``checkpoint_every``, then a
        snapshot (a rank's own, on a rank) every that many steps."""
        if self.checkpoint_every > 0:
            _checkpoint().periodic(self)

    def maybe_rebalance(self) -> None:
        """Elastic-runtime hook, called by every generated run loop next to
        :meth:`maybe_checkpoint`.

        No-op (one attribute check) unless a distributed target attached a
        rebalance monitor; when live, the monitor watches measured per-rank
        step times and cooperatively interrupts the run segment (on every
        rank symmetrically) when migrating work would pay.
        """
        if self.rebalance is not None:
            self.rebalance.observe(self)

    # ------------------------------------------------------------------- misc
    def breakdown(self) -> dict[str, float]:
        """Phase fractions from the timers, an SPMD run's summed over its
        ranks' (Figs. 5 and 8 material)."""
        spmd = getattr(self, "spmd_result", None)
        return phase_shares([self.timers] if spmd is None
                            else [r["timers"] for r in spmd.results])

    def __repr__(self) -> str:
        return (
            f"SolverState(problem={self.problem.name!r}, step={self.step_index}/"
            f"{self.nsteps}, time={self.time:.3e})"
        )


def _checkpoint():
    """The snapshot module, imported on first use: a plain solve never loads it."""
    from repro.runtime import checkpoint

    return checkpoint


class _Nested:
    """``with outer, inner:`` as one context manager."""

    __slots__ = ("_outer", "_inner")

    def __init__(self, outer, inner):
        self._outer = outer
        self._inner = inner

    def __enter__(self) -> "_Nested":
        self._outer.__enter__()
        self._inner.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        self._inner.__exit__(*exc)
        self._outer.__exit__(*exc)


__all__ = ["SolverState"]
