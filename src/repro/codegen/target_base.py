"""Shared machinery for code-generation targets.

A target turns a validated :class:`~repro.dsl.problem.Problem` into a
:class:`GeneratedSolver`: real Python source (kept on the solver for
inspection — the paper stresses readable generated code and the ability to
hand-modify it), compiled into a namespace pre-loaded with the problem's
numeric environment, plus the :class:`~repro.codegen.state.SolverState` the
generated functions operate on.

Generation is split in two phases around the compilation cache
(:mod:`repro.tune.cache`):

* :meth:`CodegenTarget.build_artifact` — the expensive, cacheable half:
  symbolic lowering, IR construction, expression emission, placement
  optimisation, source assembly.  Its result is content-addressed by
  :func:`repro.tune.signature.cache_key` and reused across solves.
* :meth:`CodegenTarget.bind_artifact` — the cheap, per-solve half: a fresh
  :class:`~repro.codegen.state.SolverState`, live callbacks/closures/
  devices/clocks, and a :class:`GeneratedSolver` constructed from the
  artifact's precompiled code object (so a warm solve performs zero
  ``compile()`` calls — asserted by ``codegen_compile_total``).

:meth:`CodegenTarget.generate` is the template method tying them together;
targets implement only the two halves.
"""

from __future__ import annotations

import sys
import time
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.codegen import ctile
from repro.codegen.emit import EmittedExpr, ExprEmitter, emit_interior
from repro.codegen.state import SolverState
from repro.fvm import kernels
from repro.fvm.timesteppers import tableau
from repro.ir.nodes import print_ir
from repro.obs import phase_span
from repro.util.context import current
from repro.util.errors import CodegenError

if TYPE_CHECKING:
    from repro.dsl.problem import Problem
    from repro.tune.cache import GenerationArtifact


class GeneratedSolver:
    """A compiled solver produced by one codegen target.

    Attributes
    ----------
    source:
        The generated Python source (write it to a file, read it, edit it —
        ``recompile()`` picks up changes).
    state:
        The live :class:`SolverState`.
    namespace:
        The module-level namespace the source was executed in (contains the
        generated functions plus the injected numeric environment).
    module_name:
        The filename the source compiles under.  Content-derived (target +
        cache-key prefix) so artifacts are stable across processes and
        re-generation is idempotent.
    """

    def __init__(
        self,
        target_name: str,
        source: str,
        env: dict[str, Any],
        state: SolverState,
        code: Any = None,
        module_name: str | None = None,
    ):
        self.target_name = target_name
        self.source = source
        self.state = state
        self.module_name = module_name or f"<generated:{target_name}>"
        self.namespace: dict[str, Any] = {}
        self._base_env = env
        # precompiled code object (cache hit) and the source it came from;
        # recompile() only calls compile() when the source has changed
        self._code = code
        self._compiled_source = source if code is not None else None
        # observability hooks: maps placement-task names to the phase timer
        # that measures them (filled in by targets that run the optimiser)
        self.task_timer_map: dict[str, str] = {}
        self.recompile()

    # ------------------------------------------------------------- compilation
    def recompile(self) -> None:
        """(Re)execute the source into a fresh namespace, compiling only
        when the source changed since the last compile (hand edits)."""
        ns: dict[str, Any] = {
            "np": np,
            "kernels": kernels,
        }
        ns.update(self._base_env)
        if self._code is None or self._compiled_source != self.source:
            try:
                self._code = compile(self.source, self.module_name, "exec")
            except SyntaxError as exc:
                raise CodegenError(
                    f"generated source does not compile: {exc}\n{self.source}"
                ) from exc
            self._compiled_source = self.source
            current().metrics.counter(
                "codegen_compile_total",
                "compile() calls on generated source",
            ).inc(1, target=self.target_name)
        exec(self._code, ns)  # noqa: S102 - executing our own generated source is the point
        for required in ("step_once", "run_steps"):
            if required not in ns:
                raise CodegenError(
                    f"generated source defines no {required}() function"
                )
        self.namespace = ns

    @property
    def code(self) -> Any:
        """The compiled code object of ``source`` (shared with the cache)."""
        return self._code

    # ---------------------------------------------------------------- execution
    def step(self) -> None:
        """Advance one time step."""
        self.namespace["step_once"](self.state)

    def run(self, nsteps: int | None = None) -> SolverState:
        """Run ``nsteps`` (default: the configured count) and return state."""
        n = self.state.nsteps if nsteps is None else int(nsteps)
        with phase_span(f"run[{self.target_name}]", cat="run", nsteps=n):
            self.namespace["run_steps"](self.state, n)
        return self.state

    def solution(self) -> np.ndarray:
        """Copy of the unknown's values, ``(ncomp, ncells)``."""
        return self.state.u.copy()

    def breakdown(self) -> dict[str, float]:
        """Phase fractions of execution time (Figs. 5/8 shape)."""
        return self.state.breakdown()

    def run_report(self, tracer=None, **kwargs):
        """The run document (:class:`~repro.obs.RunReport`) of this solver's
        run; ``kwargs`` go to :func:`~repro.obs.report.build_run_report`."""
        from repro.obs.report import build_run_report

        return build_run_report(self, tracer if tracer is not None else current().tracer,
                                **kwargs)

    def __repr__(self) -> str:
        return (
            f"GeneratedSolver(target={self.target_name!r}, "
            f"problem={self.state.problem.name!r})"
        )


class CodegenTarget:
    """Base class for generation targets (template method over the cache)."""

    name = "base"

    def generate(self, problem: "Problem") -> GeneratedSolver:
        """Generate a solver: cache lookup -> (build on miss) -> bind."""
        from repro.tune.cache import get_cache
        from repro.tune.signature import cache_key

        cache = get_cache()
        # a caller that already content-addressed this exact problem for
        # this target (the solver service keys every request before
        # scheduling) can pass the key down and skip re-hashing the
        # problem; always popped so a stale hint never outlives one call
        hint = problem.extra.pop("_cache_key_hint", None)
        if not cache.enabled:
            key = ""
        elif (isinstance(hint, tuple) and len(hint) == 2
                and hint[0] == self.name):
            key = hint[1]
        else:
            key = cache_key(problem, self.name)
        artifact = cache.get(key) if key else None
        info: dict[str, Any] = {"target": self.name, "key": key[:12]}
        if artifact is None:
            build_lock = cache.build_lock(key) if key else None
            if build_lock is not None:
                build_lock.acquire()
            try:
                # single-flight: while we waited for the lock, another thread
                # may have built and published this key — peek (stats-free:
                # our miss is already counted) and reuse instead of rebuilding
                artifact = cache.peek(key) if key else None
                if artifact is not None:
                    cache.record_coalesced(key, artifact)
                    info.update(cache="coalesced",
                                build_seconds=artifact.build_seconds)
                else:
                    metrics = current().metrics
                    t0 = time.perf_counter()
                    with phase_span(f"codegen_build[{self.name}]", cat="codegen"):
                        artifact = self.build_artifact(problem)
                    build_s = time.perf_counter() - t0
                    artifact.key = key or artifact.key
                    artifact.build_seconds = build_s
                    cache.stats.builds += 1
                    metrics.counter(
                        "codegen_build_total", "full artifact builds (cache misses)"
                    ).inc(1, target=self.name)
                    metrics.histogram(
                        "codegen_build_seconds", "wall seconds per artifact build"
                    ).observe(build_s, target=self.name)
                    if key:
                        cache.put(key, artifact)
                    info.update(cache="miss", build_seconds=build_s)
            finally:
                if build_lock is not None:
                    build_lock.release()
        else:
            info.update(cache="hit", build_seconds=artifact.build_seconds)
        elog = current().events
        if elog.enabled:
            elog.emit("codegen.cache", level="info", target=self.name,
                      result=info["cache"], key=info["key"],
                      build_seconds=info.get("build_seconds"))
        solver = self.bind_artifact(problem, artifact)
        solver.generation_info = info
        for foreign in list(solver.namespace.values()):  # compiled while the state was bound
            if isinstance(foreign, ctile.Tile):
                foreign.wait()
        return solver

    # ------------------------------------------------------------ the two halves
    def build_artifact(self, problem: "Problem") -> "GenerationArtifact":
        """The expensive half: lowering + emission + placement + source."""
        raise NotImplementedError

    def bind_artifact(self, problem: "Problem",
                      artifact: "GenerationArtifact") -> GeneratedSolver:
        """The cheap half: fresh state + live environment + solver."""
        raise NotImplementedError

    # ----------------------------------------------------------------- helpers
    def make_artifact(self, problem: "Problem", source: str,
                      **static) -> "GenerationArtifact":
        from repro.tune.cache import GenerationArtifact
        from repro.tune.signature import cache_key

        return GenerationArtifact(
            target_name=self.name,
            source=source,
            key=cache_key(problem, self.name),
            static_env=static.pop("static_env", {}),
            attrs=static.pop("attrs", {}),
        )

    def bind_solver(self, problem: "Problem", artifact: "GenerationArtifact",
                    state, env: dict[str, Any]) -> GeneratedSolver:
        """The tail of every bind: the artifact's static environment under
        the target's live ``env`` and what is live on every target — the
        step callbacks, the function coefficients (callables come from the
        problem's entity table, not the artifact: their code identity is in
        the key), the tracing hook — then the solver over ``state``, the
        compile handed back to the artifact (the cache reuses it) and the
        artifact's attachments copied onto the solver."""
        env = {
            **artifact.static_env, **env,
            "PRE_STEP_CALLBACKS": list(problem.pre_step_callbacks),
            "POST_STEP_CALLBACKS": list(problem.post_step_callbacks),
            "REDUCTIONS": state.reductions,
            "trace_phase": phase_span,
        }
        for name, coef in problem.entities.coefficients.items():
            if coef.is_function:
                env[f"eval_fcoef_{name}"] = coef.at
        tile = artifact.attrs.get("tile")
        if tile is not None:  # the library of this text: built, or building
            lib = ctile.build(tile.text)
            env["TILE"] = ctile.Tile(lib, tile, state.reductions)
            env.update((stage.symbol.upper(), ctile.Tile(lib, stage)) for stage in tile.stages)
            if tile.boundary is not None:
                env["BOUNDARY"] = ctile.Tile(lib, tile.boundary)
        solver = GeneratedSolver(
            self.name, artifact.source, env, state,
            code=artifact.code, module_name=artifact.module_name,
        )
        if artifact.code is None:
            artifact.code = solver.code
        for name, value in artifact.attrs.items():
            setattr(solver, name, value)
        return solver


#: The step's four tasks (paper Sec. II-B) all on the host: the constant
#: plan of a target with no device, decided without a state or optimiser.
HOST_PLAN = dict.fromkeys(
    ("interior_update", "boundary_callbacks", "finish_step", "post_step_callbacks"), "cpu")
#: the phase timer that measures each task of a host plan (``finish_step``
#: and the boundary part run inside the sweep)
HOST_TASK_TIMERS = {"interior_update": "solve", "post_step_callbacks": "post_step"}


class FVTarget(CodegenTarget):
    """A finite-volume target: one program under a placement and a partition.

    The build is every target's: lower the equation, emit its surface and
    volume statements (once: the plan prices them, the interior prints
    them), take the target's :meth:`plan` (where the step's tasks run), emit
    the interior where it put ``interior_update``
    (:func:`~repro.codegen.emit.emit_interior`) and the target's step and
    loop (:meth:`program`), and hand the static environment the target's
    :meth:`tables`.  A target is its plan, its partition, its holes and its
    cost tables.  ``lower_conservation_form``
    and ``build_ir`` are the ones the target's own module imports: a module
    names the pipeline stages its target runs (the benchmark harness wraps
    them there)."""

    #: whether the program is the paper's forward-Euler step alone (every
    #: one but the serial host program, which steps RK schemes too)
    euler_only = True

    def partition(self, problem: "Problem") -> str | None:
        """How an SPMD target splits the work: ``'cells'`` or ``'bands'``."""
        return None

    def plan(self, problem: "Problem", emitter: ExprEmitter, surface: EmittedExpr,
             volume: EmittedExpr) -> dict:
        """The placement and what follows from it, as artifact attributes
        (``placement``, ``transfer_plan``, ...), from the problem and the
        build's statements; ``{}``: :data:`HOST_PLAN`."""
        return {}

    def program(self, problem: "Problem", plan: dict) -> list[str]:
        """Source of the step and the time loop: the serial host step, where
        the sweep stores the forward-Euler update itself or is an RK stage."""
        scheme = tableau(problem.config.stepper)
        solve = ["state.u_proved_finite = compute_rhs(state, state.u, state.time)"]
        if scheme.stages > 1:  # (per stage: its input and time, its sweep, factor and output)
            at = ["u, t", *(f"y, t + {c!r} * dt" for c in scheme.c[1:])]
            solve = ["u, t, dt = state.u, state.time, state.dt",
                     "y = state.buffer('stage', u.shape)",
                     *(f"compute_rhs(state, {at[s]}, STAGE{s + 1}, {a!r} * dt, y)"
                       for s, a in enumerate(scheme.a)),
                     f"state.u_proved_finite = compute_rhs(state, {at[-1]}, TILE, "
                     f"dt / {scheme.div!r}, u)"]
        return ["", "", "def step_once(state):", *indent([
            '"""Advance one explicit step (Eq. 3 of the paper)."""',
            "with state.phase('solve'):",
            *indent(solve),
            *ADVANCE,
        ]), *emit_step_loop(self.source_name)]

    def tables(self, problem: "Problem", plan: dict) -> dict:
        """The target's cost and partition tables (static environment)."""
        return {}

    @property
    def source_name(self) -> str:
        return type(self).__module__.rpartition(".")[2]

    def build_artifact(self, problem: "Problem"):
        if problem.equation is None:
            raise CodegenError("no conservation_form declared")
        scheme = tableau(problem.config.stepper)
        if self.euler_only and scheme.stages > 1:
            raise CodegenError(
                f"the {self.name} target implements the paper's forward-Euler "
                f"scheme; got {problem.config.stepper!r} (use the cpu target "
                "for RK schemes)")
        stages = sys.modules[type(self).__module__]
        expanded, form = stages.lower_conservation_form(
            problem.equation.source, problem.unknown, problem.entities, problem.operators)
        emitter = ExprEmitter(problem, form)
        surface = emitter.emit_sum(form.surface_terms, "surface")
        volume = emitter.emit_sum(form.volume_terms, "volume")
        plan = self.plan(problem, emitter, surface, volume)
        placed = plan["placement"].device if "placement" in plan else HOST_PLAN
        device = placed["interior_update"] == "gpu"
        flavor = "gpu" if device else "distributed" if self.partition(problem) else "cpu"
        ir = stages.build_ir(problem, form, flavor=flavor, transfers=plan.get("transfer_plan"))
        lines = source_header(self.source_name, problem, print_ir(ir))
        if "placement" in plan:
            lines += ["# placement decided by the min-cut optimiser:"]
            lines += ["#   " + ln for ln in plan["placement"].report().splitlines()]
            lines += ["#   " + ln for ln in plan["transfer_plan"].report().splitlines()]
            lines += [""]
        interior, tile = emit_interior(emitter, surface, volume, device, scheme)
        ctile.build(tile.text)  # the compiler starts now; bind waits for it
        lines += interior
        lines += self.program(problem, plan)
        static = {**emitter.component_tables(), "NCOMP": problem.unknown.space.ncomp,
                  "NCELLS": problem.mesh.ncells, **self.tables(problem, plan)}
        if device:  # kernel argument order is fixed by the generated signature
            static["KERNEL_VAR_NAMES"] = [
                f"var_{n}" for n in emitter.referenced_known_variables()]
        return self.make_artifact(
            problem, "\n".join(lines) + "\n", static_env=static,
            attrs={"ir": ir, "classified_form": form, "expanded_expr": expanded,
                   "tile": tile, **plan})

    def bind_host(self, problem: "Problem", artifact, state) -> GeneratedSolver:
        """Bind a host-placed program over ``state``."""
        solver = self.bind_solver(problem, artifact, state, {})
        solver.task_timer_map = HOST_TASK_TIMERS
        return solver


def source_header(target: str, problem: "Problem", ir_text: str) -> list[str]:
    """Standard header: provenance comment + the IR as a comment block.

    ``dt``/``nsteps`` are deliberately *not* printed: they are runtime
    state (``state.dt`` / ``state.nsteps``), and embedding them would make
    otherwise-identical generations cache-distinct.
    """
    lines = [
        f'"""Generated by repro.codegen.{target} for problem {problem.name!r}.',
        "",
        f"equation: {problem.equation.source if problem.equation else '?'}",
        f"stepper:  {problem.config.stepper} "
        "(dt/nsteps bound at runtime via state)",
        "",
        "IR:",
    ]
    lines += ["    " + ln for ln in ir_text.splitlines()]
    lines += ['"""', ""]
    return lines


def indent(lines, level: int = 1) -> list[str]:
    pad = "    " * level
    return [pad + ln if ln else ln for ln in lines]


#: How every step hole ends: the counters advance with the step, before the
#: post-step callbacks, so a callback sees the step it follows on any target.
ADVANCE = ["state.time += state.dt", "state.step_index += 1"]


def emit_step_loop(target: str, *, spmd: bool = False, doc=(), prologue=(),
                   before_step=(), step=("step_once(state)",), charge=(), result=(),
                   after_run=()) -> list[str]:
    """Source of the time loop of every target: ``run_steps(state, nsteps)``
    in-process or, with ``spmd``, one rank's ``rank_program(comm)`` and the
    driver that launches the ranks as ``run_steps``.

    One body in one order (paper Sec. II-B: pre-step hooks, the step,
    post-step hooks, sequentially); a target supplies the holes, as lines:
    ``before_step`` (what a rank exchanges), ``step`` (advances the unknown,
    fills the declared reductions and, ending in :data:`ADVANCE`, advances
    the counters), ``charge`` (virtual-clock lines) — and around the loop
    ``prologue``, a rank's ``doc`` and the ``result`` entries it returns, and
    ``after_run``, what the driver keeps of them.  A post-step callback is
    handed what it declared (``state.post_step_args``).  The emitted loop
    has no branch on its target.
    """
    loop = [
        "for _ in range(nsteps):",
        "    for cb in PRE_STEP_CALLBACKS:",
        "        with state.phase('pre_step'):",
        "            cb.fn(state)",
        *indent([*before_step, *step]),
    ]
    loop += [
        "    # a callback that declared its reduction is handed it; any other",
        "    # reads what it likes (state.u takes the unknown back to the host)",
        "    for cb, args in zip(POST_STEP_CALLBACKS, state.post_step_args):",
        "        with state.phase('post_step'):",
        "            cb.fn(state, *args)",
        *indent(charge),
        "    state.end_step()",
    ]
    if not spmd:
        return ["", "", "def run_steps(state, nsteps):", *indent([
            '"""The sequential time loop (paper: "the time step loop is always',
            'done sequentially").  Hooks run on the CPU around each step."""',
            *prologue,
            f"state.log_run_event('run.start', target={target!r}, nsteps=nsteps)",
            *loop,
            "state.check_health()",
            f"state.log_run_event('run.end', target={target!r})",
            "return state",
        ])]
    rank = [
        *doc,
        "state = make_rank_state(comm.rank)",
        "state.comm = comm",
        "nsteps = RUN_NSTEPS[0]",
        *prologue,
        *loop,
        "T = state.extra.get('T')",
        "return {",
        *indent(result),
        "    'timers': state.timers,",
        "}",
    ]
    driver = [
        '"""Launch one rank program per partition and merge the results.',
        "",
        "With the elastic runtime bound (``--rebalance``), the runner wraps",
        "``run_spmd`` in its recover/rebalance retry loop; the merge then reads",
        "the *final* partition through the shared layout boxes.",
        '"""',
        "RUN_NSTEPS[0] = nsteps",
        f"state.log_run_event('run.start', target={target!r},",
        "                    nsteps=nsteps, nranks=NPARTS)",
        "if ELASTIC is None:",
        "    result = run_spmd(NPARTS, rank_program, NETWORK,",
        "                      heartbeat_s=HEARTBEAT_S)",
        "else:",
        "    result = ELASTIC.run(rank_program, nsteps, RUN_NSTEPS)",
        "merge_results(state, result, nsteps)",
        "state.spmd_result = result",
        *after_run,
        "state.check_health()",
        f"state.log_run_event('run.end', target={target!r},",
        "                    makespan_s=result.makespan)",
        "return state",
    ]
    return [
        "", "", "def rank_program(comm):", *indent(rank),
        "", "", "def step_once(state):",
        '    """Single-step SPMD run (mostly for tests; prefer run_steps)."""',
        "    run_steps(state, 1)",
        "", "", "def run_steps(state, nsteps):", *indent(driver),
    ]


__all__ = [
    "ADVANCE",
    "CodegenTarget",
    "FVTarget",
    "GeneratedSolver",
    "HOST_PLAN",
    "emit_step_loop",
    "indent",
    "source_header",
]
