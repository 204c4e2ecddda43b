"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Package inventory, the paper configuration's counts, model constants.
``figures [--out DIR]``
    Regenerate the scaling/profile artefacts of the paper's evaluation
    (Figs. 4, 5, 7, 8, 9 and the profiling table) from the cost models and
    write one text file per artefact.  The field figures (2, 10) need real
    transient runs; regenerate those with ``pytest benchmarks/ -s``.
``bte [--nx N] [--steps N] [--gpu] [--ranks N] [--trace F] [--report F]``
    Run a reduced hot-spot BTE transient and print the temperature summary
    (a fast version of ``examples/bte_hotspot.py``).  ``--trace`` writes a
    Chrome-trace/Perfetto timeline of the run, ``--report`` the aggregated
    :class:`~repro.obs.RunReport` JSON.  ``--faults SPEC`` injects seeded
    faults (message drop/delay/dup, rank stalls, device OOM/kernel faults)
    that the resilient runtime recovers from; ``--checkpoint-every N`` /
    ``--restore FILE`` write and resume ``repro.checkpoint/1`` snapshots.
``analyze FILE [FILE] [--json F] [--dot F]``
    Analyze a trace and/or run-report JSON from ``bte --trace/--report``:
    critical-path phase breakdown, kernel/boundary and compute/comm
    overlap-efficiency scores, and the placement-explainability table.
    Files are told apart by their schema, so order does not matter.
``profile [--gpu] [--ranks N] [--out F] [--record]``
    Run the hot-spot transient and print per-kernel/per-phase self time,
    roofline attribution and the perfmodel-drift column of the
    ``repro.profile/1`` document (phase rows from the solver's phase
    timers, kernel rows from the device's launch records); ``--record``
    appends the run to the registry.
``compare A B [--top N] [--json F]``
    Diff two profiled runs (profile JSON, run report, or registry entry):
    per-(rank, kind, kernel) self-time delta, the regression culprit
    ranked first.
``history [--key PREFIX] [--gc] [--keep N] [--max-age-days D]``
    Per-problem-signature timeline of registry-recorded runs, with
    regression/drift flags; ``--gc`` prunes old entries.
``bench [--out F] [--compare BASELINE] [--threshold X]``
    Run the small deterministic benchmark suite, write a ``repro.bench/1``
    envelope, and optionally gate against a baseline envelope (exit 1 on
    any relative slowdown above the threshold).
``lint SCRIPT [SCRIPT...] [--json F] [--no-deep] [--codes]``
    Statically verify DSL scripts without running them: undefined symbols,
    index/shape consistency, boundary coverage, placement/transfer hazards
    and SPMD schedule deadlocks, each reported with a stable ``RPR###``
    code (exit 1 on any error-severity finding).  ``--codes`` prints the
    full diagnostic catalogue.
``events FILE [--tail N] [--level L] [--name SUBSTR] [--rank R] [--json]``
    Tail, filter and pretty-print a ``repro.events/1`` JSONL stream written
    by ``bte --events FILE``: one line per event with its timestamp, level,
    rank/step provenance and span-correlation IDs.
``serve [--demo] [--workers N] [--port P] [--for-seconds S]``
    Run the multi-tenant solver service: requests keyed by the
    ``repro.cache/1`` signature coalesce onto one job, compiled artifacts
    are shared across tenants, and a batched priority scheduler places
    jobs onto simulated GPU workers under per-tenant quotas with bounded
    queues (typed ``RPR900``/``RPR901`` rejections).  ``--port`` exposes
    ``/metrics``, ``/status`` (the ``repro.serve/1`` document) and
    ``/healthz``; ``--demo`` drives N concurrent tenants with
    mixed-priority duplicate problems and prints the dedup/warm-hit
    rates; plain ``serve --for-seconds S`` just runs the service.

``bte``, ``profile``, ``bench`` and ``serve`` accept ``--cache-dir DIR``
(persist the compilation cache across processes; also
``$REPRO_CACHE_DIR``) and ``--no-cache`` (disable it).

``bte --sanitize`` additionally runs the transient under the runtime
sanitizer (NaN/Inf guards, halo checksums, drift/CFL heuristics); findings
land in the report's ``diagnostics`` section.  Library errors print as
one-line ``error RPR###: ...`` diagnostics; pass ``-v`` for the traceback.

The installed ``bte`` entry point is an alias: ``bte analyze ...`` is
``repro analyze ...`` and ``bte --gpu ...`` is ``repro bte --gpu ...``.

``bte --events FILE`` streams the structured event log to JSONL, the
crash-tolerant record of a failed run (one line per event, flushed as
it happens).

``-v/--verbose`` (repeatable) raises the package log level (INFO, DEBUG);
``--log-level`` sets the structured event log's threshold (``debug``
records per-message comm events); ``-q/--quiet`` silences progress notes
(data output and errors still print).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from repro.util.context import current
from repro.util.errors import ReproError

#: Set by ``-q/--quiet``: progress notes go to the event log only.
_QUIET = False


def _say(msg: str) -> None:
    """Progress note: mirrored into the structured event log, then stdout."""
    current().events.emit("cli.note", "info", message=msg)
    if not _QUIET:
        print(msg)


def _warn(msg: str) -> None:
    """Warning/error line: event log + stderr (never silenced by ``-q``)."""
    current().events.emit("cli.warning", "warning", message=msg)
    print(msg, file=sys.stderr)


def cmd_info(args: argparse.Namespace) -> int:
    import repro
    from repro.bte.dispersion import silicon_bands
    from repro.perfmodel.costs import BTEWorkload

    bands = silicon_bands(40)
    w = BTEWorkload.paper_configuration()
    print(f"repro {repro.__version__} — IPDPS 2024 phonon-BTE DSL reproduction")
    print()
    print("paper configuration (Sec. III-A):")
    print(f"  mesh cells          : {w.ncells:,} (120 x 120)")
    print(f"  directions          : {w.ndirs}")
    print(f"  polarised bands     : {bands.nbands} "
          f"({bands.n_la} LA + {bands.n_ta} TA from {bands.n_freq_bands} "
          "frequency bands)")
    print(f"  intensity DOF       : {w.ndof:,}")
    print()
    print("packages: symbolic, ir, dsl, codegen(+placement), mesh, fvm, gpu,")
    print("          runtime, bte, perfmodel  — see DESIGN.md")
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    from repro.gpu.kernel import Kernel, model_launch
    from repro.gpu.profiler import Profiler
    from repro.gpu.spec import A6000
    from repro.perfmodel import strong_scaling_table
    from repro.perfmodel.scaling import (
        DEFAULT_KERNEL_BYTES_PER_THREAD,
        DEFAULT_KERNEL_FLOPS_PER_THREAD,
        PHASE_COMMUNICATION,
        PHASE_INTENSITY,
        PHASE_TEMPERATURE,
    )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def emit(name: str, text: str) -> None:
        path = out / f"{name}.txt"
        path.write_text(text + "\n")
        written.append(path)
        print(f"--- {name} " + "-" * max(0, 60 - len(name)))
        print(text)
        print()

    tab = strong_scaling_table()

    # FIG4 / FIG9: total-time series
    procs = sorted({p for st in tab.values() for p in st.procs})
    header = f"{'procs':>6}" + "".join(f"{k:>12}" for k in tab)
    lines = [header]
    for p in procs:
        row = f"{p:>6}"
        for st in tab.values():
            row += (
                f"{st.total[st.procs.index(p)]:>11.1f}s" if p in st.procs else f"{'-':>12}"
            )
        lines.append(row)
    emit("fig9_all_strategies", "\n".join(lines))

    # FIG5 / FIG8: breakdowns
    for name, key in (("fig5_band_breakdown", "bands"), ("fig8_gpu_breakdown", "GPU")):
        st = tab[key]
        lines = [f"{'p':>4} {'intensity%':>11} {'temperature%':>13} {'comm%':>8}"]
        for p in st.procs:
            fr = st.breakdown_fractions(p)
            lines.append(
                f"{p:>4} {fr[PHASE_INTENSITY] * 100:>10.1f} "
                f"{fr[PHASE_TEMPERATURE] * 100:>12.1f} "
                f"{fr[PHASE_COMMUNICATION] * 100:>7.2f}"
            )
        emit(name, "\n".join(lines))

    # FIG7: CPU vs GPU speedup
    b, g = tab["bands"], tab["GPU"]
    lines = [f"{'p':>4} {'CPU[s]':>10} {'GPU[s]':>10} {'speedup':>9}"]
    for p in g.procs:
        if p in b.procs:
            tc = b.total[b.procs.index(p)]
            tg = g.total[g.procs.index(p)]
            lines.append(f"{p:>4} {tc:>10.1f} {tg:>10.1f} {tc / tg:>8.1f}x")
    emit("fig7_gpu_speedup", "\n".join(lines))

    # TAB1: device profile
    prof = Profiler(A6000)
    kernel = Kernel(
        "I_interior_step", lambda: None,
        flops_per_thread=DEFAULT_KERNEL_FLOPS_PER_THREAD,
        bytes_per_thread=DEFAULT_KERNEL_BYTES_PER_THREAD,
    )
    prof.record_launch(model_launch(A6000, kernel, 15_840_000))
    emit(
        "tab1_gpu_profile",
        prof.report().table() + "\npaper: SM 86% | memory 11% | FLOP 49% of peak",
    )

    _say(f"wrote {len(written)} artefact(s) to {out}/")
    return 0


def cmd_pipeline(args: argparse.Namespace) -> int:
    """Show the Sec. II symbolic pipeline for an equation string."""
    from repro.obs import phase_span, trace_run

    if args.trace:
        with trace_run(args.trace):
            rc = _run_pipeline(args, phase_span)
        _say(f"wrote trace to {args.trace}")
        return rc
    return _run_pipeline(args, phase_span)


def _run_pipeline(args: argparse.Namespace, phase_span) -> int:
    from repro.dsl.entities import CELL, VAR_ARRAY, Coefficient, EntityTable, Index, Variable
    from repro.ir.lowering import lower_conservation_form, render_stage_listing
    from repro.symbolic.expr import free_indices, free_symbols, Indexed, Sym, preorder
    from repro.symbolic.operators import default_registry
    from repro.symbolic.parser import parse

    source = args.equation
    unknown_name = args.unknown
    with phase_span("parse", cat="pipeline"):
        parsed = parse(source)

    # infer a plausible entity table from the expression: the unknown as
    # declared, every other bare symbol a scalar coefficient, every indexed
    # base a variable/coefficient over the indices it uses
    ents = EntityTable()
    index_sizes: dict[str, Index] = {}
    for name in sorted(free_indices(parsed)):
        index_sizes[name] = ents.add_index(Index(name, 1, 4))
    indexed_bases: dict[str, tuple[str, ...]] = {}
    for node in preorder(parsed):
        if isinstance(node, Indexed):
            indexed_bases.setdefault(
                node.base, tuple(i for i in node.indices if isinstance(i, str))
            )
    reg = default_registry()
    if unknown_name in indexed_bases:
        unknown = ents.add_variable(Variable(
            unknown_name, VAR_ARRAY, CELL,
            tuple(index_sizes[i] for i in indexed_bases.pop(unknown_name)),
        ))
    else:
        unknown = ents.add_variable(Variable(unknown_name))
    for base, idxs in indexed_bases.items():
        ents.add_variable(Variable(
            base, VAR_ARRAY, CELL, tuple(index_sizes[i] for i in idxs)
        ))
    skip = set(reg.names()) | set(index_sizes) | {unknown_name} | set(indexed_bases)
    skip |= {"dt", "normal", "t", "x", "y", "z"}
    for name in sorted(free_symbols(parsed)):
        if name not in skip:
            ents.add_coefficient(Coefficient(name, 1.0))

    with phase_span("lower", cat="pipeline"):
        expanded, form = lower_conservation_form(source, unknown, ents, reg)
    print(f"input:    conservationForm({unknown_name}, \"{source}\")")
    print()
    print(render_stage_listing(expanded, form, unknown))
    return 0


def cmd_latex(args: argparse.Namespace) -> int:
    """Render an equation string (and optionally its expanded form) as LaTeX."""
    from repro.symbolic.latex import to_latex
    from repro.symbolic.parser import parse

    print(to_latex(parse(args.equation)))
    return 0


def _apply_cache_flags(args: argparse.Namespace) -> None:
    """Honour ``--cache-dir`` / ``--no-cache`` on the process-wide cache."""
    from repro.tune import configure_cache

    if getattr(args, "no_cache", False):
        configure_cache(enabled=False)
    elif getattr(args, "cache_dir", None):
        configure_cache(cache_dir=args.cache_dir)


def _hotspot_problem(args: argparse.Namespace, verb: str):
    """The reduced hot-spot problem ``bte`` and ``profile`` run, from the
    size flags, ``--gpu`` and ``--ranks`` (band partitioning)."""
    from repro.bte import build_bte_problem, hotspot_scenario

    scenario = hotspot_scenario(
        nx=args.nx, ny=args.nx, ndirs=args.ndirs,
        n_freq_bands=args.bands, dt=args.dt, nsteps=args.steps,
    )
    scenario.sigma = max(scenario.sigma, 2.5 * scenario.lx / args.nx)
    problem, model = build_bte_problem(scenario)
    if args.gpu:
        problem.enable_gpu()
        # small CLI problems fall below the offload break-even point of the
        # placement optimiser; force them onto the device so the timeline
        # actually shows kernel/transfer tracks
        problem.extra["gpu_force_offload"] = True
    if args.ranks > 1:
        problem.set_partitioning("bands", args.ranks, index="b")
    mode = "gpu" if args.gpu else "cpu"
    _say(f"{verb} {scenario.name}: {args.nx}x{args.nx} cells, "
         f"{model.ncomp} components/cell, {args.steps} steps "
         f"[{mode}, {args.ranks} rank(s)] ...")
    return problem


def _record_run(args: argparse.Namespace, solver, report_doc: dict,
                profile_doc: dict, wall_s: float) -> None:
    """Append one run (report + profile) to the run registry."""
    from repro.obs import configure_registry, get_registry

    if args.runs_dir:
        configure_registry(args.runs_dir)
    key = profile_doc["meta"]["problem_key"]
    path = get_registry().append(
        key, report=report_doc, profile=profile_doc,
        meta={"wall_s": wall_s, "target": solver.target_name,
              "nsteps": solver.state.step_index},
    )
    _say(f"recorded run entry {path} (timeline: `bte history "
         f"--key {key[:12]}`)")


def cmd_bte(args: argparse.Namespace) -> int:
    import time
    from contextlib import nullcontext

    from repro.obs import metrics_run, trace_run
    from repro.runtime.faults import fault_run, parse_fault_spec
    from repro.util.errors import FaultSpecError
    from repro.verify.sanitizer import sanitize_run

    _apply_cache_flags(args)
    problem = _hotspot_problem(args, "running")
    if args.checkpoint_every:
        problem.extra["checkpoint_every"] = args.checkpoint_every
        problem.extra["checkpoint_dir"] = args.checkpoint_dir
    if args.rebalance:
        problem.extra["rebalance"] = True
        problem.extra["imbalance_threshold"] = args.imbalance_threshold
    if args.heartbeat_s:
        problem.extra["heartbeat_s"] = args.heartbeat_s
    if args.restore:
        problem.extra["restore_from"] = args.restore
    if args.faults:
        try:  # parse eagerly: a typo'd spec should fail before the solve
            parse_fault_spec(args.faults)
        except FaultSpecError as exc:
            _warn(f"error: bad --faults spec: {exc}")
            return 2
        _say(f"fault injection on: {args.faults!r} (seed {args.fault_seed})")

    if args.sanitize:
        _say("runtime sanitizer on (NaN/Inf guards, halo checksums, "
             "drift/CFL heuristics)")

    from repro.obs.log import events_run

    report = None
    events_ctx = (
        events_run(args.events, level=getattr(args, "log_level", None) or "info")
        if args.events else nullcontext()
    )
    san_ctx = sanitize_run() if args.sanitize else nullcontext()
    tracing = bool(args.trace or args.report or args.metrics)
    t0 = time.perf_counter()
    with (events_ctx, san_ctx as sanitizer,
          fault_run(args.faults, seed=args.fault_seed),
          metrics_run(args.metrics) if tracing else nullcontext(),
          trace_run(args.trace) if tracing else nullcontext() as tracer):
        solver = problem.solve()
        wall_s = time.perf_counter() - t0
        # the report and the summaries read this run's context: build them
        # inside its scopes
        if args.report or args.record:
            report = solver.run_report(tracer)
        summaries = []
        rlog = current().resilience
        if rlog.has_events():
            summaries.append(f"resilience: {rlog.summary()}")
        elastic = solver.namespace.get("ELASTIC")
        if elastic is not None and elastic.log.has_events():
            summaries.append(f"rebalance: {elastic.log.summary()}")
        if sanitizer is not None:
            summaries.append(f"sanitizer: {sanitizer.summary()}")
    for line in summaries:
        _say(line)

    info = getattr(solver, "generation_info", None)
    if info and args.verbose:
        _say(f"codegen cache: {info.get('cache')} (key {info.get('key')})")

    T = solver.state.extra["T"]
    # state.time, not steps*dt: a --restore run resumes mid-trajectory
    print(f"T in [{T.min():.4f}, {T.max():.4f}] K after "
          f"{solver.state.time * 1e9:.3f} ns")
    for phase, frac in sorted(solver.breakdown().items()):
        print(f"  {phase:<12} {frac * 100:5.1f}%")
    if args.trace:
        _say(f"wrote trace to {args.trace} (open in https://ui.perfetto.dev)")
    if report is not None and args.report:
        report.write(args.report)
        _say(f"wrote run report to {args.report}")
    if args.profile or args.record:
        from repro.obs.profile import build_profile, write_profile

        profile_doc = (report.profile if report is not None
                       else build_profile(solver))
        if args.profile:
            write_profile(profile_doc, args.profile)
            _say(f"wrote profile to {args.profile} (inspect with "
                 f"`bte compare`)")
        if args.record:
            _record_run(args, solver, report.to_dict(), profile_doc, wall_s)
    if args.metrics:
        _say(f"wrote metrics exposition to {args.metrics}")
    if args.events:
        _say(f"wrote event log to {args.events} (pretty-print with "
             f"`python -m repro events {args.events}`)")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    import json

    from repro.obs.analyze import analyze

    trace_path = report_path = None
    for path in args.files:
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            _warn(f"error: cannot read {path}: {exc}")
            return 2
        schema = doc.get("schema", "") if isinstance(doc, dict) else ""
        if isinstance(schema, str) and schema.startswith("repro.run_report/"):
            report_path = path
        else:
            trace_path = path
    if trace_path is None and report_path is None:
        _warn("error: no usable trace or report file")
        return 2

    analysis = analyze(trace_path, report_path)
    print(analysis.render_text(), end="")
    if args.json:
        Path(args.json).write_text(
            json.dumps(analysis.to_dict(), indent=1) + "\n"
        )
        _say(f"wrote analysis JSON to {args.json}")
    if args.dot:
        if not analysis.placement:
            _warn("error: --dot needs a report with a placement section "
                  "(run with --gpu --report)")
            return 2
        from repro.ir.dot import placement_to_dot

        name = analysis.meta.get("problem", "placement")
        Path(args.dot).write_text(placement_to_dot(analysis.placement, name) + "\n")
        _say(f"wrote placement task-graph DOT to {args.dot} "
             "(render with: dot -Tsvg)")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    import time

    from repro.obs.profile import build_profile, profile_table, write_profile

    _apply_cache_flags(args)
    problem = _hotspot_problem(args, "profiling")
    t0 = time.perf_counter()
    solver = problem.solve()
    wall_s = time.perf_counter() - t0
    doc = build_profile(solver, tolerance=args.tolerance)
    print(profile_table(doc, top=args.top))
    if args.out:
        write_profile(doc, args.out)
        _say(f"wrote profile to {args.out}")
    if args.record:
        _record_run(args, solver, solver.run_report().to_dict(), doc, wall_s)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    import json

    from repro.obs.profile import (
        compare_profiles,
        compare_table,
        extract_profile,
    )

    docs = []
    for path in (args.a, args.b):
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            _warn(f"error: cannot read {path}: {exc}")
            return 2
        docs.append(extract_profile(raw))
    cmp = compare_profiles(docs[0], docs[1])
    if not cmp["meta"]["same_problem"]:
        _warn("warning: the two runs have different problem keys — "
              "deltas compare different workloads")
    print(compare_table(cmp, top=args.top))
    if args.json:
        Path(args.json).write_text(json.dumps(cmp, indent=1) + "\n")
        _say(f"wrote comparison JSON to {args.json}")
    return 0


def cmd_history(args: argparse.Namespace) -> int:
    from repro.obs.registry import configure_registry, get_registry, history_flags

    if args.runs_dir:
        configure_registry(args.runs_dir)
    registry = get_registry()
    if args.gc:
        removed = registry.gc(keep_last=args.keep,
                              max_age_days=args.max_age_days)
        _say(f"pruned {removed} entr{'y' if removed == 1 else 'ies'} "
             f"from {registry.root}")
    keys = registry.keys()
    if args.key:
        keys = [k for k in keys if k.startswith(args.key)]
        if not keys:
            _warn(f"error: no runs recorded under key prefix "
                  f"{args.key!r} in {registry.root}")
            return 2
    if not keys:
        _say(f"no runs recorded in {registry.root} (record some with "
             "`bte profile --record` or `bte --record`)")
        return 0
    for key in keys:
        entries = registry.load_runs(key)
        flags = history_flags(entries)
        label = next(
            (e.get("profile", {}).get("meta", {}).get("problem")
             for e in entries
             if e.get("profile", {}).get("meta", {}).get("problem")),
            "?",
        )
        print(f"{key}  ({label}, {len(entries)} run(s))")
        for entry, entry_flags in zip(entries, flags):
            m = entry.get("meta", {})
            wall = m.get("wall_s")
            wall_str = "-" if wall is None else f"{wall:.3f} s"
            dmax = entry.get("profile", {}).get("drift", {}).get("max_abs")
            dstr = "-" if dmax is None else f"{dmax:.2f}"
            line = (f"  run-{entry.get('seq', 0):06d}  "
                    f"{entry.get('recorded_at', '?'):<19}  "
                    f"target={m.get('target', '?'):<16} "
                    f"wall={wall_str:<11} drift={dstr}")
            if entry_flags:
                line += "  [" + ",".join(entry_flags) + "]"
            print(line)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    import time

    from repro.obs.regress import compare, load_bench, run_benchmarks, write_bench
    from repro.util.errors import BenchFormatError

    baseline = None
    if args.compare:  # a malformed baseline fails before the suite runs
        try:
            baseline = load_bench(args.compare)
        except BenchFormatError as exc:
            _warn(_render_error(exc))
            return 2
    _apply_cache_flags(args)
    _say(f"running benchmark suite ({args.nx}x{args.nx} cells, "
         f"{args.steps} steps per target) ...")
    timings = run_benchmarks(nx=args.nx, nsteps=args.steps)
    for name in sorted(timings):
        print(f"  {name:<28} {timings[name]:.6f} s")

    date = time.strftime("%Y-%m-%d")
    out = args.out or f"BENCH_{date}.json"
    write_bench(out, name=f"bte-suite@{date}", timings=timings,
                date=date, nx=args.nx, steps=args.steps)
    _say(f"wrote benchmark envelope to {out}")

    if baseline is not None:
        report = compare(
            baseline, {"name": f"bte-suite@{date}", "timings": timings},
            threshold=args.threshold,
        )
        print()
        print(report.render_text(), end="")
        return 1 if report.has_regressions else 0
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    import json

    from repro.verify import lint_paths, render_catalogue

    if args.codes:
        print(render_catalogue())
        return 0
    if not args.scripts:
        _warn("error: no scripts to lint (pass paths, or --codes for the "
              "diagnostic catalogue)")
        return 2
    missing = [p for p in args.scripts if not Path(p).is_file()]
    if missing:
        for p in missing:
            _warn(f"error: no such script: {p}")
        return 2
    results = lint_paths(args.scripts, deep=not args.no_deep)
    for res in results:
        print(res.render_text())
    if args.json:
        doc = {
            "schema": "repro.lint/1",
            "scripts": [
                {"path": r.path, "ok": r.ok,
                 "problems_checked": r.problems_checked,
                 "note": r.note, **r.report.to_dict()}
                for r in results
            ],
        }
        Path(args.json).write_text(json.dumps(doc, indent=1) + "\n")
        _say(f"wrote lint report to {args.json}")
    bad = sum(not r.ok for r in results)
    if bad:
        _warn(f"{bad} of {len(results)} script(s) failed lint")
        return 1
    return 0


def cmd_events(args: argparse.Namespace) -> int:
    import json
    import time

    from repro.obs.log import LEVELS, read_events

    try:
        events = read_events(args.file)
    except (OSError, ValueError) as exc:
        _warn(f"error: {exc}")
        return 2
    total = len(events)
    if args.level:
        floor = LEVELS[args.level]
        events = [e for e in events
                  if LEVELS.get(e.get("level", "info"), 20) >= floor]
    if args.name:
        events = [e for e in events if args.name in str(e.get("name", ""))]
    if args.rank is not None:
        events = [e for e in events if e.get("rank") == args.rank]
    if args.tail:
        events = events[-args.tail:]

    if args.json:
        for e in events:
            print(json.dumps(e))
    else:
        for e in events:
            ts = time.strftime("%H:%M:%S", time.localtime(e.get("ts", 0)))
            line = f"{ts} {e.get('level', 'info'):<7} {e.get('name', '?'):<24}"
            where = " ".join(
                f"{k}={e[k]}" for k in ("rank", "step") if e.get(k) is not None
            )
            if where:
                line += f" [{where}]"
            if e.get("span_id"):
                line += f" span={e['span_id']}"
                if e.get("parent_id"):
                    line += f"<-{e['parent_id']}"
            fields = e.get("fields") or {}
            if fields:
                line += "  " + " ".join(f"{k}={v}" for k, v in fields.items())
            print(line)
    if not _QUIET and len(events) != total:
        print(f"({len(events)} of {total} event(s) after filters)",
              file=sys.stderr)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import time
    from contextlib import nullcontext

    from repro.serve import ServiceConfig, serve_session

    _apply_cache_flags(args)
    config = ServiceConfig(
        workers=args.workers,
        queue_max=args.queue_max,
        batch_max=args.batch_max,
        max_inflight=args.max_inflight,
        max_running=args.max_running,
        preemption=not args.no_preemption,
        checkpoint_every=args.checkpoint_every,
        port=args.port,
    )
    if args.events:
        from repro.obs.log import events_run

        events_ctx = events_run(
            args.events, level=getattr(args, "log_level", None) or "info")
    else:
        events_ctx = nullcontext()
    with events_ctx:
        with serve_session(config) as service:
            if service.http_port is not None:
                _say(f"serving http://{config.host}:{service.http_port} "
                     "(/metrics /status /healthz)")
            if args.demo:
                _run_serve_demo(service, tenants=args.tenants,
                                requests=args.requests, nx=args.nx,
                                steps=args.steps)
            elif args.for_seconds > 0:
                _say(f"service up for {args.for_seconds:.0f}s "
                     f"({config.workers} worker(s)); Ctrl-C to stop early")
                try:
                    time.sleep(args.for_seconds)
                except KeyboardInterrupt:
                    _say("interrupted; shutting down")
            doc = service.status_doc()
            counters = doc["counters"]
            _say(f"served {counters['requests']} request(s): "
                 f"{counters['completed']} completed, "
                 f"{counters['failed']} failed, "
                 f"{counters['rejected']} rejected")
            if args.status_json:
                import json

                Path(args.status_json).write_text(json.dumps(doc, indent=1))
                _say(f"status document written to {args.status_json}")
    return 0


def _run_serve_demo(service, *, tenants: int, requests: int,
                    nx: int, steps: int) -> None:
    """N concurrent tenants submitting mixed-priority duplicate problems."""
    from repro.bte import build_bte_problem, hotspot_scenario

    def make_problem(nx_i: int, nsteps_i: int):
        scenario = hotspot_scenario(nx=nx_i, ny=nx_i, ndirs=4,
                                    n_freq_bands=4, dt=1e-12, nsteps=nsteps_i)
        problem, _ = build_bte_problem(scenario)
        return problem

    # three request shapes over ONE mesh size: two share a compiled
    # artifact (same signature, different nsteps binding), so the demo
    # shows both job-level dedup and cross-tenant artifact sharing
    shapes = [(nx, steps), (nx, steps), (nx, steps + 2)]
    priorities = ["normal", "high", "batch"]
    total = tenants * requests
    _say(f"demo: {total} request(s) from {tenants} tenant(s), "
         f"{len(set(shapes))} distinct problem(s), mixed priorities ...")
    client = service.client
    client.hold()  # line the burst up so coalescing is deterministic
    tickets = []
    for t in range(tenants):
        for r in range(requests):
            shape = shapes[r % len(shapes)]
            tickets.append(client.submit(
                make_problem(*shape), tenant=f"tenant{t}",
                priority=priorities[(t + r) % len(priorities)]))
    client.release()
    for ticket in tickets:
        ticket.result(300)
    doc = service.status_doc()
    counters, cache = doc["counters"], doc["cache"]
    served_without_solve = counters["deduped"] + counters["results_reused"]
    dedup_rate = served_without_solve / max(1, counters["requests"])
    lookups = cache["memory_hits"] + cache["disk_hits"] + cache["misses"]
    warm_rate = (cache["memory_hits"] + cache["disk_hits"]) / max(1, lookups)
    _say(f"jobs solved: {counters['completed']} for {counters['requests']} "
         f"requests (in-flight dedup: {counters['deduped']}, "
         f"result reuse: {counters['results_reused']})")
    _say(f"dedup rate: {100 * dedup_rate:.1f}%  "
         f"artifact builds: {cache['builds']}  "
         f"warm-hit rate: {100 * warm_rate:.1f}%")
    roots = {name: state["hashtree"]["root"]
             for name, state in doc["tenants"].items()}
    _say("tenant hashtree roots: "
         + " ".join(f"{name}={root}" for name, root in sorted(roots.items())))


def main(argv: list[str] | None = None) -> int:
    # -v works both before and after the subcommand; the subparser copy
    # SUPPRESSes its default so it cannot clobber a value the top-level
    # parser already counted
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "-v", "--verbose", action="count", default=argparse.SUPPRESS,
        help="raise the package log level (-v INFO, -vv DEBUG)",
    )
    common.add_argument(
        "-q", "--quiet", action="store_true", default=argparse.SUPPRESS,
        help="suppress progress notes (data output and errors still print)",
    )
    common.add_argument(
        "--log-level", choices=("debug", "info", "warning", "error"),
        default=argparse.SUPPRESS, metavar="LEVEL",
        help="structured event-log threshold (default info; 'debug' records "
             "per-message comm events)",
    )
    parser = argparse.ArgumentParser(
        prog="python -m repro", description=__doc__
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="raise the package log level (-v INFO, -vv DEBUG)",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true", default=False,
        help="suppress progress notes (data output and errors still print)",
    )
    parser.add_argument(
        "--log-level", choices=("debug", "info", "warning", "error"),
        default=None, metavar="LEVEL",
        help="structured event-log threshold (default info; 'debug' records "
             "per-message comm events)",
    )
    sub = parser.add_subparsers(dest="command")

    # compilation-cache flags shared by the commands that generate solvers
    cache = argparse.ArgumentParser(add_help=False)
    cache.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="persist the compilation cache under DIR "
                            "(also $REPRO_CACHE_DIR)")
    cache.add_argument("--no-cache", action="store_true",
                       help="disable the compilation cache for this run")

    sub.add_parser("info", help="package and configuration summary",
                   parents=[common])

    p_fig = sub.add_parser("figures", help="regenerate the scaling artefacts",
                           parents=[common])
    p_fig.add_argument("--out", default="figures_out", help="output directory")

    p_pipe = sub.add_parser(
        "pipeline", help="show the Sec. II symbolic pipeline for an equation",
        parents=[common],
    )
    p_pipe.add_argument("equation", help='e.g. "-k*u - surface(upwind(b, u))"')
    p_pipe.add_argument("--unknown", default="u", help="unknown variable name")
    p_pipe.add_argument("--trace", default=None, metavar="FILE",
                        help="write a Chrome-trace JSON of the pipeline stages")

    p_tex = sub.add_parser("latex", help="render an equation string as LaTeX",
                           parents=[common])
    p_tex.add_argument("equation")

    p_bte = sub.add_parser("bte", help="run a reduced hot-spot BTE transient",
                           parents=[common, cache])
    p_bte.add_argument("--nx", type=int, default=24)
    p_bte.add_argument("--ndirs", type=int, default=8)
    p_bte.add_argument("--bands", type=int, default=8)
    p_bte.add_argument("--dt", type=float, default=1e-12)
    p_bte.add_argument("--steps", type=int, default=50)
    p_bte.add_argument("--gpu", action="store_true",
                       help="run the hybrid CPU+GPU target")
    p_bte.add_argument("--ranks", type=int, default=1, metavar="N",
                       help="band-partition over N ranks (with --gpu: one "
                            "simulated device per rank, paper Fig. 7)")
    p_bte.add_argument("--trace", default=None, metavar="FILE",
                       help="write a Chrome-trace/Perfetto JSON timeline")
    p_bte.add_argument("--report", default=None, metavar="FILE",
                       help="write the aggregated RunReport JSON")
    p_bte.add_argument("--metrics", default=None, metavar="FILE",
                       help="write the metrics registry (.txt/.prom for "
                            "Prometheus text format, else JSON)")
    p_bte.add_argument("--faults", default=None, metavar="SPEC",
                       help="inject faults, e.g. 'stall:rank=2,at=7;"
                            "oom:device=gpu0' (kinds: drop delay dup stall "
                            "rank_kill rank_slow oom kernel; see "
                            "docs/architecture.md)")
    p_bte.add_argument("--fault-seed", type=int, default=0, metavar="N",
                       help="seed for probabilistic fault rules (default 0)")
    p_bte.add_argument("--checkpoint-every", type=int, default=0, metavar="N",
                       help="write a repro.checkpoint/1 snapshot every N steps")
    p_bte.add_argument("--checkpoint-dir", default="checkpoints", metavar="DIR",
                       help="directory for --checkpoint-every snapshots")
    p_bte.add_argument("--rebalance", action="store_true",
                       help="elastic runtime: recover killed ranks from "
                            "checkpoints and migrate work off slow ranks "
                            "(distributed targets; results stay "
                            "bit-identical)")
    p_bte.add_argument("--heartbeat-s", type=float, default=None, metavar="S",
                       help="declare a rank dead after S seconds without a "
                            "liveness beat (default: off)")
    p_bte.add_argument("--imbalance-threshold", type=float, default=1.5,
                       metavar="R",
                       help="max/mean per-rank step-time ratio that "
                            "triggers a proactive migration under "
                            "--rebalance (default 1.5)")
    p_bte.add_argument("--restore", default=None, metavar="FILE",
                       help="restore solver state from a checkpoint before "
                            "stepping")
    p_bte.add_argument("--sanitize", action="store_true",
                       help="run under the runtime sanitizer (NaN/Inf "
                            "guards, halo checksums, drift/CFL heuristics; "
                            "results stay bit-identical)")
    p_bte.add_argument("--events", default=None, metavar="FILE",
                       help="stream the structured event log to FILE "
                            "(repro.events/1 JSON Lines; inspect with "
                            "`repro events FILE`)")
    p_bte.add_argument("--profile", default=None, metavar="FILE",
                       help="write the per-kernel repro.profile/1 document "
                            "(diff two with `bte compare`)")
    p_bte.add_argument("--record", action="store_true",
                       help="append this run (report + profile) to the run "
                            "registry (`bte history` reads it back)")
    p_bte.add_argument("--runs-dir", default=None, metavar="DIR",
                       help="run-registry root for --record (default "
                            ".repro-runs; also $REPRO_RUNS_DIR)")

    p_an = sub.add_parser(
        "analyze", help="analyze a trace and/or run-report JSON",
        parents=[common],
    )
    p_an.add_argument("files", nargs="+", metavar="FILE",
                      help="trace JSON and/or run-report JSON (any order)")
    p_an.add_argument("--json", default=None, metavar="FILE",
                      help="also write the analysis as JSON")
    p_an.add_argument("--dot", default=None, metavar="FILE",
                      help="write the placement task graph as Graphviz DOT")

    p_prof = sub.add_parser(
        "profile",
        help="run the hot-spot transient; print its per-phase/per-kernel "
             "roofline/drift table",
        parents=[common, cache],
    )
    p_prof.add_argument("--nx", type=int, default=24)
    p_prof.add_argument("--ndirs", type=int, default=8)
    p_prof.add_argument("--bands", type=int, default=8)
    p_prof.add_argument("--dt", type=float, default=1e-12)
    p_prof.add_argument("--steps", type=int, default=50)
    p_prof.add_argument("--gpu", action="store_true",
                        help="profile the hybrid CPU+GPU target")
    p_prof.add_argument("--ranks", type=int, default=1, metavar="N",
                        help="band-partition over N ranks")
    p_prof.add_argument("--top", type=int, default=0, metavar="N",
                        help="show only the N most expensive rows")
    p_prof.add_argument("--tolerance", type=float, default=None, metavar="X",
                        help="perfmodel drift tolerance on "
                             "|measured/predicted - 1| (default 0.50)")
    p_prof.add_argument("--out", default=None, metavar="FILE",
                        help="write the repro.profile/1 JSON")
    p_prof.add_argument("--record", action="store_true",
                        help="append this run to the run registry")
    p_prof.add_argument("--runs-dir", default=None, metavar="DIR",
                        help="run-registry root (default .repro-runs; also "
                             "$REPRO_RUNS_DIR)")

    p_cmp = sub.add_parser(
        "compare",
        help="diff two profiled runs; rank the regression culprit first",
        parents=[common],
    )
    p_cmp.add_argument("a", metavar="A",
                       help="baseline: profile JSON, run report, or "
                            "registry entry")
    p_cmp.add_argument("b", metavar="B", help="candidate run (same formats)")
    p_cmp.add_argument("--top", type=int, default=0, metavar="N",
                       help="show only the N largest deltas")
    p_cmp.add_argument("--json", default=None, metavar="FILE",
                       help="also write the comparison as JSON")

    p_hist = sub.add_parser(
        "history",
        help="per-problem timeline of recorded runs, with regression/drift "
             "flags",
        parents=[common],
    )
    p_hist.add_argument("--runs-dir", default=None, metavar="DIR",
                        help="run-registry root (default .repro-runs; also "
                             "$REPRO_RUNS_DIR)")
    p_hist.add_argument("--key", default=None, metavar="PREFIX",
                        help="show only problem keys starting with PREFIX")
    p_hist.add_argument("--gc", action="store_true",
                        help="prune old entries before listing")
    p_hist.add_argument("--keep", type=int, default=20, metavar="N",
                        help="with --gc: newest entries kept per key "
                             "(default 20)")
    p_hist.add_argument("--max-age-days", type=float, default=None,
                        metavar="D",
                        help="with --gc: additionally drop entries older "
                             "than D days")

    p_bench = sub.add_parser(
        "bench", help="run the benchmark suite; optionally gate on a baseline",
        parents=[common, cache],
    )
    p_bench.add_argument("--nx", type=int, default=16)
    p_bench.add_argument("--steps", type=int, default=5)
    p_bench.add_argument("--out", default=None, metavar="FILE",
                         help="envelope path (default BENCH_<date>.json)")
    p_bench.add_argument("--compare", default=None, metavar="BASELINE",
                         help="baseline envelope to gate against "
                              "(exit 1 on regression)")
    p_bench.add_argument("--threshold", type=float, default=None,
                         help="relative slowdown tolerated for virtual "
                              "timings (default 0.25)")

    p_lint = sub.add_parser(
        "lint", help="statically verify DSL scripts (RPR### diagnostics)",
        parents=[common],
    )
    p_lint.add_argument("scripts", nargs="*", metavar="SCRIPT",
                        help="DSL script file(s) to verify")
    p_lint.add_argument("--json", default=None, metavar="FILE",
                        help="also write the findings as repro.lint/1 JSON")
    p_lint.add_argument("--no-deep", action="store_true",
                        help="skip solver generation (static DSL/IR checks "
                             "only, no placement/schedule analysis)")
    p_lint.add_argument("--codes", action="store_true",
                        help="print the RPR### diagnostic catalogue and exit")

    p_srv = sub.add_parser(
        "serve", help="run the multi-tenant solver service",
        parents=[common, cache],
    )
    p_srv.add_argument("--demo", action="store_true",
                       help="drive N concurrent tenants with mixed-priority "
                            "duplicate problems and print dedup/warm rates")
    p_srv.add_argument("--workers", type=int, default=2, metavar="N",
                       help="simulated GPU worker slots (default 2)")
    p_srv.add_argument("--queue-max", type=int, default=64, metavar="N",
                       help="bounded queue size; RPR900 backpressure past it")
    p_srv.add_argument("--batch-max", type=int, default=4, metavar="N",
                       help="max same-priority jobs batched onto one worker")
    p_srv.add_argument("--max-inflight", type=int, default=8, metavar="N",
                       help="default per-tenant in-flight request quota")
    p_srv.add_argument("--max-running", type=int, default=2, metavar="N",
                       help="default per-tenant running-job quota")
    p_srv.add_argument("--no-preemption", action="store_true",
                       help="disable checkpoint-preemption of running jobs")
    p_srv.add_argument("--checkpoint-every", type=int, default=0, metavar="N",
                       help="periodic checkpoint cadence for served jobs")
    p_srv.add_argument("--port", type=int, default=None, metavar="P",
                       help="HTTP endpoint port (0 = ephemeral; default off)")
    p_srv.add_argument("--for-seconds", type=float, default=0.0, metavar="S",
                       help="keep the service up this long (without --demo)")
    p_srv.add_argument("--tenants", type=int, default=4, metavar="N",
                       help="demo: number of concurrent tenants")
    p_srv.add_argument("--requests", type=int, default=4, metavar="N",
                       help="demo: requests submitted per tenant")
    p_srv.add_argument("--nx", type=int, default=8, metavar="N",
                       help="demo: mesh resolution per side")
    p_srv.add_argument("--steps", type=int, default=3, metavar="N",
                       help="demo: time steps per problem")
    p_srv.add_argument("--events", default=None, metavar="FILE",
                       help="stream the structured event log to FILE (JSONL)")
    p_srv.add_argument("--status-json", default=None, metavar="FILE",
                       help="write the final repro.serve/1 status document")

    p_ev = sub.add_parser(
        "events", help="tail/filter/pretty-print a repro.events/1 JSONL log",
        parents=[common],
    )
    p_ev.add_argument("file", metavar="FILE",
                      help="event log written by `bte --events FILE`")
    p_ev.add_argument("--tail", type=int, default=None, metavar="N",
                      help="show only the last N matching events")
    p_ev.add_argument("--level", choices=("debug", "info", "warning", "error"),
                      default=None, help="minimum level to show")
    p_ev.add_argument("--name", default=None, metavar="SUBSTR",
                      help="show only events whose name contains SUBSTR")
    p_ev.add_argument("--rank", type=int, default=None, metavar="R",
                      help="show only events from rank R")
    p_ev.add_argument("--json", action="store_true",
                      help="print raw JSON lines instead of pretty text")

    args = parser.parse_args(argv)
    global _QUIET
    _QUIET = bool(getattr(args, "quiet", False))
    if args.verbose:
        from repro.util.logging import set_verbosity

        set_verbosity("INFO" if args.verbose == 1 else "DEBUG")
    if getattr(args, "log_level", None):
        current().events.set_level(args.log_level)
    try:
        return _dispatch(args, parser)
    except ReproError as exc:
        current().events.emit("cli.error", "error", code=getattr(exc, "code", None),
                              message=str(exc))
        if args.verbose:
            raise
        print(_render_error(exc), file=sys.stderr)
        print("(re-run with -v for the full traceback)", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout went away (| head, a closed pager): not an error, but the
        # fd must be replaced or the interpreter complains again at exit
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (KeyboardInterrupt, SystemExit):
        raise
    except Exception as exc:
        # an unexpected crash: record it in the event log, then let the
        # traceback propagate — this is a bug, not a user error
        current().events.emit("cli.crash", "error", type=type(exc).__name__,
                              message=str(exc))
        raise


def _dispatch(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.command == "info":
        return cmd_info(args)
    if args.command == "figures":
        return cmd_figures(args)
    if args.command == "pipeline":
        return cmd_pipeline(args)
    if args.command == "latex":
        return cmd_latex(args)
    if args.command == "bte":
        return cmd_bte(args)
    if args.command == "analyze":
        return cmd_analyze(args)
    if args.command == "profile":
        return cmd_profile(args)
    if args.command == "compare":
        return cmd_compare(args)
    if args.command == "history":
        return cmd_history(args)
    if args.command == "bench":
        return cmd_bench(args)
    if args.command == "lint":
        return cmd_lint(args)
    if args.command == "events":
        return cmd_events(args)
    if args.command == "serve":
        return cmd_serve(args)
    parser.print_help()
    return 2


def _render_error(exc: "ReproError") -> str:
    """One-line diagnostic (+ caret block when the error carries one)."""
    lines = str(exc).splitlines() or [""]
    return "\n".join([f"error {exc.code}: {lines[0]}", *lines[1:]])


#: Subcommands the ``bte`` alias passes straight through to ``main``.
_COMMANDS = {"info", "figures", "pipeline", "latex", "bte", "analyze",
             "profile", "compare", "history", "bench", "lint",
             "events", "serve"}


def bte_main(argv: list[str] | None = None) -> int:
    """Entry point of the installed ``bte`` script.

    ``bte analyze t.json r.json`` is ``repro analyze ...``; anything that
    is not a known subcommand (``bte --gpu --trace t.json``) runs the BTE
    transient itself, so the short form of the paper's workflow works:

    .. code-block:: shell

        bte --gpu --trace t.json --report r.json
        bte analyze t.json r.json
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    head = next((a for a in argv if not a.startswith("-")), None)
    if head in _COMMANDS or (argv and argv[0] in ("-h", "--help")):
        return main(argv)
    return main(["bte", *argv])


if __name__ == "__main__":
    sys.exit(main())
