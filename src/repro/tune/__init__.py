"""Autotuning + persistent compilation cache (``repro.tune``).

Two cooperating layers convert the one-shot generation pipeline into a
persistent performance-automation system (the gap the paper's automation
story leaves open once placement is decided):

* :mod:`repro.tune.cache` — a content-addressed **compilation cache**.
  Every codegen target routes generation through it: the expensive half
  (symbolic lowering, IR, emission, placement, ``compile()``) is keyed by
  a canonical problem signature (:mod:`repro.tune.signature`) and reused;
  the cheap half (fresh state, live callbacks, clocks, devices) is rebuilt
  per solve.  A warm solve of an unchanged problem performs **zero**
  lowering/codegen/compile work.
* :mod:`repro.tune.tuner` — an **autotuner** searching the declared
  tunable space (:mod:`repro.tune.space`: assembly loop order, cell vs
  band partitioning, placement overrides, GPU kernel chunking) with
  grid/greedy strategies, cost-model pruning from :mod:`repro.perfmodel`,
  short proxy trials measured on the deterministic virtual clocks, and
  placement verification of every trial.  Winners persist in a
  ``"repro.tune/1"`` database (:mod:`repro.tune.db`) that future solves
  consult automatically (``problem.extra['tuned'] = True`` or
  ``bte --tuned``).
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "cache": (
        "CompilationCache",
        "GenerationArtifact",
        "cache_scope",
        "configure_cache",
        "get_cache",
    ),
    "db": ("TuningDB", "default_db_path"),
    "signature": ("cache_key", "problem_signature", "tuning_key"),
    "space": ("TuneConfig", "apply_config", "build_space"),
    "tuner": ("Trial", "TuneResult", "maybe_apply_tuned", "tune"),
})
