"""The persistent compilation cache (``repro.tune``).

* :mod:`repro.tune.cache` — a content-addressed **compilation cache**.
  Every codegen target routes generation through it: the expensive half
  (symbolic lowering, IR, emission, placement, ``compile()``) is keyed by
  a canonical problem signature (:mod:`repro.tune.signature`) and reused;
  the cheap half (fresh state, live callbacks, clocks, devices) is rebuilt
  per solve.  A warm solve of an unchanged problem performs **zero**
  lowering/codegen/compile work.
* :mod:`repro.tune.signature` — the cache key, the service's request key
  and :func:`~repro.tune.signature.tuning_key`, which keys the run
  registry's per-problem timelines.
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
    "signature": ("cache_key", "problem_signature", "tuning_key"),
})
