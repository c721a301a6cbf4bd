"""Parallel sweep execution with deterministic seeds and result caching.

See :mod:`repro.engine.core` for the execution model and
:mod:`repro.engine.cache` for the content-addressed result cache. The
CLI-facing sweep registry lives in :mod:`repro.engine.registry`, which
imports :mod:`repro.experiments`; it exports nothing here, and like
every export below it loads only when something names it.
"""

from .. import _lazy

__getattr__, __dir__, __all__ = _lazy(
    __name__,
    {
        "cache": ("DEFAULT_CACHE_DIR", "ResultCache", "canonicalize", "content_key"),
        "chaos": ("make_faulty",),
        "core": ("EngineStats", "RunReport", "SweepEngine", "SweepTask"),
        "journal": ("RunJournal", "journal_path"),
    },
)
