"""Structured cross-layer tracing (zero overhead when disabled).

See :mod:`repro.trace.tracer` for the design constraints.  The usual
entry points:

* :class:`Tracer` — attach to a stack via ``build_stack(tracer=...)``,
  ``build_stack(trace_path=...)``, or ``build_cloud_testbed(trace_path=...)``;
  close it with ``controller.stack_snapshot()`` as the metrics footer.
* :func:`load_trace` / :func:`summarize` / :func:`diff_summaries` — the
  analysis surface behind ``python -m repro trace``.
* :func:`validate_events` — structural schema check for every event type.
* :func:`to_chrome` / :func:`write_chrome` — flame-graph export.
* :data:`GOLDENS` / :func:`run_golden` / :func:`emit_golden` — the
  committed golden-trace fixtures, one table of scenarios by name.
"""

from repro.trace.chrome import to_chrome, write_chrome
from repro.trace.golden import (
    GOLDEN_SEED,
    GOLDENS,
    UTRR_GOLDEN_TRR,
    emit_golden,
    run_golden,
)
from repro.trace.schema import (
    EVENT_SCHEMAS,
    validate_event,
    validate_events,
)
from repro.trace.summary import (
    conservation_errors,
    diff_summaries,
    format_summary,
    summarize,
)
from repro.trace.tracer import TRACE_VERSION, Tracer, encode_event, load_trace

__all__ = [
    "TRACE_VERSION",
    "Tracer",
    "encode_event",
    "load_trace",
    "EVENT_SCHEMAS",
    "validate_event",
    "validate_events",
    "summarize",
    "format_summary",
    "diff_summaries",
    "conservation_errors",
    "to_chrome",
    "write_chrome",
    "GOLDEN_SEED",
    "GOLDENS",
    "UTRR_GOLDEN_TRR",
    "emit_golden",
    "run_golden",
]
