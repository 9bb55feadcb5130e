"""Observability: span tracing, metrics, and progress heartbeats.

The toolkit's searches (Karp–Miller coverability, Pottier completion,
the Lemma 5.4 saturation sequence, stable-slice extraction, the
certificate pipelines, the busy-beaver enumeration) are fixed-point
computations whose running time the paper proves can be astronomical.
This package makes them observable from three angles:

* :mod:`repro.obs.tracer` — nested spans with attributes and per-span
  counters; disabled by default via a zero-cost null singleton;
* :mod:`repro.obs.exporters` — JSONL event logs and Chrome trace-event
  JSON (Perfetto / ``chrome://tracing``);
* :mod:`repro.obs.progress` — rate-limited heartbeats (frontier size,
  basis size, iterations/sec) for the iterative loops;
* :mod:`repro.obs.metrics` — the counters/timers layer shared with the
  simulators, with a process-wide registry;
* :mod:`repro.obs.summary` — reading traces back and rendering the
  per-span table behind ``repro trace summarize``;
* :mod:`repro.obs.profile` — deterministic hierarchical work profiles
  aggregated from trace spans (per-path self/total time and counters),
  profile diffing, and span-level regression attribution behind
  ``repro profile`` and ``repro bench compare --attribute``;
* :mod:`repro.obs.bench` / :mod:`repro.obs.ledger` — the benchmark
  workload registry and the persistent performance ledger behind
  ``repro bench run / compare / baseline``;
* :mod:`repro.obs.runs` / :mod:`repro.obs.report` — the flight
  recorder: a persistent run registry every CLI invocation records
  into (manifest, event stream, run-local trace; crash/kill capture)
  and the static HTML report renderer behind ``repro runs``.

The package namespace re-exports the tracing, metrics, progress, trace
reading and run-registry names that every command uses.  The reporting
half (``bench``, ``ledger``, ``profile``, ``report``) is imported from
its submodule by the commands that need it, so an ordinary command
never loads it.
"""

from .exporters import (
    ChromeTraceExporter,
    JsonlExporter,
    RecordingExporter,
    exporter_for_path,
)
from .metrics import (
    Histogram,
    HistogramSnapshot,
    Instrumentation,
    InstrumentationSnapshot,
    clear_registry,
    get_metrics,
    registry_snapshot,
)
from .progress import (
    ProgressMeter,
    disable_progress,
    enable_progress,
    progress,
    progress_enabled,
    set_progress_interval,
)
from .runs import (
    RunRecorder,
    RunsError,
    RunsSchemaError,
    current_run,
    gc_runs,
    list_runs,
    load_manifest,
    resolve_run_id,
    runs_root,
    set_current_run,
)
from .summary import SpanRecord, load_trace, summarize_trace, trace_summary
from .tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    SpanExporter,
    Tracer,
    get_tracer,
    set_tracer,
)

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "SpanExporter",
    "get_tracer",
    "set_tracer",
    "JsonlExporter",
    "ChromeTraceExporter",
    "RecordingExporter",
    "exporter_for_path",
    "ProgressMeter",
    "progress",
    "enable_progress",
    "disable_progress",
    "progress_enabled",
    "set_progress_interval",
    "Instrumentation",
    "InstrumentationSnapshot",
    "Histogram",
    "HistogramSnapshot",
    "RunRecorder",
    "RunsError",
    "RunsSchemaError",
    "current_run",
    "set_current_run",
    "runs_root",
    "list_runs",
    "load_manifest",
    "resolve_run_id",
    "gc_runs",
    "get_metrics",
    "registry_snapshot",
    "clear_registry",
    "SpanRecord",
    "load_trace",
    "summarize_trace",
    "trace_summary",
]
