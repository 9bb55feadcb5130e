"""Hierarchical work profiles: deterministic span-path aggregation.

The ledger (:mod:`repro.obs.ledger`) gates CI on *exact* work counts,
and the flight recorder (:mod:`repro.obs.runs`) keeps every run's span
trace — but neither says *where* a regression lives.  A failed
``repro bench compare`` names a workload; the engineer still has to
bisect which span subtree doubled its expansions.  This module closes
that gap with a profile model built from finished spans:

* every span is assigned a **name path** — the chain of ancestor span
  names from the root down (``certify.section4;coverability.karp_miller``);
* per path the profile aggregates call count, total and *self* wall
  time (total minus direct children), the summed per-span counters
  (the deterministic work), robust per-call timing (median/MAD), and
  the maximum memory peak when the trace carried memory spans.

Two properties make the profile a determinism contract, not just a
pretty table:

1. **Arrival-order invariance.**  Every aggregate is a commutative
   reduction (sum, max, order-statistics over a multiset), so shuffling
   the span records — which happens naturally when parallel workers
   finish out of order — produces a bit-identical profile.
2. **Shard-adoption invariance.**  The parallel pool wraps adopted
   worker spans in ``parallel.pool`` / ``parallel.task`` container
   spans (:mod:`repro.parallel.pool`).  Those containers are pure
   plumbing: the profile *splices them out* of every path, attaching
   worker spans to the grandparent, so a workload's **work-count
   profile** (path → summed counters; call counts excluded, since
   chunking varies with ``--jobs``) is identical at ``--jobs 1/2/4``
   — the repo's serial≡parallel contract, extended to profiles.

On top of the model: folded-stack (``a;b;c value``) and speedscope
JSON exporters, a schema-versioned profile artifact, a profile diff
with exact significance on work counts and MAD-robust significance on
time (the ledger's own rules), and regression *attribution* — re-run a
drifted workload under a recording tracer and name the guilty span
subtrees (``repro bench compare --attribute``).
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .summary import SpanRecord

__all__ = [
    "PROFILE_KIND",
    "PROFILE_SCHEMA",
    "PLUMBING_SPANS",
    "PATH_SEP",
    "ProfileError",
    "PathStats",
    "Profile",
    "build_profile",
    "profile_to_dict",
    "profile_from_dict",
    "load_profile",
    "write_profile",
    "to_folded",
    "to_speedscope",
    "render_profile",
    "ProfileFinding",
    "ProfileDiff",
    "diff_profiles",
    "significant",
    "ProfileRecording",
    "record_workload_profile",
    "WorkAttribution",
    "AttributionEntry",
    "attribute_work_drift",
]

PROFILE_KIND = "repro-work-profile"
PROFILE_SCHEMA = 1

# Container spans the parallel backend emits around adopted worker
# spans.  They carry no algorithmic work, and their shape depends on
# --jobs and chunking — splicing them out of every path is what makes
# profiles comparable across serial and parallel runs.
PLUMBING_SPANS = frozenset({"parallel.pool", "parallel.task"})

PATH_SEP = ";"

# The ledger's absolute time floor, restated in microseconds.
_TIME_FLOOR_US = 2000.0
_MAD_SIGMA = 3.0


class ProfileError(ValueError):
    """Malformed, missing, or schema-incompatible profile artifact."""


# ----------------------------------------------------------------------
# The model
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PathStats:
    """Aggregates for one span name path (self = minus direct children)."""

    path: Tuple[str, ...]
    count: int
    total_us: float
    self_us: float
    median_us: float
    mad_us: float
    counters: Dict[str, int]
    mem_peak_kb: Optional[float] = None

    @property
    def key(self) -> str:
        return PATH_SEP.join(self.path)

    @property
    def name(self) -> str:
        """The leaf span name of this path."""
        return self.path[-1] if self.path else ""


@dataclass
class Profile:
    """A deterministic hierarchical profile aggregated from spans."""

    paths: Dict[Tuple[str, ...], PathStats] = field(default_factory=dict)
    span_count: int = 0
    orphan_count: int = 0
    spliced_count: int = 0
    meta: Dict[str, Any] = field(default_factory=dict)

    def stats(self, key: str) -> Optional[PathStats]:
        """Look up one path by its rendered ``a;b;c`` key."""
        return self.paths.get(tuple(key.split(PATH_SEP)) if key else ())

    def sorted_paths(self) -> List[PathStats]:
        """Paths in depth-first lexicographic order (deterministic)."""
        return [self.paths[path] for path in sorted(self.paths)]

    def work_counts(self) -> Dict[str, Dict[str, int]]:
        """The determinism-contract object: path → summed self counters.

        Call counts and timings are deliberately excluded — chunking
        (and therefore span cardinality) legitimately varies with
        ``--jobs``, but the counter *sums* may not.  Same seed and
        inputs must yield a bit-identical dict at every jobs value.
        """
        return {
            stats.key: dict(sorted(stats.counters.items()))
            for stats in self.sorted_paths()
            if stats.counters
        }

    def subtree_counters(self, path: Tuple[str, ...]) -> Dict[str, int]:
        """Summed counters over ``path`` and every path below it."""
        totals: Dict[str, int] = {}
        for other, stats in self.paths.items():
            if other[: len(path)] != path:
                continue
            for name, value in stats.counters.items():
                totals[name] = totals.get(name, 0) + value
        return totals

    def total_self_us(self) -> float:
        return sum(stats.self_us for stats in self.paths.values())


def _as_record(record: Any) -> SpanRecord:
    """Accept :class:`SpanRecord` or a raw JSONL-shaped span dict."""
    if isinstance(record, SpanRecord):
        return record
    return SpanRecord(
        name=record["name"],
        span_id=record.get("id"),
        parent_id=record.get("parent"),
        depth=int(record.get("depth", 0)),
        start_us=float(record.get("start_us", 0.0)),
        dur_us=float(record.get("dur_us", 0.0)),
        attributes=dict(record.get("attrs", {})),
        counters={k: int(v) for k, v in record.get("counters", {}).items()},
    )


def build_profile(
    records: Iterable[Any], *, meta: Optional[Mapping[str, Any]] = None
) -> Profile:
    """Aggregate finished spans into a :class:`Profile`.

    Orphan spans (recorded parent missing from the input — a truncated
    trace from a killed run) root their own subtree, mirroring
    ``repro trace summarize``.  Plumbing spans (:data:`PLUMBING_SPANS`)
    contribute nothing themselves and are spliced out of descendants'
    paths.  The aggregation is a pure commutative fold, so any
    permutation of ``records`` yields an identical profile.
    """
    spans = [_as_record(r) for r in records]
    by_id: Dict[int, SpanRecord] = {
        s.span_id: s for s in spans if s.span_id is not None
    }

    # Direct-children wall time per parent id, for self-time.
    child_time: Dict[int, float] = {}
    for span in spans:
        if span.parent_id is not None and span.parent_id in by_id:
            child_time[span.parent_id] = (
                child_time.get(span.parent_id, 0.0) + span.dur_us
            )

    orphans = 0
    # Memoised name-path of each known span id, plumbing spliced out.
    memo: Dict[int, Tuple[str, ...]] = {}

    def path_of(span: SpanRecord) -> Tuple[str, ...]:
        nonlocal orphans
        # Walk ancestors iteratively (deep traces would blow the
        # recursion limit) with a visited guard against corrupt cycles.
        chain: List[SpanRecord] = []
        seen: set = set()
        current: Optional[SpanRecord] = span
        prefix: Tuple[str, ...] = ()
        while current is not None:
            sid = current.span_id
            if sid is not None:
                if sid in memo:
                    prefix = memo[sid]  # ancestor already resolved
                    break
                if sid in seen:
                    break  # cycle in a corrupt trace: treat as root
                seen.add(sid)
            chain.append(current)
            parent_id = current.parent_id
            if parent_id is None:
                current = None
            elif parent_id in by_id:
                current = by_id[parent_id]
            else:
                orphans += 1
                current = None
        # `chain` runs child→ancestor; fold back down from the top.
        for node in reversed(chain):
            if node.name not in PLUMBING_SPANS:
                prefix = prefix + (node.name,)
            if node.span_id is not None:
                memo[node.span_id] = prefix
        return prefix

    accumulator: Dict[Tuple[str, ...], Dict[str, Any]] = {}
    spliced = 0
    for span in spans:
        path = path_of(span)
        if span.name in PLUMBING_SPANS:
            spliced += 1
            continue
        entry = accumulator.setdefault(
            path,
            {
                "count": 0,
                "total_us": 0.0,
                "self_us": 0.0,
                "durations": [],
                "counters": {},
                "mem_peak_kb": None,
            },
        )
        entry["count"] += 1
        entry["total_us"] += span.dur_us
        child_us = child_time.get(span.span_id, 0.0) if span.span_id is not None else 0.0
        entry["self_us"] += max(0.0, span.dur_us - child_us)
        entry["durations"].append(span.dur_us)
        for name, value in span.counters.items():
            entry["counters"][name] = entry["counters"].get(name, 0) + value
        peak = span.attributes.get("mem_peak_kb")
        if isinstance(peak, (int, float)) and not isinstance(peak, bool):
            entry["mem_peak_kb"] = max(entry["mem_peak_kb"] or 0.0, float(peak))

    paths: Dict[Tuple[str, ...], PathStats] = {}
    for path, entry in accumulator.items():
        durations = sorted(entry["durations"])
        median = statistics.median(durations)
        mad = statistics.median(abs(d - median) for d in durations)
        paths[path] = PathStats(
            path=path,
            count=entry["count"],
            total_us=round(entry["total_us"], 3),
            self_us=round(entry["self_us"], 3),
            median_us=round(median, 3),
            mad_us=round(mad, 3),
            counters=dict(sorted(entry["counters"].items())),
            mem_peak_kb=entry["mem_peak_kb"],
        )
    return Profile(
        paths=paths,
        span_count=len(spans) - spliced,
        orphan_count=orphans,
        spliced_count=spliced,
        meta=dict(meta or {}),
    )


# ----------------------------------------------------------------------
# Artifact I/O
# ----------------------------------------------------------------------


def profile_to_dict(profile: Profile) -> Dict[str, Any]:
    """Serialise a profile as a stable, diff-friendly artifact dict."""
    return {
        "kind": PROFILE_KIND,
        "schema": PROFILE_SCHEMA,
        "meta": dict(profile.meta),
        "spans": profile.span_count,
        "orphans": profile.orphan_count,
        "spliced": profile.spliced_count,
        "paths": {
            stats.key: {
                "count": stats.count,
                "total_us": stats.total_us,
                "self_us": stats.self_us,
                "median_us": stats.median_us,
                "mad_us": stats.mad_us,
                "counters": stats.counters,
                "mem_peak_kb": stats.mem_peak_kb,
            }
            for stats in profile.sorted_paths()
        },
    }


def profile_from_dict(payload: Mapping[str, Any]) -> Profile:
    """Rebuild a :class:`Profile` from its artifact dict."""
    if payload.get("kind") != PROFILE_KIND:
        raise ProfileError(f"not a {PROFILE_KIND} artifact")
    if payload.get("schema") != PROFILE_SCHEMA:
        raise ProfileError(
            f"profile has schema {payload.get('schema')!r}, "
            f"this build reads schema {PROFILE_SCHEMA}"
        )
    paths: Dict[Tuple[str, ...], PathStats] = {}
    for key, entry in payload.get("paths", {}).items():
        path = tuple(key.split(PATH_SEP)) if key else ()
        paths[path] = PathStats(
            path=path,
            count=int(entry["count"]),
            total_us=float(entry["total_us"]),
            self_us=float(entry["self_us"]),
            median_us=float(entry.get("median_us", 0.0)),
            mad_us=float(entry.get("mad_us", 0.0)),
            counters={k: int(v) for k, v in entry.get("counters", {}).items()},
            mem_peak_kb=entry.get("mem_peak_kb"),
        )
    return Profile(
        paths=paths,
        span_count=int(payload.get("spans", 0)),
        orphan_count=int(payload.get("orphans", 0)),
        spliced_count=int(payload.get("spliced", 0)),
        meta=dict(payload.get("meta", {})),
    )


def write_profile(path: str, profile: Profile) -> None:
    with open(path, "w") as handle:
        json.dump(profile_to_dict(profile), handle, indent=1, sort_keys=True)
        handle.write("\n")


def load_profile(path: str) -> Profile:
    """Read a profile artifact *or* a trace file (auto-detected).

    A trace (JSONL or Chrome trace-event JSON) is aggregated on the
    fly, so every command that takes a profile also takes a raw trace.
    """
    from .summary import load_trace

    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as error:
        raise ProfileError(f"cannot read {path!r}: {error}")
    try:
        document = json.loads(text)
    except json.JSONDecodeError:
        document = None
    if isinstance(document, dict) and document.get("kind") == PROFILE_KIND:
        return profile_from_dict(document)
    try:
        records = load_trace(path)
    except (OSError, ValueError) as error:
        raise ProfileError(f"{path!r} is neither a profile nor a trace: {error}")
    return build_profile(records, meta={"source_trace": path})


# ----------------------------------------------------------------------
# Exporters and rendering
# ----------------------------------------------------------------------


def to_folded(profile: Profile, metric: str = "self_us") -> str:
    """Folded-stack lines (``a;b;c value``) for flamegraph.pl et al.

    ``metric`` is ``self_us`` (default), ``count``, or any counter
    name; paths without the counter are omitted.
    """
    lines = []
    for stats in profile.sorted_paths():
        if metric == "self_us":
            value = int(round(stats.self_us))
        elif metric == "count":
            value = stats.count
        else:
            if metric not in stats.counters:
                continue
            value = stats.counters[metric]
        lines.append(f"{stats.key} {value}")
    return "\n".join(lines) + ("\n" if lines else "")


def to_speedscope(profile: Profile, name: str = "repro profile") -> Dict[str, Any]:
    """A speedscope-loadable document (https://www.speedscope.app).

    Each profile path becomes one sampled stack weighted by its self
    time, so the sum over samples reproduces total wall time exactly.
    """
    frame_index: Dict[str, int] = {}
    frames: List[Dict[str, str]] = []
    samples: List[List[int]] = []
    weights: List[float] = []
    for stats in profile.sorted_paths():
        stack = []
        for frame_name in stats.path:
            if frame_name not in frame_index:
                frame_index[frame_name] = len(frames)
                frames.append({"name": frame_name})
            stack.append(frame_index[frame_name])
        samples.append(stack)
        weights.append(stats.self_us)
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "shared": {"frames": frames},
        "profiles": [
            {
                "type": "sampled",
                "name": name,
                "unit": "microseconds",
                "startValue": 0,
                "endValue": round(sum(weights), 3),
                "samples": samples,
                "weights": weights,
            }
        ],
        "exporter": "repro profile",
    }


def _fmt_us(value: float) -> str:
    if value >= 1e6:
        return f"{value / 1e6:.3f}s"
    if value >= 1e3:
        return f"{value / 1e3:.1f}ms"
    return f"{value:.0f}µs"


def render_profile(profile: Profile, *, sort: str = "self", limit: int = 0) -> str:
    """The ``repro profile show`` table: one row per path."""
    from ..fmt import render_table

    keys = {"self": "self_us", "total": "total_us", "count": "count"}
    if sort not in keys:
        raise ValueError(f"sort must be one of {sorted(keys)}, got {sort!r}")
    stats_list = sorted(
        profile.paths.values(), key=lambda s: (-getattr(s, keys[sort]), s.path)
    )
    if limit:
        stats_list = stats_list[:limit]
    has_memory = any(s.mem_peak_kb is not None for s in profile.paths.values())
    rows = []
    for stats in stats_list:
        counters = " ".join(f"{k}={v}" for k, v in stats.counters.items())
        row = [
            stats.key,
            stats.count,
            _fmt_us(stats.total_us),
            _fmt_us(stats.self_us),
            _fmt_us(stats.median_us),
        ]
        if has_memory:
            row.append(
                "-" if stats.mem_peak_kb is None else f"{stats.mem_peak_kb:.0f}KB"
            )
        row.append(counters or "-")
        rows.append(row)
    headers = ["path", "calls", "total", "self", "median/call"]
    if has_memory:
        headers.append("peak mem")
    headers.append("work counters")
    header = (
        f"{profile.span_count} spans over {len(profile.paths)} paths"
        + (f", {profile.orphan_count} orphans" if profile.orphan_count else "")
        + (f", {profile.spliced_count} plumbing spans spliced" if profile.spliced_count else "")
    )
    if not rows:
        return f"{header}\n\n(empty profile)"
    return f"{header}\n\n{render_table(headers, rows)}"


# ----------------------------------------------------------------------
# Diffing two profiles
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ProfileFinding:
    """One detected change between two profiles, anchored to a path."""

    path: str
    kind: str  # "work" | "time" | "added" | "removed"
    detail: str
    regression: bool

    def render(self) -> str:
        tag = "REGRESSION" if self.regression else "note"
        return f"[{tag}] {self.path}: {self.detail}"


@dataclass
class ProfileDiff:
    """Everything ``repro profile diff`` prints and gates on."""

    base_label: str
    new_label: str
    findings: List[ProfileFinding] = field(default_factory=list)
    rows: List[List[str]] = field(default_factory=list)

    def regressions(self, kinds: Optional[Sequence[str]] = None) -> List[ProfileFinding]:
        return [
            f
            for f in self.findings
            if f.regression and (kinds is None or f.kind in kinds)
        ]

    def work_drift(self) -> bool:
        """Any exact work-count change (including added/removed work paths)."""
        return bool(self.regressions(kinds=("work", "added", "removed")))

    def render(self) -> str:
        from ..fmt import render_table

        lines = [f"base: {self.base_label}", f"new:  {self.new_label}", ""]
        if self.rows:
            lines.append(
                render_table(
                    ["path", "base self", "new self", "Δ self", "verdict"], self.rows
                )
            )
        if self.findings:
            lines.append("")
            lines.extend(f.render() for f in self.findings)
        else:
            lines.append("no significant differences between the profiles")
        return "\n".join(lines)


def significant(
    base: float,
    new: float,
    base_mad: float,
    new_mad: float,
    *,
    threshold: float,
    floor: float,
    count: int = 1,
) -> bool:
    """The robust two-condition change test of ledger and profile diffs:
    the delta must clear both ``max(floor, threshold * base)`` and
    ``3 * count * (MAD_base + MAD_new) + floor``."""
    delta = new - base
    if delta <= max(floor, threshold * base):
        return False
    # A value summed over ``count`` calls needs per-call MAD scaled by
    # the count, or the guard underestimates aggregate jitter exactly
    # where it accumulates most.
    return delta > _MAD_SIGMA * max(count, 1) * (base_mad + new_mad) + floor


def diff_profiles(
    base: Profile,
    new: Profile,
    *,
    time_threshold: float = 0.25,
    base_label: str = "<base>",
    new_label: str = "<new>",
) -> ProfileDiff:
    """Align two profiles by span path and report per-path deltas.

    Work counters use the ledger's exact rule (any drift on a shared
    path is a finding); time uses the MAD-robust two-condition test so
    jitter on a quiet subtree never fires.  Paths appearing or
    disappearing are regressions only when they carry work counters —
    purely-timed paths come and go with optional instrumentation.
    """
    diff = ProfileDiff(base_label=base_label, new_label=new_label)
    all_paths = sorted(set(base.paths) | set(new.paths))
    for path in all_paths:
        stats_base = base.paths.get(path)
        stats_new = new.paths.get(path)
        key = PATH_SEP.join(path)
        if stats_base is None:
            assert stats_new is not None
            has_work = bool(stats_new.counters)
            counters = " ".join(f"{k}={v}" for k, v in stats_new.counters.items())
            diff.findings.append(
                ProfileFinding(
                    key,
                    "added",
                    "path only in new profile"
                    + (f" (work: {counters})" if counters else ""),
                    has_work,
                )
            )
            diff.rows.append([key, "-", _fmt_us(stats_new.self_us), "-", "added"])
            continue
        if stats_new is None:
            has_work = bool(stats_base.counters)
            counters = " ".join(f"{k}={v}" for k, v in stats_base.counters.items())
            diff.findings.append(
                ProfileFinding(
                    key,
                    "removed",
                    "path only in base profile"
                    + (f" (work: {counters})" if counters else ""),
                    has_work,
                )
            )
            diff.rows.append([key, _fmt_us(stats_base.self_us), "-", "-", "removed"])
            continue

        verdicts: List[str] = []
        drifted = {
            name: (stats_base.counters.get(name, 0), stats_new.counters.get(name, 0))
            for name in sorted(set(stats_base.counters) | set(stats_new.counters))
            if stats_base.counters.get(name, 0) != stats_new.counters.get(name, 0)
        }
        if drifted:
            detail = ", ".join(
                f"{name}: {old} -> {fresh}" for name, (old, fresh) in drifted.items()
            )
            diff.findings.append(
                ProfileFinding(key, "work", f"work-count drift ({detail})", True)
            )
            verdicts.append("work drift")

        calls = max(stats_base.count, stats_new.count)
        if significant(
            stats_base.self_us, stats_new.self_us,
            stats_base.mad_us, stats_new.mad_us,
            threshold=time_threshold, floor=_TIME_FLOOR_US, count=calls,
        ):
            ratio = stats_new.self_us / max(stats_base.self_us, 1e-9)
            diff.findings.append(
                ProfileFinding(
                    key,
                    "time",
                    f"self {_fmt_us(stats_base.self_us)} -> "
                    f"{_fmt_us(stats_new.self_us)} ({ratio:.2f}x)",
                    True,
                )
            )
            verdicts.append(f"time {ratio:.2f}x")
        elif significant(
            stats_new.self_us, stats_base.self_us,
            stats_new.mad_us, stats_base.mad_us,
            threshold=time_threshold, floor=_TIME_FLOOR_US, count=calls,
        ):
            ratio = stats_base.self_us / max(stats_new.self_us, 1e-9)
            diff.findings.append(
                ProfileFinding(
                    key,
                    "time",
                    f"improved: self {_fmt_us(stats_base.self_us)} -> "
                    f"{_fmt_us(stats_new.self_us)} ({ratio:.2f}x faster)",
                    False,
                )
            )
            verdicts.append("faster")

        if verdicts:
            delta = stats_new.self_us - stats_base.self_us
            sign = "+" if delta >= 0 else "-"
            diff.rows.append(
                [
                    key,
                    _fmt_us(stats_base.self_us),
                    _fmt_us(stats_new.self_us),
                    f"{sign}{_fmt_us(abs(delta))}",
                    "; ".join(verdicts),
                ]
            )
    return diff


# ----------------------------------------------------------------------
# Recording a workload under the tracer
# ----------------------------------------------------------------------


@dataclass
class ProfileRecording:
    """One workload run traced into a profile, plus its work counts."""

    workload: str
    jobs: int
    profile: Profile
    work: Dict[str, int]


def record_workload_profile(name: str, *, jobs: int = 1) -> ProfileRecording:
    """Run one ledger workload under a recording tracer.

    Mirrors the ledger's instrumented pass: one unrecorded warm-up run
    (so the cache ``*_warm`` workloads see the directory their ledger
    measurement would), then one traced run under ``cache_disabled()``,
    with span counters folded into span-qualified work keys exactly as
    :func:`repro.obs.ledger._measure_workload` does — the returned
    ``work`` dict is directly comparable to a ledger artifact entry.
    """
    from ..cache.store import cache_disabled
    from .bench import get_workload
    from .exporters import RecordingExporter
    from .metrics import clear_registry, registry_snapshot
    from .tracer import Tracer, set_tracer

    workload = get_workload(name)
    with cache_disabled():
        workload.run(jobs=jobs)  # warm-up, never recorded
        clear_registry()
        recorder = RecordingExporter()
        tracer = Tracer([recorder])
        previous = set_tracer(tracer)
        try:
            work = dict(workload.run(jobs=jobs))
        finally:
            tracer.close()
            set_tracer(previous)
        spans = registry_snapshot().get("spans")
        if spans is not None:
            for key, value in spans.counters.items():
                work.setdefault(key, int(value))
        clear_registry()
    profile = build_profile(
        recorder.records, meta={"workload": name, "jobs": jobs}
    )
    return ProfileRecording(workload=name, jobs=jobs, profile=profile, work=work)


# ----------------------------------------------------------------------
# Regression attribution (`repro bench compare --attribute`)
# ----------------------------------------------------------------------


@dataclass
class AttributionEntry:
    """Blame for one drifted work key of one workload."""

    workload: str
    key: str
    base_value: Optional[int]
    fresh_value: Optional[int]
    paths: List[Tuple[str, str, int]] = field(default_factory=list)
    # each: (path key, counter name, fresh per-path value)

    def render_lines(self) -> List[str]:
        base = "absent" if self.base_value is None else self.base_value
        fresh = "absent" if self.fresh_value is None else self.fresh_value
        lines = [f"  {self.key}: baseline {base} -> fresh {fresh}"]
        if self.paths:
            for path, counter, value in self.paths:
                lines.append(f"    guilty subtree: {path}  ({counter}={value})")
        else:
            lines.append(
                "    (no span subtree carries this counter — workload-level count)"
            )
        return lines


@dataclass
class WorkAttribution:
    """The full attribution report for one artifact comparison."""

    jobs: int
    entries: List[AttributionEntry] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def guilty_paths(self) -> List[str]:
        """Every span path named as a drift site, deduplicated."""
        seen: List[str] = []
        for entry in self.entries:
            for path, _, _ in entry.paths:
                if path not in seen:
                    seen.append(path)
        return seen

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": "repro-work-attribution",
            "schema": 1,
            "jobs": self.jobs,
            "notes": list(self.notes),
            "entries": [
                {
                    "workload": e.workload,
                    "key": e.key,
                    "base_value": e.base_value,
                    "fresh_value": e.fresh_value,
                    "paths": [
                        {"path": path, "counter": counter, "fresh_value": value}
                        for path, counter, value in e.paths
                    ],
                }
                for e in self.entries
            ],
        }

    def render(self) -> str:
        if not self.entries and not self.notes:
            return "attribution: no work drift to attribute"
        lines = ["work-drift attribution (fresh re-run under the tracer):"]
        by_workload: Dict[str, List[AttributionEntry]] = {}
        for entry in self.entries:
            by_workload.setdefault(entry.workload, []).append(entry)
        for workload in sorted(by_workload):
            lines.append(f"{workload}:")
            for entry in by_workload[workload]:
                lines.extend(entry.render_lines())
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def _paths_carrying(profile: Profile, key: str) -> List[Tuple[str, str, int]]:
    """Profile paths whose leaf span qualifies work key ``key``.

    Span names contain dots, so ``simulate.run.interactions`` cannot be
    split blindly — instead every path's leaf name is tried as the span
    prefix and the remainder as the counter name.
    """
    matches: List[Tuple[str, str, int]] = []
    for stats in profile.sorted_paths():
        leaf = stats.name
        if not key.startswith(leaf + "."):
            continue
        counter = key[len(leaf) + 1 :]
        if counter in stats.counters:
            matches.append((stats.key, counter, stats.counters[counter]))
    return matches


def attribute_work_drift(
    base_artifact: Mapping[str, Any],
    new_artifact: Mapping[str, Any],
    *,
    jobs: int = 1,
    workloads: Optional[Sequence[str]] = None,
) -> WorkAttribution:
    """Re-run drifted workloads under the tracer and name guilty subtrees.

    Only workloads whose recorded work counts differ between the two
    artifacts are re-run (attribution is expensive: one warm-up plus
    one traced pass each).  The fresh traced run — same pinned seed and
    inputs as the ledger — is compared against the *baseline* work
    values; when the fresh run reproduces the baseline instead of the
    regression, that is reported rather than silently blaming noise.
    """
    from .bench import get_workload

    attribution = WorkAttribution(jobs=jobs)
    base_workloads: Mapping[str, Any] = base_artifact.get("workloads", {})
    new_workloads: Mapping[str, Any] = new_artifact.get("workloads", {})
    selected = set(workloads) if workloads is not None else None
    for name in sorted(set(base_workloads) & set(new_workloads)):
        if selected is not None and name not in selected:
            continue
        work_base = base_workloads[name].get("work", {})
        work_new = new_workloads[name].get("work", {})
        # Union, not intersection: a work key appearing in or vanishing
        # from a ledger entry is drift exactly like a changed count
        # (diff_profiles treats added/removed work paths the same way).
        drifted = sorted(
            key
            for key in set(work_base) | set(work_new)
            if work_base.get(key) != work_new.get(key)
        )
        if not drifted:
            continue
        try:
            get_workload(name)
        except KeyError:
            attribution.notes.append(
                f"{name}: workload not registered in this build; cannot re-run"
            )
            continue
        recording = record_workload_profile(name, jobs=jobs)
        for key in drifted:
            base_value = work_base.get(key)
            fresh_value = recording.work.get(key)
            if fresh_value == base_value:
                shown = "absent" if base_value is None else base_value
                attribution.notes.append(
                    f"{name}: {key} matched the baseline on the fresh re-run "
                    f"({shown}); the recorded drift did not reproduce"
                )
                continue
            attribution.entries.append(
                AttributionEntry(
                    workload=name,
                    key=key,
                    base_value=base_value,
                    fresh_value=fresh_value,
                    paths=_paths_carrying(recording.profile, key),
                )
            )
    return attribution
