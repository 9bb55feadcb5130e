"""Loading and summarising trace files (``repro trace summarize``).

Reads back either exporter format — the JSONL event log or the Chrome
trace-event JSON — into a common :class:`SpanRecord` list, and renders
a per-span-name aggregate table: call count, total and *self* wall
time (total minus direct children, computed from the recorded
parent/child links, so re-entrant span names never double-count), the
summed per-span counters, and — when the trace was recorded with
memory spans on — the maximum per-span memory peak.

Traces from killed or still-running processes are first-class inputs:
a truncated JSONL tail line is skipped rather than fatal, and *orphan*
spans (``parent_id`` pointing at a span that never made it into the
file, e.g. a parent still open when the process died) are aggregated
as roots instead of raising.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = ["SpanRecord", "load_trace", "trace_summary", "summarize_trace"]


@dataclass(frozen=True)
class SpanRecord:
    """One finished span, format-independent."""

    name: str
    span_id: Optional[int]
    parent_id: Optional[int]
    depth: int
    start_us: float
    dur_us: float
    attributes: Dict[str, Any] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)


def _from_jsonl(lines: List[str]) -> List[SpanRecord]:
    records: List[SpanRecord] = []
    any_record = False
    for index, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError:
            # A killed run leaves a half-written final line; every
            # complete line is still a valid record, so summarising the
            # partial trace is exactly what a post-mortem needs.
            if index == len(lines) - 1:
                continue
            raise
        if not isinstance(payload, dict) or "type" not in payload:
            raise ValueError(f"line {index + 1} is not a trace record")
        any_record = True
        if payload["type"] != "span":
            continue
        records.append(
            SpanRecord(
                name=_span_name(payload, f"line {index + 1}"),
                span_id=payload.get("id"),
                parent_id=payload.get("parent"),
                depth=int(payload.get("depth", 0)),
                start_us=float(payload.get("start_us", 0.0)),
                dur_us=float(payload.get("dur_us", 0.0)),
                attributes=dict(payload.get("attrs", {})),
                counters={k: int(v) for k, v in payload.get("counters", {}).items()},
            )
        )
    if not any_record:
        raise ValueError("no trace records: not a JSONL trace")
    return records


def _from_chrome(document: Dict[str, Any]) -> List[SpanRecord]:
    records: List[SpanRecord] = []
    for index, event in enumerate(document["traceEvents"]):
        if event.get("ph") != "X":
            continue
        args = dict(event.get("args", {}))
        parent = args.pop("parent", None)
        depth = args.pop("depth", 0)
        # Counters and attributes share `args`; integers that are not
        # nesting metadata are treated as counters, the rest as attrs.
        counters = {k: v for k, v in args.items() if isinstance(v, int) and not isinstance(v, bool)}
        attributes = {k: v for k, v in args.items() if k not in counters}
        records.append(
            SpanRecord(
                name=_span_name(event, f"trace event {index}"),
                span_id=event.get("id"),
                parent_id=parent,
                depth=int(depth or 0),
                start_us=float(event.get("ts", 0.0)),
                dur_us=float(event.get("dur", 0.0)),
                attributes=attributes,
                counters=counters,
            )
        )
    return records


def _span_name(payload: Dict[str, Any], where: str) -> str:
    name = payload.get("name")
    if not isinstance(name, str):
        raise ValueError(f"{where}: span has no name")
    return name


def load_trace(path: str) -> List[SpanRecord]:
    """Parse either trace format into span records (auto-detected).

    An empty file is an empty trace.  Anything else that is not a trace
    (no complete JSONL record, a line, event or field of the wrong
    shape, a span without a name) raises :class:`ValueError`.
    """
    with open(path) as handle:
        text = handle.read()
    if not text.strip():
        return []
    try:
        document = json.loads(text)
    except json.JSONDecodeError:
        document = None  # not one JSON document: treat as JSONL
    try:
        if isinstance(document, dict) and "traceEvents" in document:
            return _from_chrome(document)
        return _from_jsonl(text.splitlines())
    except (AttributeError, TypeError) as error:
        # A record field of the wrong shape (counters that are not an
        # object, say) is malformed input, not a reader bug.
        raise ValueError(f"malformed trace record: {error}") from error


_SORT_KEYS = {
    "total": "total_us",
    "self": "self_us",
    "count": "count",
}


def trace_summary(records: List[SpanRecord], sort: str = "total") -> Dict[str, Any]:
    """The machine-readable aggregate behind ``trace summarize --json``.

    Returns ``{"spans", "names", "max_depth", "orphans", "has_memory",
    "rows"}``; each row carries the same quantities the rendered table
    shows, unformatted (``name``, ``count``, ``total_us``, ``self_us``,
    ``mean_us``, ``peak_kb``, ``counters``), in the requested sort
    order — so CI and the attribution pipeline consume summaries
    without re-parsing JSONL or scraping table text.
    """
    if sort not in _SORT_KEYS:
        raise ValueError(
            f"sort must be one of {sorted(_SORT_KEYS)}, got {sort!r}"
        )
    if not records:
        return {
            "spans": 0,
            "names": 0,
            "max_depth": 0,
            "orphans": 0,
            "has_memory": False,
            "rows": [],
        }

    known_ids = {record.span_id for record in records if record.span_id is not None}
    orphans = sum(
        1
        for record in records
        if record.parent_id is not None and record.parent_id not in known_ids
    )
    child_time: Dict[Optional[int], float] = {}
    for record in records:
        if record.parent_id is not None and record.parent_id in known_ids:
            child_time[record.parent_id] = (
                child_time.get(record.parent_id, 0.0) + record.dur_us
            )

    has_memory = any("mem_peak_kb" in record.attributes for record in records)
    by_name: Dict[str, Dict[str, Any]] = {}
    for record in records:
        entry = by_name.setdefault(
            record.name,
            {
                "count": 0,
                "total_us": 0.0,
                "self_us": 0.0,
                "counters": {},
                "peak_kb": None,
            },
        )
        entry["count"] += 1
        entry["total_us"] += record.dur_us
        entry["self_us"] += max(0.0, record.dur_us - child_time.get(record.span_id, 0.0))
        peak = record.attributes.get("mem_peak_kb")
        if isinstance(peak, (int, float)):
            entry["peak_kb"] = max(entry["peak_kb"] or 0.0, float(peak))
        for key, value in record.counters.items():
            entry["counters"][key] = entry["counters"].get(key, 0) + value

    sort_key = _SORT_KEYS[sort]
    rows = []
    for name, entry in sorted(by_name.items(), key=lambda kv: -kv[1][sort_key]):
        rows.append(
            {
                "name": name,
                "count": entry["count"],
                "total_us": round(entry["total_us"], 3),
                "self_us": round(entry["self_us"], 3),
                "mean_us": round(entry["total_us"] / entry["count"], 3),
                "peak_kb": entry["peak_kb"],
                "counters": dict(sorted(entry["counters"].items())),
            }
        )
    return {
        "spans": len(records),
        "names": len(by_name),
        "max_depth": max(record.depth for record in records),
        "orphans": orphans,
        "has_memory": has_memory,
        "rows": rows,
    }


def summarize_trace(records: List[SpanRecord], sort: str = "total") -> str:
    """Render the per-span aggregate table.

    ``sort`` orders rows by ``total`` wall time (default), ``self``
    time, or call ``count``.  Spans whose recorded parent is absent
    from the file (a truncated trace from a killed run) are treated as
    roots and reported in the header rather than raising.
    """
    from ..fmt import render_table

    summary = trace_summary(records, sort=sort)
    if not summary["rows"]:
        return "(empty trace: no finished spans)"

    has_memory = summary["has_memory"]
    rows = []
    for entry in summary["rows"]:
        counters = " ".join(
            f"{key}={value}" for key, value in entry["counters"].items()
        )
        row = [
            entry["name"],
            entry["count"],
            f"{entry['total_us'] / 1e6:.3f}s",
            f"{entry['self_us'] / 1e6:.3f}s",
            f"{entry['mean_us'] / 1e3:.2f}ms",
        ]
        if has_memory:
            peak = entry["peak_kb"]
            row.append("-" if peak is None else f"{peak:.0f}KB")
        row.append(counters or "-")
        rows.append(row)
    headers = ["span", "count", "total", "self", "mean"]
    if has_memory:
        headers.append("peak mem")
    headers.append("counters")
    table = render_table(headers, rows)
    orphans = summary["orphans"]
    header = (
        f"{summary['spans']} spans, {summary['names']} distinct names, "
        f"max depth {summary['max_depth']}"
    )
    if orphans:
        header += f", {orphans} orphan span{'s' if orphans != 1 else ''} (truncated trace?)"
    return f"{header}\n\n{table}"
