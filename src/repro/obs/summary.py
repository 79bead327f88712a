"""Offline trace inspection: trace.json -> per-stage breakdown table.

Backs the ``repro obs summary <trace.json>`` and ``repro obs diff
<a.json> <b.json>`` CLIs so Chrome-trace dumps are inspectable (and
comparable) without a browser.  Nesting is reconstructed from the
``span_id``/``parent_id`` entries :meth:`Tracer.chrome_trace` embeds in
each event's ``args`` (falling back to flat totals for foreign traces
that lack them).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Sequence

__all__ = [
    "DIFF_COLUMNS",
    "diff_summaries",
    "format_table",
    "load_trace_events",
    "summarize_events",
]

SUMMARY_COLUMNS = ("stage", "count", "total_s", "self_s", "p50_ms", "p99_ms")
#: The columns of a :func:`diff_summaries` table: each stage's count and
#: total time in trace A and trace B, and the B - A deltas.
DIFF_COLUMNS = (
    "stage",
    "count_a",
    "count_b",
    "d_count",
    "total_a_s",
    "total_b_s",
    "d_total_s",
    "d_self_s",
)


def load_trace_events(path: str) -> List[Dict[str, Any]]:
    """Complete ("X") events from a Chrome trace_event JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if isinstance(payload, Mapping):
        events = payload.get("traceEvents", [])
    else:  # the array-only variant of the format
        events = payload
    return [
        event
        for event in events
        if isinstance(event, Mapping) and event.get("ph") == "X"
    ]


def summarize_events(events: Sequence[Mapping[str, Any]]) -> List[Dict[str, Any]]:
    """Per-stage rows: count, total, self time, p50/p99 — sorted by total.

    Durations arrive in microseconds (trace_event convention) and are
    reported in seconds/milliseconds.  Self time subtracts direct
    children, so self times across all stages sum to the root spans'
    total.
    """
    child_time: Dict[Any, float] = {}
    for event in events:
        args = event.get("args") or {}
        parent = args.get("parent_id")
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + float(
                event.get("dur", 0.0)
            )
    stages: Dict[str, Dict[str, Any]] = {}
    for event in events:
        name = str(event.get("name", "?"))
        dur = float(event.get("dur", 0.0))
        args = event.get("args") or {}
        span_id = args.get("span_id")
        entry = stages.setdefault(
            name, {"count": 0, "total_us": 0.0, "self_us": 0.0, "durs": []}
        )
        entry["count"] += 1
        entry["total_us"] += dur
        entry["self_us"] += dur - child_time.get(span_id, 0.0)
        entry["durs"].append(dur)
    rows: List[Dict[str, Any]] = []
    for name in sorted(stages, key=lambda n: -stages[n]["total_us"]):
        entry = stages[name]
        durs = sorted(entry["durs"])
        rows.append(
            {
                "stage": name,
                "count": entry["count"],
                "total_s": round(entry["total_us"] / 1e6, 6),
                "self_s": round(max(entry["self_us"], 0.0) / 1e6, 6),
                "p50_ms": round(durs[len(durs) // 2] / 1e3, 3),
                "p99_ms": round(
                    durs[min(len(durs) - 1, int(len(durs) * 0.99))] / 1e3, 3
                ),
            }
        )
    return rows


def diff_summaries(
    before: Sequence[Mapping[str, Any]], after: Sequence[Mapping[str, Any]]
) -> List[Dict[str, Any]]:
    """Per-stage deltas from ``before`` to ``after`` summary rows.

    A stage found in one summary only counts as zero in the other.  Rows
    are sorted by the size of their self-time delta, largest first, so the
    stages the time moved between lead; the self-time deltas sum to the
    change in the root spans' total.
    """
    old = {row["stage"]: row for row in before}
    new = {row["stage"]: row for row in after}
    empty = {"count": 0, "total_s": 0.0, "self_s": 0.0}
    rows: List[Dict[str, Any]] = []
    for stage in set(old) | set(new):
        a, b = old.get(stage, empty), new.get(stage, empty)
        rows.append(
            {
                "stage": stage,
                "count_a": a["count"],
                "count_b": b["count"],
                "d_count": b["count"] - a["count"],
                "total_a_s": a["total_s"],
                "total_b_s": b["total_s"],
                "d_total_s": round(b["total_s"] - a["total_s"], 6),
                "d_self_s": round(b["self_s"] - a["self_s"], 6),
            }
        )
    rows.sort(key=lambda row: (-abs(row["d_self_s"]), row["stage"]))
    return rows


def format_table(
    rows: Sequence[Mapping[str, Any]],
    columns: Sequence[str] = SUMMARY_COLUMNS,
) -> str:
    """Render rows as an aligned text table of ``columns``; a table with a
    ``self_s`` column ends with the sum of its self times."""
    if not rows:
        return "(no spans)"
    table = [list(columns)] + [
        [str(row[column]) for column in columns] for row in rows
    ]
    widths = [
        max(len(line[col]) for line in table) for col in range(len(columns))
    ]
    lines = []
    for idx, line in enumerate(table):
        cells = [
            line[0].ljust(widths[0]),
            *(cell.rjust(width) for cell, width in zip(line[1:], widths[1:])),
        ]
        lines.append("  ".join(cells))
        if idx == 0:
            lines.append("  ".join("-" * width for width in widths))
    if "self_s" in columns:
        total = sum(float(row["self_s"]) for row in rows)
        lines.append(f"\nsum of self times: {total:.6f}s")
    return "\n".join(lines)
