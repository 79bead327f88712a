"""Trace-file summaries: the ``repro obs summary`` machinery."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs.summary import (
    DIFF_COLUMNS,
    diff_summaries,
    format_table,
    load_trace_events,
    summarize_events,
)
from repro.obs.trace import span, tracing


@pytest.fixture()
def trace_file(tmp_path):
    """A real chrome_trace dump with known nesting."""
    with tracing() as tracer:
        with span("suite.run"):
            with span("engine.batch"):
                with span("lp.highs"):
                    pass
                with span("lp.highs"):
                    pass
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(tracer.chrome_trace()))
    return path, tracer


class TestLoad:
    def test_loads_trace_events_dict_format(self, trace_file):
        path, tracer = trace_file
        events = load_trace_events(path)
        assert len(events) == len(tracer.spans())
        assert all(event["ph"] == "X" for event in events)

    def test_loads_bare_array_format(self, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text(
            json.dumps(
                [{"ph": "X", "name": "a", "ts": 0, "dur": 10, "args": {}}]
            )
        )
        assert len(load_trace_events(path)) == 1

    def test_non_complete_events_are_filtered(self, tmp_path):
        path = tmp_path / "mixed.json"
        path.write_text(
            json.dumps(
                {
                    "traceEvents": [
                        {"ph": "X", "name": "a", "ts": 0, "dur": 10},
                        {"ph": "M", "name": "process_name"},
                    ]
                }
            )
        )
        events = load_trace_events(path)
        assert [event["name"] for event in events] == ["a"]


class TestSummarize:
    def test_rows_match_in_memory_stage_summary(self, trace_file):
        path, tracer = trace_file
        rows = summarize_events(load_trace_events(path))
        stages = {row["stage"]: row for row in rows}
        assert set(stages) == {"suite.run", "engine.batch", "lp.highs"}
        assert stages["lp.highs"]["count"] == 2
        # Self times across stages sum to the root total (microsecond
        # rounding in the file is the only slack).
        self_sum = sum(row["self_s"] for row in rows)
        root_total = stages["suite.run"]["total_s"]
        assert self_sum == pytest.approx(root_total, abs=1e-4)

    def test_rows_sorted_by_total_descending(self, trace_file):
        path, _ = trace_file
        rows = summarize_events(load_trace_events(path))
        totals = [row["total_s"] for row in rows]
        assert totals == sorted(totals, reverse=True)


class TestFormat:
    def test_table_renders_all_stages(self, trace_file):
        path, _ = trace_file
        text = format_table(summarize_events(load_trace_events(path)))
        assert "stage" in text and "p99_ms" in text
        assert "suite.run" in text and "lp.highs" in text
        assert "sum of self times" in text

    def test_empty_rows_render_placeholder(self):
        assert format_table([]) == "(no spans)"


def _event(name, dur, span_id, parent_id=None):
    args = {"span_id": span_id}
    if parent_id is not None:
        args["parent_id"] = parent_id
    return {"ph": "X", "name": name, "ts": 0, "dur": dur, "args": args}


#: A cold run: two HiGHS solves under the batch.  A warm run: the cache
#: answers, so no HiGHS span, and a cache read appears instead.
COLD = [
    _event("suite.run", 1000, 1),
    _event("engine.batch", 800, 2, 1),
    _event("lp.highs", 300, 3, 2),
    _event("lp.highs", 400, 4, 2),
]
WARM = [
    _event("suite.run", 300, 1),
    _event("engine.batch", 100, 2, 1),
    _event("engine.cache.get", 50, 3, 2),
]


class TestDiff:
    def test_deltas_per_stage(self):
        rows = diff_summaries(summarize_events(COLD), summarize_events(WARM))
        assert rows == [
            {
                "stage": "lp.highs",
                "count_a": 2,
                "count_b": 0,
                "d_count": -2,
                "total_a_s": 0.0007,
                "total_b_s": 0.0,
                "d_total_s": -0.0007,
                "d_self_s": -0.0007,
            },
            {
                "stage": "engine.batch",
                "count_a": 1,
                "count_b": 1,
                "d_count": 0,
                "total_a_s": 0.0008,
                "total_b_s": 0.0001,
                "d_total_s": -0.0007,
                "d_self_s": -0.00005,
            },
            {
                "stage": "engine.cache.get",
                "count_a": 0,
                "count_b": 1,
                "d_count": 1,
                "total_a_s": 0.0,
                "total_b_s": 0.00005,
                "d_total_s": 0.00005,
                "d_self_s": 0.00005,
            },
            {
                "stage": "suite.run",
                "count_a": 1,
                "count_b": 1,
                "d_count": 0,
                "total_a_s": 0.001,
                "total_b_s": 0.0003,
                "d_total_s": -0.0007,
                "d_self_s": 0.0,
            },
        ]
        # The self-time deltas add up to the root's total delta.
        assert sum(row["d_self_s"] for row in rows) == pytest.approx(-0.0007)

    def test_a_trace_against_itself_has_no_delta(self):
        rows = diff_summaries(summarize_events(COLD), summarize_events(COLD))
        assert {row["d_count"] for row in rows} == {0}
        assert {row["d_total_s"] for row in rows} == {0.0}
        assert {row["d_self_s"] for row in rows} == {0.0}

    def test_cli_prints_the_diff_table(self, tmp_path, capsys):
        cold, warm = tmp_path / "cold.json", tmp_path / "warm.json"
        cold.write_text(json.dumps({"traceEvents": COLD}))
        warm.write_text(json.dumps(WARM))
        assert main(["obs", "diff", str(cold), str(warm)]) == 0
        out = capsys.readouterr().out
        header = out.splitlines()[3].split()
        assert header == list(DIFF_COLUMNS)
        assert "(4 spans)" in out and "(3 spans)" in out
        assert "lp.highs" in out and "engine.cache.get" in out
        assert "sum of self-time deltas: -0.000700s" in out
        assert "sum of self times" not in out

    def test_cli_exits_on_a_missing_trace(self, tmp_path):
        cold = tmp_path / "cold.json"
        cold.write_text(json.dumps(COLD))
        with pytest.raises(SystemExit, match="trace file not found"):
            main(["obs", "diff", str(cold), str(tmp_path / "missing.json")])
