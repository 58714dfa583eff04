"""Self-tests of the benchmark harness: span arithmetic, checks, failure counts.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import engines  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def _spans(tracer, layout):
    """Record spans from ``(name, start, end, parent_index)`` tuples."""
    for name, start, end, parent in layout:
        name_id = tracer._ids.setdefault(name, len(tracer.names))
        if name_id == len(tracer.names):
            tracer.names.append(name)
        tracer.name_id.append(name_id)
        tracer.parent.append(parent)
        tracer.start.append(start)
        tracer.end.append(end)


class TestSelfTime:
    def test_nested_spans_subtract_direct_children_only(self):
        tracer = spans.Tracer()
        _spans(
            tracer,
            [
                ("sweep.mc", 0.0, 10.0, -1),  # 0
                ("newton", 1.0, 7.0, 0),  # 1
                ("stamp.evaluate", 2.0, 4.0, 1),  # 2
                ("devices.linearize", 2.5, 3.0, 2),  # 3
                ("factor", 5.0, 6.0, 1),  # 4
                ("stamp.evaluate", 8.0, 9.0, 0),  # 5
            ],
        )
        own = tracer.self_seconds()
        assert own["sweep.mc"] == pytest.approx(10.0 - 6.0 - 1.0)
        assert own["newton"] == pytest.approx(6.0 - 2.0 - 1.0)
        assert own["stamp.evaluate"] == pytest.approx((2.0 - 0.5) + 1.0)
        assert own["devices.linearize"] == pytest.approx(0.5)
        assert own["factor"] == pytest.approx(1.0)
        assert sum(own.values()) == pytest.approx(10.0)

    def test_recursive_spans_of_one_name_are_not_double_counted(self):
        tracer = spans.Tracer()
        _spans(tracer, [("devices.linearize", 0.0, 4.0, -1), ("devices.linearize", 1.0, 3.0, 0)])
        assert tracer.self_seconds() == {"devices.linearize": pytest.approx(4.0)}

    def test_live_wrappers_record_parent_links_and_counts(self):
        tracer = spans.Tracer()
        inner = spans._wrap(tracer, lambda x: x + 1, "factor")
        outer = spans._wrap(
            tracer,
            lambda x: inner(x) * 2,
            "newton",
            after=lambda outermost, token, args, kwargs, result: tracer.count(
                "newton.solves"
            ),
        )
        assert outer(1) == 4  # disabled: a plain pass-through
        assert len(tracer.start) == 0
        tracer.enabled = True
        assert outer(1) == 4
        assert list(tracer.parent) == [-1, 0]
        assert tracer.counters == {"newton.solves": 1.0}
        metrics = spans.layer_metrics(tracer.raw())
        assert metrics["newton.solves"] == 1.0
        assert metrics["newton.self_s"] >= 0.0 and metrics["factor.self_s"] >= 0.0

    def test_merge_and_per_pass_ratios(self):
        first = {"self_s": {"factor": 1.0}, "counters": {"factor.calls": 4.0}}
        second = {
            "self_s": {"factor": 3.0},
            "counters": {"factor.calls": 4.0, "sweep.mc.instances": 10.0,
                         "sweep.mc.converged": 9.0},
        }
        metrics = spans.layer_metrics(spans.merge([first, second]), passes=2)
        assert metrics["factor.self_s"] == pytest.approx(2.0)
        assert metrics["factor.calls"] == pytest.approx(4.0)
        assert metrics["sweep.mc.converged_ratio"] == pytest.approx(0.9)
        assert metrics["devices.surrogate.hit_ratio"] == 0.0  # no compiles: base 0


GOLDEN_ROWS = [["NM_low [V]", 0.4367], ["max |gain|", 33.0], ["speedup [wall-clock]", 250.0]]


class TestGoldenComparison:
    def test_identical_rows_pass_and_wall_clock_rows_pin_labels_only(self):
        rows = [list(row) for row in GOLDEN_ROWS]
        rows[2][1] = 3.0  # machine-dependent timing
        assert checks.compare_golden("x", rows, GOLDEN_ROWS) == []

    def test_perturbed_row_is_caught(self):
        rows = [list(row) for row in GOLDEN_ROWS]
        rows[1][1] *= 1.0 + 1e-5
        problems = checks.compare_golden("x", rows, GOLDEN_ROWS)
        assert len(problems) == 1 and "max |gain|" in problems[0]

    def test_drift_inside_the_tolerance_passes(self):
        rows = [list(row) for row in GOLDEN_ROWS]
        rows[1][1] *= 1.0 + 1e-7
        assert checks.compare_golden("x", rows, GOLDEN_ROWS) == []

    def test_renamed_label_is_caught(self):
        rows = [list(row) for row in GOLDEN_ROWS]
        rows[0][0] = "NM_low [mV]"
        problems = checks.compare_golden("x", rows, GOLDEN_ROWS)
        assert len(problems) == 1 and "labels" in problems[0]

    def test_golden_file_is_used_when_present(self, tmp_path):
        (tmp_path / "fig2.json").write_text(json.dumps(GOLDEN_ROWS))
        rows = [list(row) for row in GOLDEN_ROWS]
        rows[0][1] = 0.5
        assert checks.check_experiment("fig2", rows, tmp_path)
        # Without a golden the weaker checks accept the same rows.
        assert checks.check_experiment("fig9", rows, tmp_path) == []


class TestSanityChecks:
    def test_negative_current_and_non_finite_values_fail(self):
        rows = [["ideal I_on [uA]", -3.0], ["delay [ps]", math.inf]]
        problems = checks.sanity_problems("fig4", rows)
        assert len(problems) == 2

    def test_reference_column_may_be_nan_but_measured_may_not(self):
        assert checks.sanity_problems("table1", [["9 nm SS [mV/dec]", math.nan, 71.6]]) == []
        assert checks.sanity_problems("table1", [["9 nm SS [mV/dec]", 94.0, math.nan]])

    def test_duplicate_labels_fail(self):
        assert checks.sanity_problems("x", [["a", 1.0], ["a", 2.0]])

    def test_bitwise_comparison_ignores_wall_clock_values_only(self):
        rows = [["a", 0.1 + 0.2], ["t [wall-clock]", 1.0]]
        same = [["a", 0.30000000000000004], ["t [wall-clock]", 2.0]]
        assert checks.bitwise_problems("x", rows, same) == []
        assert checks.bitwise_problems("x", rows, [["a", 0.3], ["t [wall-clock]", 1.0]])


class TestFailureCount:
    def _case(self):
        return engines.Case("dc_mc_dense", lambda: None, "mc")

    def test_unconverged_instance_counts_as_one_failure(self):
        result = SimpleNamespace(
            x=np.ones((4, 3)), converged=np.array([True, True, False, True])
        )
        attempted, failed, _, problems = engines.outcome(self._case(), result)
        assert (attempted, failed) == (4, 1)
        assert problems

    def test_non_finite_converged_instance_counts_as_failure(self):
        x = np.ones((3, 2))
        x[1, 0] = np.nan
        result = SimpleNamespace(x=x, converged=np.ones(3, dtype=bool))
        assert engines.outcome(self._case(), result)[:2] == (3, 1)

    def test_clean_batch_has_no_failures(self):
        result = SimpleNamespace(x=np.zeros((5, 2)), converged=np.ones(5, dtype=bool))
        assert engines.outcome(self._case(), result)[:2] == (5, 0)


class TestContract:
    def _declared(self, kind):
        doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        return [(m["name"], m["unit"]) for m in doc[kind]]

    def test_per_layer_metrics_are_the_declared_ones(self):
        plain, traced = run.Outcome(), run.Outcome()
        plain.samples = {"fig4": [2.0, 2.5, 1.5]}
        traced.samples = {"fig4": [2.0]}
        traced.results = [{"trace": {"self_s": {}, "counters": {}}}]
        traced.passes = 1
        metrics = run._per_layer(plain, traced, 0.0)
        assert [(k, v["unit"]) for k, v in metrics.items()] == self._declared("per_layer")
        assert metrics["fig4_s"]["value"] == 2.0
        assert metrics["trace.overhead_ratio"]["value"] == 1.0

    def test_end_to_end_metrics_are_the_declared_ones(self):
        outcome = run.Outcome()
        outcome.samples = {"a": [1.0, 0.5, 9.0], "b": [4.0]}
        outcome.results = [{"peak_rss_mb": 90.0}, {"peak_rss_mb": 120.0}]
        metrics = run._end_to_end(outcome, [3.0, 1.0, 2.0])
        assert [(k, v["unit"]) for k, v in metrics.items()] == self._declared("end_to_end")
        assert metrics["wall_s"]["value"] == 5.0
        assert metrics["setup_s"]["value"] == 2.0
        assert metrics["peak_rss_mb"]["value"] == 120.0

    def test_failed_check_counts_against_attempted(self, tmp_path, monkeypatch):
        monkeypatch.setattr(run, "ROOT", tmp_path)
        outcome = run.Outcome()
        outcome.add(
            {
                "items": [
                    {"name": "fig4", "seconds": 1.0, "rows": [["I_on [uA]", -1.0]], "error": None},
                    {"name": "fig6", "seconds": 1.0, "rows": [], "error": "ValueError: x"},
                    {"name": "fig1", "seconds": 1.0, "rows": [["gap [eV]", 0.5]], "error": None},
                ]
            }
        )
        assert (outcome.attempted, outcome.failed) == (3, 2)

    def test_refuses_to_run_without_the_program(self, tmp_path):
        shutil.copytree(HERE, tmp_path / "perfbench")
        shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
        completed = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cli_cold",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=120,
        )
        assert completed.returncode != 0
        assert completed.stdout == ""
