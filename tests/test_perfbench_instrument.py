"""The benchmark harness's layer wrappers still find their entry points.

``perfbench/spans.py`` wraps package functions and methods by name
(``newton_solve``, ``_newton_batch``, ``_evaluate_batch``,
``evaluate``, ``evaluate_many``, ``transient``, ``structural_seed``,
``solve_dc_robust``, ...).  Renaming or removing one breaks traced
benchmark runs; this test installs the wrappers in a fresh interpreter
against ``src/`` so the break shows in the test suite.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_instrument_installs_every_wrapper():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT / "perfbench")]
    )
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave the harness directory as it is
    completed = subprocess.run(
        [sys.executable, "-c", "import spans; spans.instrument(spans.Tracer())"],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
