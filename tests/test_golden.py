"""Golden-file regression net over the CLI experiment outputs.

Each snapshot under ``tests/golden/`` stores the exact ``(label,
value...)`` rows the CLI experiment registry produces — the same rows
``python -m repro <experiment>`` prints.  The suite holds the current
code to those committed numbers with tight tolerances, so large
refactors (like the batched sweep engine) stay bitwise-honest about the
artefacts they claim not to change.

After an *intentional* output change, regenerate with::

    PYTHONPATH=src python -m pytest tests/test_golden.py --update-golden

and commit the refreshed JSON alongside the change that explains it.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import EXPERIMENTS, PHYSICAL_EXPERIMENTS

GOLDEN_DIR = Path(__file__).parent / "golden"

# Every CLI experiment is snapshotted: the device-physics figures
# (fig1 CNT/GNR I-V, fig4 contact resistance, fig5 I_on benchmark, fig6
# tunnel FET), the technology table and supply-scaling study, the
# circuit-level artefacts the solver/assembly refactors must not move,
# the ablation sweeps, the seeded Section V Monte-Carlo pipeline and
# fabric-density study, the transient-MC timing rows, the
# spline-surrogate accuracy report, and the variation-aware RF
# comparison.
GOLDEN_EXPERIMENTS = (
    "fig1",
    "fig2",
    "fig4",
    "fig5",
    "fig6",
    "table1",
    "scaling",
    "fabric",
    "cascade",
    "ablations",
    "integration",
    "timing",
    "surrogate",
    "rf",
)

# The ``--physical`` stacks (the same experiments on the
# surrogate-compiled CNT-FET) are snapshotted as
# ``<name>-physical.json``, the name the benchmark's output check
# (perfbench/run.py) looks up for them.
PHYSICAL_GOLDEN_EXPERIMENTS = tuple(PHYSICAL_EXPERIMENTS)

# table1's reference column is NaN where the paper quotes no number.
# The benchmark's output check (perfbench/checks.py) reads
# ``tests/golden/<name>.json`` and treats NaN as a mismatch, so this
# snapshot is stored under a name it does not pick up.
GOLDEN_FILES = {"table1": "table1-claims.json"}


def _golden_path(name: str) -> Path:
    return GOLDEN_DIR / GOLDEN_FILES.get(name, f"{name}.json")


def _physical_golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}-physical.json"


# Tight by design: these runs are deterministic (fixed seeds, fixed
# grids); the relative slack only absorbs BLAS/libm rounding drift.
RELATIVE_TOLERANCE = 1e-6
ABSOLUTE_TOLERANCE = 1e-12

# Rows whose label carries this marker are machine-dependent timings
# (the surrogate speedup report): their labels are pinned, their values
# are only required to be finite and positive.
from repro.experiments.surrogate_report import WALL_CLOCK_SUFFIX as WALL_CLOCK_MARKER


def _rows_as_json(rows) -> list[list]:
    return [[row[0], *[float(v) for v in row[1:]]] for row in rows]


def _check_against_golden(name: str, rows, path: Path, request) -> None:
    rows = _rows_as_json(rows)
    if request.config.getoption("--update-golden", default=False):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(rows, indent=1) + "\n")
        pytest.skip(f"rewrote {path.name}")

    assert path.exists(), (
        f"missing golden file {path}; create it with "
        "pytest tests/test_golden.py --update-golden"
    )
    golden = json.loads(path.read_text())
    assert [row[0] for row in rows] == [row[0] for row in golden], (
        f"{name}: row labels changed — update the golden file if intentional"
    )
    for current, expected in zip(rows, golden):
        if WALL_CLOCK_MARKER in current[0]:
            assert all(v > 0.0 and v == v for v in current[1:]), (
                f"{name}: wall-clock row {current[0]!r} is not a positive time"
            )
            continue
        # nan_ok pins a NaN cell to NaN; finite cells stay at the tolerances.
        assert current[1:] == pytest.approx(
            expected[1:], rel=RELATIVE_TOLERANCE, abs=ABSOLUTE_TOLERANCE, nan_ok=True
        ), f"{name}: row {current[0]!r} drifted from golden"


@pytest.mark.parametrize("name", GOLDEN_EXPERIMENTS)
def test_cli_output_matches_golden(name, request):
    _check_against_golden(name, EXPERIMENTS[name][1](), _golden_path(name), request)


@pytest.mark.parametrize("name", PHYSICAL_GOLDEN_EXPERIMENTS)
def test_physical_output_matches_golden(name, request):
    _check_against_golden(
        f"{name} --physical",
        PHYSICAL_EXPERIMENTS[name](),
        _physical_golden_path(name),
        request,
    )


def test_golden_files_are_committed():
    """Every snapshotted experiment has its golden file in the tree."""
    paths = [_golden_path(name) for name in GOLDEN_EXPERIMENTS] + [
        _physical_golden_path(name) for name in PHYSICAL_GOLDEN_EXPERIMENTS
    ]
    missing = [path.name for path in paths if not path.exists()]
    assert not missing, f"golden files missing for: {missing}"
