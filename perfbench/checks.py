"""Output checks: golden comparison, sanity checks and bitwise identity.

An experiment with a snapshot under ``tests/golden/<name>.json`` is held
to it at the golden suite's tolerances (1e-6 relative, 1e-12 absolute);
wall-clock rows are pinned by label only.  The goldens are read, never
written.  An experiment without a golden gets weaker checks: unique
non-empty labels, finite values, and physically signed quantities
(currents, densities, on/off ratios) positive.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

__all__ = [
    "RELATIVE_TOLERANCE",
    "ABSOLUTE_TOLERANCE",
    "WALL_CLOCK_MARKER",
    "check_experiment",
    "compare_golden",
    "sanity_problems",
    "bitwise_problems",
]

RELATIVE_TOLERANCE = 1e-6
ABSOLUTE_TOLERANCE = 1e-12

# Label suffix of machine-dependent timing rows
# (repro.experiments.surrogate_report.WALL_CLOCK_SUFFIX).
WALL_CLOCK_MARKER = "[wall-clock]"

# Labels of quantities that are positive by construction.
_SIGNED = re.compile(
    r"current|density|on/off|Ion/Ioff|I_on|I\(|\[(?:[unm])?A(?:/um)?\]", re.IGNORECASE
)


def _close(current: float, expected: float) -> bool:
    """pytest.approx semantics: |c - e| <= max(rel * |e|, abs)."""
    return abs(current - expected) <= max(
        RELATIVE_TOLERANCE * abs(expected), ABSOLUTE_TOLERANCE
    )


def _timing_ok(values) -> bool:
    return all(math.isfinite(v) and v > 0.0 for v in values)


def compare_golden(name: str, rows: list[list], golden: list[list]) -> list[str]:
    """Differences between an experiment's rows and its golden snapshot."""
    labels = [row[0] for row in rows]
    expected_labels = [row[0] for row in golden]
    if labels != expected_labels:
        return [f"{name}: row labels differ from the golden: {labels!r}"]
    problems = []
    for current, expected in zip(rows, golden):
        label, values = current[0], current[1:]
        if WALL_CLOCK_MARKER in label:
            if not _timing_ok(values):
                problems.append(f"{name}: wall-clock row {label!r} is not a positive time")
        elif len(values) != len(expected) - 1 or not all(
            _close(v, e) for v, e in zip(values, expected[1:])
        ):
            problems.append(f"{name}: row {label!r} = {values} drifted from {expected[1:]}")
    return problems


def sanity_problems(name: str, rows: list[list]) -> list[str]:
    """Checks for an experiment without a golden snapshot.

    Every value must be finite, except that a column before the last
    may hold NaN (a reference column with no claim, as in table1).
    """
    if not rows:
        return [f"{name}: no rows"]
    labels = [row[0] for row in rows]
    problems = []
    if not all(isinstance(label, str) and label.strip() for label in labels):
        problems.append(f"{name}: empty or non-text label")
    if len(set(labels)) != len(labels):
        problems.append(f"{name}: duplicate labels")
    for label, *values in rows:
        if not values:
            problems.append(f"{name}: row {label!r} has no value")
            continue
        *reference, measured = values
        if not math.isfinite(measured) or any(math.isinf(v) for v in reference):
            problems.append(f"{name}: row {label!r} is not finite: {values}")
        elif WALL_CLOCK_MARKER in label and not _timing_ok(values):
            problems.append(f"{name}: wall-clock row {label!r} is not a positive time")
        elif _SIGNED.search(label) and not measured > 0.0:
            problems.append(f"{name}: row {label!r} should be positive: {measured}")
    return problems


def check_experiment(name: str, rows: list[list], golden_dir: Path) -> list[str]:
    """Golden comparison when a snapshot exists, sanity checks otherwise."""
    path = Path(golden_dir) / f"{name}.json"
    if path.exists():
        return compare_golden(name, rows, json.loads(path.read_text()))
    return sanity_problems(name, rows)


def bitwise_problems(name: str, rows: list[list], other: list[list]) -> list[str]:
    """Rows that differ bit for bit between two runs (wall-clock rows by label)."""
    if [row[0] for row in rows] != [row[0] for row in other]:
        return [f"{name}: row labels differ between the traced and untraced runs"]
    problems = []
    for current, reference in zip(rows, other):
        if WALL_CLOCK_MARKER in current[0]:
            continue
        if [float(v).hex() for v in current[1:]] != [
            float(v).hex() for v in reference[1:]
        ]:
            problems.append(f"{name}: row {current[0]!r} differs when traced")
    return problems
