"""Benchmark-suite helpers: uniform row printing for figure regeneration."""

from __future__ import annotations


def print_rows(title: str, rows) -> None:
    """Print (label, value...) rows in the format EXPERIMENTS.md quotes.

    Rows holding a None value (a timing under ``--benchmark-disable``)
    are left out.
    """
    print(f"\n=== {title} ===")
    for row in rows:
        label, *values = row
        if any(v is None for v in values):
            continue
        rendered = "  ".join(
            f"{v:.6g}" if isinstance(v, float) else str(v) for v in values
        )
        print(f"  {label:45s} {rendered}")


def timing_s(benchmark, scale: float = 1.0, statistic: str = "mean"):
    """The benchmark's timing statistic [s] times ``scale``, or None.

    Under ``--benchmark-disable`` the fixture runs the function once,
    untimed, and leaves ``benchmark.stats`` as None; callers then skip
    their timing rows and speed ratios, and keep every other check.
    """
    if benchmark.stats is None:
        return None
    return getattr(benchmark.stats.stats, statistic) * scale
