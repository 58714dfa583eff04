"""One phase of a benchmark workload, run in a fresh interpreter.

    python3 perfbench/worker.py SPEC.json

``run.py`` writes the spec and reads the JSON result the worker writes
to ``spec["out"]``.  Phases:

- ``setup``: import every ``repro`` module (and, for the engine cases,
  build the circuits and compile their plans), then exit.
- ``fill``: compile the physical CNT-FET surrogate into the disk cache.
- ``cli``: run CLI experiment runners (``fig4``, ``cascade:physical``,
  or ``*`` for all of ``repro.cli.EXPERIMENTS`` then
  ``PHYSICAL_EXPERIMENTS``) and return their rows.
- ``engines``: run the circuit-engine cases in passes until
  ``spec["seconds"]`` is spent (at least ``MIN_PASSES``).

Every phase reports ``setup_done``, the monotonic clock when set-up
ended, so the parent can time set-up from process spawn.
With ``spec["trace"]`` the layer wrappers of :mod:`spans` record the
timed phase only.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path
from time import perf_counter

from spans import Tracer, import_all, instrument

MIN_PASSES = 3


def _cli_runner(item: str):
    from repro.cli import EXPERIMENTS, PHYSICAL_EXPERIMENTS

    name, _, variant = item.partition(":")
    return PHYSICAL_EXPERIMENTS[name] if variant == "physical" else EXPERIMENTS[name][1]


def _expand(items: list[str]) -> list[str]:
    from repro.cli import EXPERIMENTS, PHYSICAL_EXPERIMENTS

    if items == ["*"]:
        return list(EXPERIMENTS) + [f"{name}:physical" for name in PHYSICAL_EXPERIMENTS]
    return items


def _run_cli(spec: dict, tracer: Tracer | None) -> dict:
    items = []
    for item in _expand(spec["items"]):
        runner = _cli_runner(item)
        error = None
        if tracer is not None:
            tracer.enabled = True
            span = tracer.open("experiments")
        start = perf_counter()
        try:
            rows = [[row[0], *(float(v) for v in row[1:])] for row in runner()]
        except Exception as exc:  # noqa: BLE001 - a failed experiment is a result
            rows, error = [], f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
        if tracer is not None:
            tracer.close(span, "experiments")
            tracer.enabled = False
        items.append({"name": item, "seconds": seconds, "rows": rows, "error": error})
    return {"items": items}


def _run_engines(spec: dict, cases, tracer: Tracer | None) -> dict:
    import engines

    passes, digests, problems = [], {}, []
    attempted = failed = 0
    deadline = perf_counter() + spec["seconds"]
    while len(passes) < MIN_PASSES or perf_counter() < deadline:
        times = {}
        for case in cases:
            if tracer is not None:
                tracer.enabled = True
            start = perf_counter()
            result = case.run()
            times[case.name] = perf_counter() - start
            if tracer is not None:
                tracer.enabled = False
            tried, lost, digest, found = engines.outcome(case, result)
            attempted += tried
            failed += lost
            problems += found
            if digests.setdefault(case.name, digest) != digest:
                failed += 1
                problems.append(f"{case.name}: result changed between passes")
        passes.append(times)
    out = {
        "passes": passes,
        "digests": digests,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }
    if spec.get("probe_supervisor"):
        out["supervised_over_raw"] = engines.supervised_over_raw(cases[0])
    return out


def _fill() -> None:
    from repro.devices.cntfet import CNTFET
    from repro.devices.surrogate import compile_surrogate
    from repro.experiments.cascade import physical_saturating_fet

    compile_surrogate(CNTFET.reference_device())
    physical_saturating_fet()


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[0]).read_text())
    phase = spec["phase"]
    tracer = None
    if spec.get("trace"):
        tracer = Tracer()
        instrument(tracer)
    else:
        import_all()
    cases = None
    if spec["workload"] == "circuit_engines" and phase != "fill":
        import engines

        cases = engines.build(spec["seed"])
    setup_done = time.monotonic()
    if phase == "fill":
        _fill()
        out: dict = {}
    elif phase == "setup":
        out = {}
    elif cases is not None:
        out = _run_engines(spec, cases, tracer)
    else:
        out = _run_cli(spec, tracer)
    out["setup_done"] = setup_done
    if tracer is not None:
        out["trace"] = tracer.raw()
    out["environment"] = environment()
    Path(spec["out"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
