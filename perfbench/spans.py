"""In-memory span tracer and the layer instrumentation of traced runs.

Spans are recorded from outside the program: :func:`instrument` wraps
entry points of each ``repro`` layer (class methods and module-level
functions) with thin pass-through wrappers, so nothing under ``src/``
changes and the wrapped calls return exactly what they would return
untraced.  Every span stores its name, start, end and the span that was
open when it began (its parent).  A layer's self time is the sum over
its spans of the span's duration minus the durations of its direct
children.

Layers and the entry points that open their spans:

- ``transport``: ``TopOfBarrierSolver.solve`` (scalar twin) and
  ``currents``/``solve_currents``/``grid_currents`` (batched), the
  tunneling transmission functions.
- ``devices``: ``TabulatedFET.from_model``, ``compile_surrogate``, every
  ``linearize``/``linearize_point`` of the ``FETModel`` tree and the
  ``SeriesResistanceFET`` current.
- ``stamp``: ``StampPlan.evaluate``/``evaluate_many`` and the batched
  engines' stacked evaluation.
- ``continuation``: ``structural_seed`` and ``solve_dc_robust``.
- ``newton``: ``newton_solve`` and the batched engines' Newton.
- ``factor``: the SuperLU/LAPACK entry points the circuit modules call
  (``splu``, ``lu_factor``, ``dgesv``, ``qz`` and ``numpy.linalg.solve``
  when called from ``repro.circuit``).
- ``transient``, ``ac``, ``sweep`` and ``experiments``: the public
  analysis, Monte Carlo and experiment functions.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
from array import array
from time import perf_counter

import numpy as np

__all__ = ["Tracer", "import_all", "instrument", "layer_metrics", "merge"]


class Tracer:
    """Spans with parent links, kept in flat arrays until the run ends."""

    def __init__(self) -> None:
        self.enabled = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.open_count: dict[str, int] = {}
        self.counters: dict[str, float] = {}

    def open(self, name: str) -> int:
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(index)
        self.open_count[name] = self.open_count.get(name, 0) + 1
        self.start.append(perf_counter())
        return index

    def close(self, index: int, name: str) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()
        self.open_count[name] -= 1

    def is_open(self, name: str) -> bool:
        return self.open_count.get(name, 0) > 0

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def self_seconds(self) -> dict[str, float]:
        """Self time per span name: durations minus direct children."""
        n = len(self.start)
        if n == 0:
            return {}
        duration = np.frombuffer(self.end, dtype=float) - np.frombuffer(
            self.start, dtype=float
        )
        parent = np.frombuffer(self.parent, dtype=np.intc)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested], minlength=n)
        own = duration - children
        totals = np.bincount(
            np.frombuffer(self.name_id, dtype=np.intc),
            weights=own,
            minlength=len(self.names),
        )
        return {name: float(total) for name, total in zip(self.names, totals)}

    def raw(self) -> dict:
        """Self seconds per span name and the counters, JSON-ready."""
        return {"self_s": self.self_seconds(), "counters": dict(self.counters)}


def _wrap(tracer: Tracer, fn, name: str, before=None, after=None):
    """Pass-through wrapper opening a ``name`` span around ``fn``.

    ``before(args, kwargs)`` runs before the call and its return value
    reaches ``after(outermost, token, args, kwargs, result)``, which
    runs after the span closed; ``outermost`` tells whether no other
    span of the same name was open at entry.
    """

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        outermost = not tracer.is_open(name)
        token = before(args, kwargs) if before is not None else None
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index, name)
        if after is not None:
            after(outermost, token, args, kwargs, result)
        return result

    return traced


def _repro_modules() -> list:
    return [
        module
        for module_name, module in list(sys.modules.items())
        if module is not None
        and (module_name == "repro" or module_name.startswith("repro."))
    ]


def _patch_function(tracer: Tracer, module, attribute: str, name: str, **hooks):
    """Wrap a module-level function everywhere ``repro`` bound it by name."""
    original = getattr(module, attribute)
    traced = _wrap(tracer, original, name, **hooks)
    for owner in _repro_modules() + [module]:
        for key, value in list(vars(owner).items()):
            if value is original:
                setattr(owner, key, traced)
    return traced


def _patch_method(tracer: Tracer, cls, attribute: str, name: str, **hooks) -> None:
    raw = cls.__dict__[attribute]
    if isinstance(raw, classmethod):
        setattr(cls, attribute, classmethod(_wrap(tracer, raw.__func__, name, **hooks)))
    else:
        setattr(cls, attribute, _wrap(tracer, raw, name, **hooks))


def _subclasses(cls) -> list:
    found, pending = [], [cls]
    while pending:
        current = pending.pop()
        found.append(current)
        pending.extend(current.__subclasses__())
    return found


def import_all() -> None:
    """Import every ``repro`` module except the linter (the set-up phase)."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.startswith("repro.lint"):
            importlib.import_module(info.name)


def instrument(tracer: Tracer) -> None:
    """Install the layer wrappers; spans record while ``tracer.enabled``."""
    import_all()
    import scipy.linalg
    import scipy.linalg.lapack
    import scipy.sparse.linalg

    # By module path: repro.circuit re-exports a function named transient.
    (ac, assembly, continuation, resilience, solver, sweep, transient) = (
        sys.modules[f"repro.circuit.{name}"]
        for name in (
            "ac", "assembly", "continuation", "resilience", "solver", "sweep",
            "transient",
        )
    )
    base, contacts, surrogate = (
        sys.modules[f"repro.devices.{name}"] for name in ("base", "contacts", "surrogate")
    )
    ballistic = sys.modules["repro.transport.ballistic"]
    tunneling = sys.modules["repro.transport.tunneling"]

    count = tracer.count

    # -- transport ------------------------------------------------------
    def solved(outermost, token, args, kwargs, result):
        count("transport.solve.calls")
        count("transport.solve.iters", result.iterations)

    def batched(outermost, token, args, kwargs, result):
        count("transport.batched.points", float(np.size(result[0])))

    solver_cls = ballistic.TopOfBarrierSolver
    _patch_method(tracer, solver_cls, "solve", "transport.solve", after=solved)
    _patch_method(tracer, solver_cls, "solve_currents", "transport.batched", after=batched)
    for attribute in ("currents", "grid_currents"):
        _patch_method(tracer, solver_cls, attribute, "transport.batched")
    for attribute in (
        "imaginary_dispersion_per_m",
        "wkb_transmission_uniform_field",
        "junction_btbt_transmission",
    ):
        _patch_function(tracer, tunneling, attribute, "transport.tunneling")

    # -- devices --------------------------------------------------------
    def tabulated(outermost, token, args, kwargs, result):
        count("devices.tabulate.calls")

    _patch_method(
        tracer, surrogate.TabulatedFET, "from_model", "devices.tabulate", after=tabulated
    )

    served: list = []  # surrogates already returned: a repeat is a memory hit

    def compile_before(args, kwargs):
        return tracer.counters.get("devices.surrogate.grid_calls", 0.0)

    def compiled(outermost, token, args, kwargs, result):
        if not outermost:
            return
        count("devices.surrogate.compiles")
        table = result.nfet if isinstance(result, base.PType) else result
        if tracer.counters.get("devices.surrogate.grid_calls", 0.0) > token:
            count("devices.surrogate.fills")
        elif any(table is seen for seen in served):
            count("devices.surrogate.memory_hits")
        else:
            count("devices.surrogate.disk_hits")
        served.append(table)

    _patch_function(
        tracer, surrogate, "compile_surrogate", "devices.surrogate",
        before=compile_before, after=compiled,
    )

    def linearized(outermost, token, args, kwargs, result):
        if outermost:
            count("devices.linearize.calls")
            count("devices.linearize.rows", float(np.size(result[0])))

    def grid_probe(fn):
        # Counts table-fill calls made inside a compile; opens no span.
        @functools.wraps(fn)
        def probed(*args, **kwargs):
            if tracer.enabled and tracer.is_open("devices.surrogate"):
                count("devices.surrogate.grid_calls")
            return fn(*args, **kwargs)

        return probed

    for cls in _subclasses(base.FETModel):
        for attribute in ("linearize", "linearize_point"):
            if attribute in cls.__dict__:
                _patch_method(tracer, cls, attribute, "devices.linearize", after=linearized)
        if "grid_currents" in cls.__dict__:
            cls.grid_currents = grid_probe(cls.__dict__["grid_currents"])
    for attribute in ("current", "currents"):
        if attribute in contacts.SeriesResistanceFET.__dict__:
            _patch_method(tracer, contacts.SeriesResistanceFET, attribute, "devices.series_r")

    # -- stamp / newton / continuation ----------------------------------
    def stamped(key):
        def after(outermost, token, args, kwargs, result):
            count(f"{key}.calls")
            if tracer.is_open("newton"):
                count("newton.evals")

        return after

    plan_cls = assembly.StampPlan
    _patch_method(
        tracer, plan_cls, "evaluate", "stamp.evaluate", after=stamped("stamp.evaluate")
    )
    _patch_method(
        tracer, plan_cls, "evaluate_many", "stamp.evaluate",
        after=stamped("stamp.evaluate_many"),
    )
    _patch_method(
        tracer, sweep._BatchedNewtonEngine, "_evaluate_batch", "stamp.evaluate_batch",
        after=stamped("stamp.evaluate_batch"),
    )

    def newton_done(outermost, token, args, kwargs, result):
        if outermost:
            count("newton.solves")

    _patch_function(tracer, solver, "newton_solve", "newton", after=newton_done)
    _patch_method(
        tracer, sweep._BatchedNewtonEngine, "_newton_batch", "newton", after=newton_done
    )

    def seeded(outermost, token, args, kwargs, result):
        count("continuation.seed.calls")

    _patch_function(
        tracer, continuation, "structural_seed", "continuation.seed", after=seeded
    )
    _patch_function(
        tracer, continuation, "solve_dc_robust", "continuation.solve_dc_robust"
    )

    # -- factor: the SuperLU/LAPACK entry points of repro.circuit ----------
    def factored(outermost, token, args, kwargs, result):
        count("factor.calls")

    for module in (assembly, solver, ac, sweep, transient, continuation):
        for attribute, entry in (
            ("splu", scipy.sparse.linalg.splu),
            ("lu_factor", scipy.linalg.lu_factor),
            ("dgesv", scipy.linalg.lapack.dgesv),
            ("qz", scipy.linalg.qz),
        ):
            if vars(module).get(attribute) is entry:
                setattr(module, attribute, _wrap(tracer, entry, "factor", after=factored))
    numpy_solve = np.linalg.solve
    traced_solve = _wrap(tracer, numpy_solve, "factor", after=factored)

    @functools.wraps(numpy_solve)
    def linalg_solve(*args, **kwargs):
        caller = sys._getframe(1).f_globals.get("__name__", "")
        if caller.startswith("repro.circuit"):
            return traced_solve(*args, **kwargs)
        return numpy_solve(*args, **kwargs)

    np.linalg.solve = linalg_solve

    # -- transient / ac / sweep ------------------------------------------
    def stepped(outermost, token, args, kwargs, result):
        if outermost:
            count("transient.steps", float(result.time_s.size - 1))

    _patch_function(tracer, transient, "transient", "transient", after=stepped)

    def swept(outermost, token, args, kwargs, result):
        count("ac.points", float(result.shape[0]))

    def swept_batch(outermost, token, args, kwargs, result):
        converged = int(np.count_nonzero(result.converged))
        count("ac.points", float(result.frequencies_hz.size * converged))

    _patch_method(tracer, ac.ACPlan, "sweep_samples", "ac", after=swept)
    _patch_function(tracer, ac, "ac_analysis", "ac")
    _patch_function(tracer, ac, "ac_monte_carlo", "ac", after=swept_batch)

    def mc_done(outermost, token, args, kwargs, result):
        if outermost:
            count("sweep.mc.instances", float(result.n_instances))
            count("sweep.mc.converged", float(result.n_converged))

    for cls in (sweep.CircuitMonteCarlo, sweep.CircuitTransientMC):
        _patch_method(tracer, cls, "run", "sweep.mc", after=mc_done)
    for attribute in ("run", "run_supervised"):
        _patch_method(tracer, sweep.SweepPlan, attribute, "sweep.plan")
    _patch_function(tracer, resilience, "run_supervised", "sweep.plan")

    # -- experiments: public functions of the experiment modules ----------
    for module in _repro_modules():
        module_name = module.__name__
        if not (
            module_name.startswith(("repro.experiments.", "repro.analysis."))
            or module_name == "repro.benchmarking.fig5"
        ):
            continue
        for attribute, value in list(vars(module).items()):
            if (
                not attribute.startswith("_")
                and callable(value)
                and not isinstance(value, type)
                and getattr(value, "__module__", None) == module_name
                and not hasattr(value, "__wrapped__")
            ):
                _patch_function(tracer, module, attribute, "experiments")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def merge(raws: list[dict]) -> dict:
    """Sum the raw ``{"self_s": ..., "counters": ...}`` of several runs."""
    merged: dict = {"self_s": {}, "counters": {}}
    for raw in raws:
        for part in ("self_s", "counters"):
            for key, value in raw[part].items():
                merged[part][key] = merged[part].get(key, 0.0) + value
    return merged


def layer_metrics(raw: dict, passes: int = 1) -> dict[str, float]:
    """Per-layer figures of traced runs, per pass over the workload.

    ``raw`` holds the self seconds per span name and the counters
    (:meth:`Tracer.raw`, or several runs summed by :func:`merge`).  A
    ratio whose base is zero on this workload reads 0.
    """
    own, c = raw["self_s"], raw["counters"]

    def seconds(name: str) -> float:
        return own.get(name, 0.0) / passes

    def counter(key: str) -> float:
        return c.get(key, 0.0) / passes

    disk = c.get("devices.surrogate.disk_hits", 0.0)
    fills = c.get("devices.surrogate.fills", 0.0)
    return {
        "transport.solve.calls": counter("transport.solve.calls"),
        "transport.solve.self_s": seconds("transport.solve"),
        "transport.solve.iters_mean": _ratio(
            c.get("transport.solve.iters", 0.0), c.get("transport.solve.calls", 0.0)
        ),
        "transport.batched.points": counter("transport.batched.points"),
        "transport.batched.self_s": seconds("transport.batched"),
        "transport.tunneling.self_s": seconds("transport.tunneling"),
        "devices.tabulate.calls": counter("devices.tabulate.calls"),
        "devices.tabulate.self_s": seconds("devices.tabulate"),
        "devices.surrogate.compiles": counter("devices.surrogate.compiles"),
        "devices.surrogate.fills": counter("devices.surrogate.fills"),
        "devices.surrogate.hit_ratio": _ratio(disk, disk + fills),
        "devices.surrogate.self_s": seconds("devices.surrogate"),
        "devices.linearize.calls": counter("devices.linearize.calls"),
        "devices.linearize.rows": counter("devices.linearize.rows"),
        "devices.linearize.self_s": seconds("devices.linearize"),
        "devices.series_r.self_s": seconds("devices.series_r"),
        "stamp.evaluate.calls": counter("stamp.evaluate.calls"),
        "stamp.evaluate.self_s": seconds("stamp.evaluate"),
        "stamp.evaluate_many.calls": counter("stamp.evaluate_many.calls"),
        "stamp.evaluate_batch.calls": counter("stamp.evaluate_batch.calls"),
        "stamp.evaluate_batch.self_s": seconds("stamp.evaluate_batch"),
        "continuation.seed.calls": counter("continuation.seed.calls"),
        "continuation.seed.self_s": seconds("continuation.seed"),
        "continuation.solve_dc_robust.self_s": seconds("continuation.solve_dc_robust"),
        "newton.solves": counter("newton.solves"),
        "newton.evals_per_solve": _ratio(
            c.get("newton.evals", 0.0), c.get("newton.solves", 0.0)
        ),
        "newton.self_s": seconds("newton"),
        "factor.calls": counter("factor.calls"),
        "factor.self_s": seconds("factor"),
        "sweep.mc.instances": counter("sweep.mc.instances"),
        "sweep.mc.converged_ratio": _ratio(
            c.get("sweep.mc.converged", 0.0), c.get("sweep.mc.instances", 0.0)
        ),
        "sweep.mc.self_s": seconds("sweep.mc") + seconds("sweep.plan"),
        "ac.points": counter("ac.points"),
        "ac.self_s": seconds("ac"),
        "transient.steps": counter("transient.steps"),
        "transient.self_s": seconds("transient"),
        "experiments.self_s": seconds("experiments"),
    }
