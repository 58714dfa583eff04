"""Compiled stamp-plan assembly vs the dense reference evaluator.

The contract of :mod:`repro.circuit.assembly`: for every supported
circuit and every evaluation context (DC, transient companion models,
homotopy scalings), the compiled plan's residual and Jacobian match the
element-walking reference path to 1e-12.  Representative circuits cover
every element type, shared nodes, ground coupling, mixed n/p FET groups,
and both the dense and sparse assembly regimes.
"""

import numpy as np
import pytest

from repro.circuit.assembly import SPARSE_THRESHOLD, StampPlan, UnsupportedElement
from repro.circuit.elements import Element
from repro.circuit.netlist import Circuit
from repro.circuit.solver import newton_solve, solve_dc
from repro.circuit.waveforms import DC, Pulse, Sine
from repro.devices.base import PType
from repro.devices.empirical import AlphaPowerFET, NonSaturatingFET

ATOL = 1e-12


def rc_ladder(n_sections=4):
    c = Circuit("rc-ladder")
    c.add_voltage_source("V1", "n0", "0", Pulse(0.0, 1.0, rise_s=1e-11))
    for i in range(n_sections):
        c.add_resistor(f"R{i}", f"n{i}", f"n{i+1}", 1e3 * (i + 1))
        c.add_capacitor(f"C{i}", f"n{i+1}", "0", 1e-13)
    c.add_current_source("I1", "0", f"n{n_sections}", Sine(0.0, 1e-6, 1e9))
    return c


def inverter():
    c = Circuit("inverter")
    nfet = AlphaPowerFET()
    c.add_voltage_source("VDD", "vdd", "0", DC(1.0))
    c.add_voltage_source("VIN", "in", "0", DC(0.4))
    c.add_fet("MP", "out", "in", "vdd", PType(nfet))
    c.add_fet("MN", "out", "in", "0", nfet)
    c.add_capacitor("CL", "out", "0", 1e-14)
    return c


def mixed_chain(n_stages=5):
    """Chain mixing two different n-type models and their p mirrors."""
    c = Circuit("mixed-chain")
    models = (AlphaPowerFET(), NonSaturatingFET())
    c.add_voltage_source("VDD", "vdd", "0", DC(1.0))
    c.add_voltage_source("VIN", "s0", "0", DC(0.2))
    for i in range(n_stages):
        nfet = models[i % 2]
        c.add_fet(f"MP{i}", f"s{i+1}", f"s{i}", "vdd", PType(nfet))
        c.add_fet(f"MN{i}", f"s{i+1}", f"s{i}", "0", nfet)
        c.add_capacitor(f"C{i}", f"s{i+1}", "0", 1e-15)
    c.add_resistor("RL", f"s{n_stages}", "0", 1e6)
    return c


def single_fet():
    """One FET + one p-mirror FET, each alone in its device group.

    Two one-FET groups: the kernel's group-by-group layout at its
    smallest, against the element-walking reference.
    """
    c = Circuit("single-fet")
    c.add_voltage_source("VD", "d", "0", DC(0.8))
    c.add_voltage_source("VG", "g", "0", DC(0.5))
    c.add_fet("M1", "d", "g", "0", AlphaPowerFET())
    c.add_fet("M2", "d", "g", "0", PType(NonSaturatingFET()))
    c.add_resistor("RL", "d", "0", 1e5)
    return c


def big_ladder():
    """Resistor/FET ladder large enough to cross the sparse threshold."""
    c = Circuit("big-ladder")
    nfet = AlphaPowerFET()
    c.add_voltage_source("V1", "n0", "0", DC(1.0))
    n = SPARSE_THRESHOLD + 10
    for i in range(n):
        c.add_resistor(f"R{i}", f"n{i}", f"n{i+1}", 1e3)
        if i % 7 == 0:
            c.add_fet(f"M{i}", f"n{i+1}", f"n{i}", "0", nfet)
        if i % 5 == 0:
            c.add_capacitor(f"C{i}", f"n{i+1}", "0", 1e-14)
    return c


CIRCUITS = {
    "rc_ladder": rc_ladder,
    "inverter": inverter,
    "single_fet": single_fet,
    "mixed_chain": mixed_chain,
    "big_ladder": big_ladder,
}

CONTEXTS = {
    "dc": {},
    "dc_timed": dict(time_s=3e-10),
    "gmin": dict(gmin=1e-6),
    "source_step": dict(source_scale=0.35),
    "trapezoidal": dict(time_s=1e-10, dt_s=1e-12, integrator="trapezoidal"),
    "backward_euler": dict(time_s=1e-10, dt_s=1e-12, integrator="backward-euler"),
}


def _as_dense(jacobian):
    return jacobian.toarray() if hasattr(jacobian, "toarray") else np.array(jacobian)


@pytest.mark.parametrize("context", CONTEXTS)
@pytest.mark.parametrize("circuit_name", CIRCUITS)
def test_compiled_matches_reference(circuit_name, context):
    system = CIRCUITS[circuit_name]().build_system()
    rng = np.random.default_rng(hash(circuit_name) % 2**32)
    kwargs = dict(CONTEXTS[context])
    if "dt_s" in kwargs:
        kwargs["previous_x"] = rng.normal(scale=0.5, size=system.size)
        kwargs["history"] = np.array([
            rng.normal() * 1e-7 for _ in system._plan.cap_names
        ])
    for _ in range(3):
        x = rng.normal(scale=0.7, size=system.size)
        res_c, jac_c = system.evaluate(x, **kwargs)
        res_c, jac_c = res_c.copy(), _as_dense(jac_c)  # detach reused buffers
        res_d, jac_d = system.evaluate_dense(x, **kwargs)
        np.testing.assert_allclose(res_c, res_d, atol=ATOL, rtol=0.0)
        np.testing.assert_allclose(jac_c, jac_d, atol=ATOL, rtol=0.0)


@pytest.mark.parametrize("circuit_name", CIRCUITS)
def test_solutions_agree_between_paths(circuit_name):
    """Newton through the compiled path lands on a reference-path zero."""
    system = CIRCUITS[circuit_name]().build_system()
    x = solve_dc(system)
    residual, _ = system.evaluate_dense(x)
    assert np.max(np.abs(residual)) < 1e-9


def test_sparse_regime_uses_sparse_jacobian():
    system = big_ladder().build_system()
    assert system.size >= SPARSE_THRESHOLD
    _, jacobian = system.evaluate(np.zeros(system.size))
    assert hasattr(jacobian, "toarray")
    x, converged = newton_solve(system, np.zeros(system.size))
    assert converged
    residual, _ = system.evaluate_dense(x)
    assert np.max(np.abs(residual)) < 1e-9


def test_sparse_newton_caches_symbolic_analysis():
    """One symbolic ordering serves every factorization of a solve."""
    from scipy.sparse import identity
    from scipy.sparse.linalg import spsolve

    from repro.circuit.assembly import DIAG_REGULARIZATION

    system = big_ladder().build_system()
    plan = system._plan
    assert plan is not None and plan.use_sparse
    x, converged = newton_solve(system, np.zeros(system.size))
    assert converged
    # Many Newton factorizations, exactly one symbolic analysis.
    assert plan.sparse_schedule.n_symbolic == 1

    # The cached-ordering factorization solves the same linear system
    # scipy's from-scratch sparse solve does.
    residual, jacobian = system.evaluate(x + 0.01)
    residual = residual.copy()
    step = plan.solve_stack(jacobian.data[None].copy(), -residual[None])[0]
    regularized = jacobian + DIAG_REGULARIZATION * identity(system.size)
    reference = spsolve(regularized.tocsc(), -residual)
    np.testing.assert_allclose(step, reference, rtol=1e-9, atol=1e-12)
    assert plan.sparse_schedule.n_symbolic == 1


def test_plan_reuses_across_waveform_mutation():
    """dc_sweep-style waveform swaps are picked up by the compiled plan."""
    circuit = inverter()
    system = circuit.build_system()
    source = next(el for el in circuit.elements if el.name == "VIN")
    x = np.zeros(system.size)
    for level in (0.0, 0.5, 1.0):
        source.waveform = DC(level)
        res_c, _ = system.evaluate(x)
        res_c = res_c.copy()
        res_d, _ = system.evaluate_dense(x)
        np.testing.assert_allclose(res_c, res_d, atol=ATOL, rtol=0.0)


def test_capacitor_state_update_matches_reference():
    circuit = rc_ladder()
    system = circuit.build_system()
    plan = system._plan
    rng = np.random.default_rng(7)
    x = rng.normal(size=system.size)
    previous = rng.normal(size=system.size)
    history = np.array([rng.normal() * 1e-7 for _ in range(4)])

    history_plan = plan.cap_history_update(
        np.append(x, 0.0), np.append(previous, 0.0), 1e-12, "trapezoidal", history
    )

    from repro.circuit.elements import Capacitor, StampContext

    ctx = StampContext(
        system=system, x=x, residual=None, jacobian=None,
        dt_s=1e-12, previous_x=previous, integrator="trapezoidal",
        state=dict(zip(plan.cap_names, history)),
    )
    capacitors = [el for el in circuit.elements if isinstance(el, Capacitor)]
    assert [el.name for el in capacitors] == plan.cap_names
    for value, el in zip(history_plan, capacitors):
        assert value == pytest.approx(el.update_state(ctx), abs=1e-18)


def test_unsupported_element_is_rejected_at_build():
    class Shunt(Element):
        name = "X1"
        nodes = ("a",)

        def contribute(self, ctx):
            ctx.add_current("a", 1e-6)

    c = Circuit("custom")
    c.add_voltage_source("V1", "a", "0", DC(1.0))
    c.add_resistor("R1", "a", "0", 1e3)
    c.add(Shunt())
    with pytest.raises(UnsupportedElement, match="Shunt"):
        c.build_system()


def test_standalone_plan_compiles_small_circuits():
    """The plan itself is exercised even for circuits a heuristic might skip."""
    system = inverter().build_system()
    plan = StampPlan(system)
    x = np.full(system.size, 0.3)
    res_p, jac_p = plan.evaluate(x, gmin=1e-9)
    res_p, jac_p = res_p.copy(), _as_dense(jac_p)
    res_d, jac_d = system.evaluate_dense(x, gmin=1e-9)
    np.testing.assert_allclose(res_p, res_d, atol=ATOL, rtol=0.0)
    np.testing.assert_allclose(jac_p, jac_d, atol=ATOL, rtol=0.0)


def complementary_chain(n_stages):
    """Complementary inverter chain with load capacitors and a current source."""
    c = Circuit(f"chain-{n_stages}")
    nfet = AlphaPowerFET()
    c.add_voltage_source("VDD", "vdd", "0", DC(1.0))
    c.add_voltage_source("VIN", "s0", "0", DC(0.3))
    for i in range(n_stages):
        c.add_fet(f"MP{i}", f"s{i+1}", f"s{i}", "vdd", PType(nfet))
        c.add_fet(f"MN{i}", f"s{i+1}", f"s{i}", "0", nfet)
        c.add_capacitor(f"C{i}", f"s{i+1}", "0", 2e-15)
    c.add_current_source("IB", "vdd", f"s{n_stages}", DC(3e-6))
    return c


STACK_CONTEXTS = ("dc", "dc_gmin", "trapezoidal", "backward_euler_anchor")


def _stack_context(name, plan, rng, xs):
    """``(gmin, evaluate_many kwargs, _BatchContext)`` of one stack context."""
    from repro.circuit.sweep import _BatchContext

    m, size = xs.shape
    if name == "dc":
        return 0.0, {}, _BatchContext()
    if name == "dc_gmin":
        return 1e-6, dict(gmin=1e-6), _BatchContext()
    timing = dict(time_s=1e-10, dt_s=1e-12)
    if name == "trapezoidal":
        previous_x = rng.normal(scale=0.5, size=size)
        history = np.array([rng.normal() * 1e-7 for _ in plan.cap_names])
        prevpad = np.zeros((m, size + 1))
        prevpad[:] = np.append(previous_x, 0.0)
        kwargs = dict(
            timing, integrator="trapezoidal", previous_x=previous_x, history=history
        )
        ctx = _BatchContext(
            integrator="trapezoidal", prevpad=prevpad, history=np.tile(history, (m, 1)),
            **timing,
        )
        return 0.0, kwargs, ctx
    # Backward Euler anchored at each iterate (no previous solution).
    prevpad = np.zeros((m, size + 1))
    prevpad[:, :size] = xs
    kwargs = dict(timing, integrator="backward-euler")
    return 0.0, kwargs, _BatchContext(integrator="backward-euler", prevpad=prevpad, **timing)


@pytest.mark.parametrize("context", STACK_CONTEXTS)
@pytest.mark.parametrize("n_stages", [2, 20])
def test_stack_entry_points_agree_bitwise(n_stages, context):
    """The line-search stack and the batched engine's stack are one kernel."""
    from repro.circuit.sweep import CircuitMonteCarlo, FETVariation

    engine = CircuitMonteCarlo(complementary_chain(n_stages))
    plan = engine.plan
    rng = np.random.default_rng(n_stages)
    xs = rng.normal(scale=0.5, size=(5, plan.size))
    gmin, kwargs, ctx = _stack_context(context, plan, rng, xs)
    res_many, jac_many = plan.evaluate_many(xs, **kwargs)
    nominal = FETVariation.nominal(xs.shape[0], len(engine.fet_names))
    res_batch, jac_batch = engine._evaluate_batch(xs, nominal, gmin, ctx)
    assert np.array_equal(res_many, res_batch)
    assert np.array_equal(jac_many, jac_batch)


def test_evaluate_many_rows_match_scalar_with_source_scale_and_gmin_ref():
    """Row i of a multi-row ``evaluate_many`` is ``evaluate(x_i)``, bitwise.

    Over dense and sparse plans, one-FET groups (``single_fet``),
    current sources (``rc_ladder``, the complementary chain), and both
    integrators with a per-row companion history.
    """
    circuits = dict(CIRCUITS, complementary_chain=lambda: complementary_chain(5))
    for name, build in circuits.items():
        plan = build().build_system()._plan
        rng = np.random.default_rng(11)
        xs = rng.normal(scale=0.5, size=(4, plan.size))
        histories = rng.normal(scale=1e-7, size=(4, len(plan.cap_names)))
        contexts = [
            (dict(
                source_scale=0.7, gmin=1e-6, gmin_ref=rng.normal(scale=0.5, size=plan.size)
            ), None),
        ] + [
            (dict(
                time_s=1e-10, dt_s=1e-12, integrator=integrator,
                previous_x=rng.normal(scale=0.5, size=plan.size),
            ), histories)
            for integrator in ("trapezoidal", "backward-euler")
        ]
        for kwargs, history in contexts:
            residuals, jacobians = plan.evaluate_many(xs, history=history, **kwargs)
            for i in range(xs.shape[0]):
                res, jac = plan.evaluate(
                    xs[i], history=None if history is None else history[i], **kwargs
                )
                assert np.array_equal(residuals[i], res), (name, kwargs)
                assert np.array_equal(
                    jacobians[i], jac.data if plan.use_sparse else jac
                ), (name, kwargs)
