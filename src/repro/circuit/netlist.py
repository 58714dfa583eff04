"""Netlist container: named nodes, elements, and the unknown-vector layout.

A :class:`Circuit` collects elements (builder-style ``add_*`` methods),
assigns every non-ground node an index in the unknown vector and every
voltage source a branch-current index after the nodes.  Analyses
(:mod:`repro.circuit.dc`, :mod:`repro.circuit.transient`) consume the
assembled system through :meth:`Circuit.build_system`.

:meth:`Circuit.build_system` compiles every system onto the stamp plan
of :mod:`repro.circuit.assembly` (constant linear matrix assembled
once, batched FET linearization, ``np.add.at`` scatter; above
:data:`~repro.circuit.assembly.SPARSE_THRESHOLD` unknowns, CSR
Jacobians on one canonical sparsity pattern whose symbolic LU ordering
is computed once and shared by every Newton refactorization) and
raises :class:`~repro.circuit.assembly.UnsupportedElement` for element
types the plan does not know.  The original element-walking evaluator
is retained as :meth:`MNASystem.evaluate_dense` — the reference
implementation the equivalence tests compare against.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.assembly import StampPlan
from repro.circuit.elements import (
    FET,
    Capacitor,
    CurrentSource,
    Element,
    GROUND_NAMES,
    Resistor,
    StampContext,
    VoltageSource,
)
from repro.devices.base import FETModel

__all__ = ["Circuit", "CircuitError"]


class CircuitError(RuntimeError):
    """Raised for malformed netlists or failed analyses."""


class Circuit:
    """A flat netlist with named nodes (ground: '0' / 'gnd')."""

    def __init__(self, title: str = ""):
        self.title = title
        self.elements: list[Element] = []
        self._names: set[str] = set()
        self._node_order: list[str] = []
        self._node_index: dict[str, int] = {}
        self._n_branches = 0

    # -- construction -----------------------------------------------------------
    def add(self, element: Element) -> Element:
        if element.name in self._names:
            raise CircuitError(f"duplicate element name {element.name!r}")
        self._names.add(element.name)
        for node in element.nodes:
            self._register_node(node)
        if isinstance(element, VoltageSource):
            element.branch_index = -1  # assigned in build_system
            self._n_branches += 1
        self.elements.append(element)
        return element

    def add_resistor(self, name: str, p: str, n: str, resistance_ohm: float) -> Resistor:
        return self.add(Resistor(name, p, n, resistance_ohm))

    def add_capacitor(self, name: str, p: str, n: str, capacitance_f: float) -> Capacitor:
        return self.add(Capacitor(name, p, n, capacitance_f))

    def add_voltage_source(self, name: str, p: str, n: str, waveform) -> VoltageSource:
        return self.add(VoltageSource(name, p, n, waveform))

    def add_current_source(self, name: str, p: str, n: str, waveform) -> CurrentSource:
        return self.add(CurrentSource(name, p, n, waveform))

    def add_fet(
        self, name: str, drain: str, gate: str, source: str, device: FETModel
    ) -> FET:
        return self.add(FET(name, drain, gate, source, device))

    def _register_node(self, node: str) -> None:
        if node in GROUND_NAMES or node in self._node_index:
            return
        self._node_index[node] = len(self._node_order)
        self._node_order.append(node)

    # -- system layout ------------------------------------------------------------
    @property
    def node_names(self) -> list[str]:
        return list(self._node_order)

    @property
    def size(self) -> int:
        """Total number of unknowns (node voltages + source branch currents)."""
        return len(self._node_order) + self._n_branches

    def node_index(self, node: str) -> int | None:
        """Unknown-vector index of a node, or None for ground."""
        if node in GROUND_NAMES:
            return None
        try:
            return self._node_index[node]
        except KeyError:
            raise CircuitError(f"unknown node {node!r}") from None

    def build_system(self) -> "MNASystem":
        """Lay out the unknowns and compile the stamp plan.

        Raises :class:`~repro.circuit.assembly.UnsupportedElement` when
        an element type has no compiled stamp.
        """
        if not self.elements:
            raise CircuitError("empty circuit")
        if not self._node_order:
            raise CircuitError("circuit has no non-ground nodes")
        branch_base = len(self._node_order)
        offset = 0
        for element in self.elements:
            if isinstance(element, VoltageSource):
                element.branch_index = branch_base + offset
                offset += 1
        return MNASystem(self)


class MNASystem:
    """Assembled residual/Jacobian evaluator for a circuit.

    ``evaluate(x, **kwargs)`` is the compiled
    :meth:`~repro.circuit.assembly.StampPlan.evaluate` (bound at
    construction, one less Python frame on the hottest call in the
    package).  Its Jacobian is a dense ndarray for small systems and,
    at or above :data:`~repro.circuit.assembly.SPARSE_THRESHOLD`
    unknowns, a ``scipy.sparse`` CSR matrix on the plan's canonical
    sparsity pattern.  Every call returns fresh arrays.
    """

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self.size = circuit.size
        self.n_nodes = len(circuit.node_names)
        self._plan = StampPlan(self)
        self.evaluate = self._plan.evaluate

    def node_index(self, node: str) -> int | None:
        return self.circuit.node_index(node)

    def evaluate_dense(
        self,
        x: np.ndarray,
        time_s: float | None = None,
        dt_s: float | None = None,
        previous_x: np.ndarray | None = None,
        integrator: str = "trapezoidal",
        history: np.ndarray | None = None,
        source_scale: float = 1.0,
        gmin: float = 0.0,
        gmin_ref: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Reference element-walking evaluator (always fresh dense arrays).

        Takes the keywords of the compiled evaluator: ``history`` holds
        the trapezoidal companion currents in the plan's ``cap_names``
        order, and ``gmin``/``gmin_ref`` stamp the same node shunt
        (optionally anchored at a reference vector for pseudo-transient
        continuation).
        """
        residual = np.zeros(self.size)
        jacobian = np.zeros((self.size, self.size))
        ctx = StampContext(
            system=self,
            x=x,
            residual=residual,
            jacobian=jacobian,
            time_s=time_s,
            dt_s=dt_s,
            previous_x=previous_x if previous_x is not None else x,
            integrator=integrator,
            state=(
                {} if history is None else dict(zip(self._plan.cap_names, history))
            ),
            source_scale=source_scale,
            gmin=gmin,
        )
        for element in self.circuit.elements:
            element.contribute(ctx)
        if gmin > 0.0:
            for i in range(self.n_nodes):
                anchor = 0.0 if gmin_ref is None else gmin_ref[i]
                residual[i] += gmin * (x[i] - anchor)
                jacobian[i, i] += gmin
        return residual, jacobian

    def voltage_of(self, x: np.ndarray, node: str) -> float:
        idx = self.node_index(node)
        return 0.0 if idx is None else float(x[idx])
