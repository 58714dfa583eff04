"""Compiled stamp-plan assembly engine for MNA systems.

The reference evaluator (:meth:`repro.circuit.netlist.MNASystem.evaluate_dense`)
walks every element per Newton iteration and stamps scalars through
:class:`~repro.circuit.elements.StampContext` — simple, but all-Python
and re-allocating a dense ``n x n`` Jacobian on every call.  This module
compiles a :class:`StampPlan` once per :meth:`Circuit.build_system`:

* **Linear elements** (R, V-source patterns, capacitor companion
  conductances) collapse into one constant matrix ``A`` assembled a
  single time and cached per ``(dt, integrator)`` key, so the linear
  residual is a matrix-vector product ``A @ x`` and the linear Jacobian
  block is a copy of it.
* **Nonlinear FETs** are grouped by device-model instance and
  linearized in one batched :meth:`repro.devices.base.FETModel.linearize`
  call per group (arrays of ``vgs``/``vds`` in, arrays of
  ``(id, gm, gds)`` out).
* **Everything else is two scatters** laid out at compile time: one
  ``np.add.at`` puts the source levels, the capacitor history and every
  group's drain/source currents into the residual, one puts every
  group's ``gm``/``gds`` stamps into the Jacobian.
* Systems with ``size >= SPARSE_THRESHOLD`` assemble ``scipy.sparse``
  CSR matrices through a :class:`_SparseSchedule`: one canonical
  sparsity pattern (linear stamps ∪ FET stamps ∪ full diagonal) shared
  by every evaluation, with precomputed scatter positions so a
  Jacobian is just a ``data`` vector.  The schedule computes the
  fill-reducing column ordering **once** (symbolic analysis) and every
  Newton step refactorizes only numerically against it — this is also
  what lets the sweep engines stack N instances' CSR ``data`` arrays
  as ``(m, nnz)`` and batch sparse Monte Carlo.  Smaller systems — all
  the seed circuits — assemble dense arrays.
* **There is one evaluation kernel**, :meth:`StampPlan.evaluate_stack`,
  over a stack of iterates with optional per-row companion state and
  per-instance FET variation.  :meth:`StampPlan.evaluate` is a one-row
  call of it, :meth:`StampPlan.evaluate_many` the Newton solver's
  entry and the batched sweep engines call it directly, so a row's
  residual and Jacobian are the same bits on every path.

The compiled path matches the reference path (same stamps, same
finite-difference step); the test suite asserts residual/Jacobian
agreement to 1e-12 on representative circuits.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.linalg import lu_factor, lu_solve
from scipy.sparse.linalg import splu

from repro.circuit.elements import (
    FET,
    Capacitor,
    CurrentSource,
    Resistor,
    VoltageSource,
)
from repro.devices.base import PType

__all__ = ["StampPlan", "UnsupportedElement", "SPARSE_THRESHOLD"]

# Unknown-count at which assembly (and the Newton solve) switch from
# dense arrays to scipy.sparse CSR matrices.
SPARSE_THRESHOLD = 128

# Diagonal regularization applied before any factorization — shared
# with the Newton solver (which imports it), so linear-only cached-LU
# solves and per-iteration nonlinear solves get identical conditioning.
DIAG_REGULARIZATION = 1e-14

# Sparse refactorizations keep the diagonal pivot of the fill-reducing
# ordering unless it is below this fraction of its column's largest
# entry (threshold partial pivoting; SPICE's default is 1e-3).  Strict
# partial pivoting (1.0) trades the diagonal for near-tied off-diagonal
# entries, and every such swap fills the factors in.
PIVOT_THRESHOLD = 0.1

# The companion-model integrators of the transient analyses.
INTEGRATORS = ("trapezoidal", "backward-euler")

# Row of the kernel's (8, n_fets) FET block that holds each stamp slot
# (see _FETGroup): the block is (gds, gm, gm+gds, I) and their negatives.
_SLOT_ROW = np.array([0, 1, 6, 4, 5, 2], dtype=np.intp)

_COMPILED_TYPES = (Resistor, Capacitor, VoltageSource, CurrentSource, FET)


def check_integrator(integrator: str) -> None:
    """Raise :class:`~repro.circuit.netlist.CircuitError` unless
    ``integrator`` is one of :data:`INTEGRATORS`."""
    if integrator not in INTEGRATORS:
        from repro.circuit.netlist import CircuitError  # netlist imports this module

        raise CircuitError(f"unknown integrator {integrator!r}; use {INTEGRATORS}")


def _pad(previous_x: np.ndarray | None) -> np.ndarray | None:
    """``previous_x`` with the ground slot appended (None stays None)."""
    return None if previous_x is None else np.append(previous_x, 0.0)


class UnsupportedElement(TypeError):
    """Raised when a circuit contains element types the plan cannot compile."""


def _unwrap_polarity(device) -> tuple[object, float]:
    """Strip :class:`PType` mirror wrappers into (base model, sign).

    I_p(v) = -I_n(-v) means a p-FET's bias points can ride in the same
    batched ``linearize`` call as its n-type siblings: flip the biases
    on the way in and the current on the way out (conductances are
    even under the mirror), so one complementary pair costs one device
    call instead of two.
    """
    sign = 1.0
    while type(device) is PType:
        sign = -sign
        device = device.nfet
    return device, sign


class _FETGroup:
    """All FETs sharing one (polarity-unwrapped) device-model instance.

    The unit of one batched :meth:`repro.devices.base.FETModel.linearize`
    call.  ``gather_dgs`` index the padded voltage vector (ground at the
    trailing index ``ground``); ``scatter_idx`` lists the drains, then
    the sources: the targets of the group's ``+I``/``-I``.
    ``rows``/``cols`` address the 6-entry-per-FET Jacobian stamp
    pattern, minus the entries on a ground row or column (``take``
    lists the survivors' slot-major positions).
    """

    __slots__ = (
        "device", "delta_v", "count", "sign", "columns",
        "gather_dgs", "scatter_idx", "rows", "cols", "take",
    )

    def __init__(self, device, delta_v: float | None, fets: list, column: dict, pad, ground: int):
        self.device = device
        self.delta_v = delta_v
        self.count = len(fets)
        # Each slot's position in the circuit's FET order: the column
        # of a per-instance variation array that perturbs it.
        self.columns = np.array([column[id(f)] for f in fets], dtype=np.intp)
        signs = np.array([_unwrap_polarity(f.device)[1] for f in fets])
        self.sign = None if np.all(signs == 1.0) else signs
        self.gather_dgs = np.array(
            [[pad(f.drain), pad(f.gate), pad(f.source)] for f in fets], dtype=np.intp
        ).T.copy()
        d, g, s = self.gather_dgs
        self.scatter_idx = np.concatenate((d, s))
        # Stamp slots, in the order the Jacobian scatter adds them:
        # (d,d)=gds (d,g)=gm (d,s)=-(gm+gds) (s,d)=-gds (s,g)=-gm (s,s)=gm+gds
        rows6 = np.stack((d, d, d, s, s, s)).ravel()
        cols6 = np.stack((d, g, s, d, g, s)).ravel()
        self.take = np.nonzero((rows6 != ground) & (cols6 != ground))[0]
        self.rows = rows6[self.take]
        self.cols = cols6[self.take]


class _LinearSystem:
    """Cached constant linear part for one ``(dt, integrator)`` key.

    ``solve`` holds a lazily-built LU-backed ``solve(rhs)`` callable for
    linear-only circuits, so transient steps and sweep points reuse one
    factorization instead of refactorizing the identical matrix.
    ``sparse_base`` caches this linear part scattered onto the plan's
    canonical sparse pattern (see :class:`_SparseSchedule`).
    """

    __slots__ = ("matrix", "cap_geq", "solve", "sparse_base")

    def __init__(self, matrix, cap_geq):
        self.matrix = matrix
        self.cap_geq = cap_geq
        self.solve = None
        self.sparse_base = None


class _SparseSchedule:
    """Shared sparse assembly + factorization schedule for one plan.

    The canonical sparsity pattern is the union of the linear stamp
    entries, the capacitor companion entries, every FET group's
    Jacobian stamp entries, and the full diagonal (MNA voltage-source
    branch rows have structural-zero diagonals; carrying the diagonal
    lets regularization and gmin shunts write in place).  Every
    Jacobian the plan produces — one bias point or a stack of sweep
    instances — is then just a ``data`` vector over this one pattern:

    * :meth:`positions` maps stamp (row, col) lists to ``data``
      offsets at compile time, so assembly is ``np.add.at`` scatters
      exactly like the dense path.
    * The symbolic half of sparse LU — the fill-reducing COLAMD
      column ordering — is computed **once** (:attr:`n_symbolic`
      counts these); :meth:`factor` then refactorizes numerically by
      permuting the canonical ``data`` symmetrically (rows with
      columns) into a pre-gathered CSC layout and factoring with
      ``permc_spec="NATURAL"``.

    That split is what lets the sweep engines batch sparse plans: one
    schedule serves every instance's refactorization, and a stacked
    ``(m, nnz)`` data array *is* the batched Jacobian.
    """

    def __init__(self, plan):
        size = plan.size
        self.size = size
        diag = np.arange(size, dtype=np.intp)
        group_rows = [g.rows for g in plan.fet_groups]
        group_cols = [g.cols for g in plan.fet_groups]
        rows = np.concatenate(
            [plan._static_rows, plan._cap_rows, *group_rows, diag]
        )
        cols = np.concatenate(
            [plan._static_cols, plan._cap_cols, *group_cols, diag]
        )
        pattern = sparse.coo_matrix(
            (np.ones(rows.size), (rows, cols)), shape=(size, size)
        ).tocsr()
        pattern.sum_duplicates()
        pattern.sort_indices()
        self.indices = pattern.indices.copy()
        self.indptr = pattern.indptr.copy()
        self.nnz = int(self.indices.size)
        # Flat row*size+col key per canonical entry, strictly
        # ascending — the searchsorted target for positions().
        counts = np.diff(self.indptr)
        self._canon_flat = (
            np.repeat(diag, counts) * size + self.indices.astype(np.intp)
        )
        self.diag_pos = self.positions(diag, diag)
        self.node_diag_pos = self.diag_pos[: plan.n_nodes]
        self._static_pos = self.positions(plan._static_rows, plan._static_cols)
        self._static_vals = plan._static_vals
        self._cap_pos = self.positions(plan._cap_rows, plan._cap_cols)
        self._cap_sign = plan._cap_sign
        self._cap_which = plan._cap_which
        # Symbolic state, built lazily by _ensure_symbolic().
        self.n_symbolic = 0
        self._perm_c: np.ndarray | None = None
        self._b_gather: np.ndarray | None = None
        self._b_indices: np.ndarray | None = None
        self._b_indptr: np.ndarray | None = None

    def positions(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Canonical ``data`` offsets of (row, col) stamp entries."""
        flat = np.asarray(rows, dtype=np.intp) * self.size + cols
        return np.searchsorted(self._canon_flat, flat).astype(np.intp)

    def linear_data(self, linear: _LinearSystem) -> np.ndarray:
        """Constant linear part as a canonical-pattern ``data`` vector.

        Cached on the :class:`_LinearSystem` (one per ``(dt,
        integrator)`` key); callers copy before scattering nonlinear
        values.
        """
        base = linear.sparse_base
        if base is None:
            base = np.zeros(self.nnz)
            np.add.at(base, self._static_pos, self._static_vals)
            if linear.cap_geq.size:
                np.add.at(
                    base,
                    self._cap_pos,
                    self._cap_sign * linear.cap_geq[self._cap_which],
                )
            linear.sparse_base = base
        return base

    def matrix(self, data: np.ndarray) -> sparse.csr_matrix:
        """Wrap one canonical ``data`` vector as a CSR matrix (no copy)."""
        return sparse.csr_matrix(
            (data, self.indices, self.indptr), shape=(self.size, self.size)
        )

    def capacitance_data(self, cap_c: np.ndarray) -> np.ndarray:
        """Capacitance stamp C as a canonical-pattern ``data`` vector.

        The capacitor entries live on the same canonical pattern as the
        conductance stamps, so the AC system ``G + j w C`` is a pure
        elementwise combination of two ``data`` vectors — no per-element
        walking, no pattern merging (see :mod:`repro.circuit.ac`).
        """
        data = np.zeros(self.nnz)
        if self._cap_pos.size:
            np.add.at(data, self._cap_pos, self._cap_sign * cap_c[self._cap_which])
        return data

    def _ensure_symbolic(self) -> None:
        if self._perm_c is not None:
            return
        # Fill-reducing ordering from one splu of a diagonally-dominant
        # placeholder on the canonical pattern (ones everywhere, the
        # diagonal lifted above any row sum so factorization cannot
        # fail).  The ordering depends only on the pattern, so every
        # numeric refactorization reuses it.
        data = np.ones(self.nnz)
        data[self.diag_pos] += float(self.size)
        lu = splu(self.matrix(data).tocsc())
        perm = lu.perm_c.astype(np.intp)
        self._perm_c = perm
        # Pre-gathered CSC layout of the symmetric permutation
        # B = A[perm][:, perm]: b_gather maps canonical CSR data
        # positions into B's CSC data order, so a refactorization is
        # one fancy-index plus a NATURAL-order splu.  Permuting rows
        # with the columns keeps A's diagonal on B's diagonal, where
        # SuperLU's threshold pivoting looks for it; a column-only
        # permutation would hand it A[j, perm[j]] instead and let
        # off-diagonal pivots fill the factors in.
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(self.size, dtype=np.intp)
        rows = inverse[np.repeat(np.arange(self.size), np.diff(self.indptr))]
        cols = inverse[self.indices]
        self._b_gather = np.lexsort((rows, cols))
        self._b_indices = rows[self._b_gather].astype(self.indices.dtype)
        self._b_indptr = np.concatenate(
            ([0], np.cumsum(np.bincount(cols, minlength=self.size)))
        ).astype(self.indptr.dtype)
        self.n_symbolic += 1

    def factor(self, data: np.ndarray):
        """Numeric refactorization of one canonical ``data`` vector.

        Returns a ``solve(rhs)`` callable for the *unpermuted* system
        (``A x = rhs``), or None when the matrix is numerically
        singular.  ``data`` may be complex: the gather, the CSC wrap
        and ``splu`` are all dtype-generic, which is what lets the
        compiled AC path (:mod:`repro.circuit.ac`) refactorize
        ``G + j w C`` per frequency against this one symbolic
        ordering.
        """
        self._ensure_symbolic()
        permuted = sparse.csc_matrix(
            (data[self._b_gather], self._b_indices, self._b_indptr),
            shape=(self.size, self.size),
        )
        try:
            lu = splu(
                permuted, permc_spec="NATURAL", diag_pivot_thresh=PIVOT_THRESHOLD
            )
        except RuntimeError:
            return None
        perm_c = self._perm_c

        def solve(rhs: np.ndarray) -> np.ndarray:
            y = lu.solve(rhs[perm_c])
            x = np.empty_like(y)
            x[perm_c] = y
            return x

        return solve


class StampPlan:
    """Precompiled assembly schedule for one :class:`MNASystem`."""

    def __init__(self, system):
        circuit = system.circuit
        for element in circuit.elements:
            if type(element) not in _COMPILED_TYPES:
                raise UnsupportedElement(
                    f"cannot compile element type {type(element).__name__}"
                )
        self.system = system
        self.size = system.size
        self.n_nodes = system.n_nodes
        self.use_sparse = self.size >= SPARSE_THRESHOLD

        size = self.size

        def pad(node: str) -> int:
            """Padded-vector index: ground maps to the trailing slot."""
            idx = system.node_index(node)
            return size if idx is None else idx

        def jac_idx(node: str) -> int:
            """Jacobian index: ground maps to -1 (entry dropped)."""
            idx = system.node_index(node)
            return -1 if idx is None else idx

        # -- constant (bias-independent) matrix entries --------------------------
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []

        def put(row: int, col: int, value: float) -> None:
            if row >= 0 and col >= 0:
                rows.append(row)
                cols.append(col)
                vals.append(value)

        # -- capacitor companion pattern: value = sign * geq[cap] ---------------
        cap_rows: list[int] = []
        cap_cols: list[int] = []
        cap_sign: list[float] = []
        cap_which: list[int] = []

        def put_cap(row: int, col: int, sign: float, which: int) -> None:
            if row >= 0 and col >= 0:
                cap_rows.append(row)
                cap_cols.append(col)
                cap_sign.append(sign)
                cap_which.append(which)

        vsources: list[VoltageSource] = []
        isources: list[CurrentSource] = []
        capacitors: list[Capacitor] = []
        fet_bins: dict[tuple[int, float | None], list[FET]] = {}
        fet_column: dict[int, int] = {}
        fet_devices: dict[tuple[int, float | None], object] = {}

        for element in circuit.elements:
            if isinstance(element, Resistor):
                g = 1.0 / element.resistance_ohm
                ip, in_ = jac_idx(element.p), jac_idx(element.n)
                put(ip, ip, g)
                put(ip, in_, -g)
                put(in_, ip, -g)
                put(in_, in_, g)
            elif isinstance(element, VoltageSource):
                ip, in_ = jac_idx(element.p), jac_idx(element.n)
                br = element.branch_index
                put(ip, br, 1.0)
                put(in_, br, -1.0)
                put(br, ip, 1.0)
                put(br, in_, -1.0)
                vsources.append(element)
            elif isinstance(element, CurrentSource):
                isources.append(element)
            elif isinstance(element, Capacitor):
                which = len(capacitors)
                ip, in_ = jac_idx(element.p), jac_idx(element.n)
                put_cap(ip, ip, 1.0, which)
                put_cap(ip, in_, -1.0, which)
                put_cap(in_, ip, -1.0, which)
                put_cap(in_, in_, 1.0, which)
                capacitors.append(element)
            else:  # FET
                base_device, _ = _unwrap_polarity(element.device)
                key = (id(base_device), element.delta_v)
                fet_bins.setdefault(key, []).append(element)
                fet_column[id(element)] = len(fet_column)
                fet_devices[key] = base_device

        self._static_rows = np.array(rows, dtype=np.intp)
        self._static_cols = np.array(cols, dtype=np.intp)
        self._static_vals = np.array(vals, dtype=float)

        self._cap_rows = np.array(cap_rows, dtype=np.intp)
        self._cap_cols = np.array(cap_cols, dtype=np.intp)
        self._cap_sign = np.array(cap_sign, dtype=float)
        self._cap_which = np.array(cap_which, dtype=np.intp)

        self.cap_names = [el.name for el in capacitors]
        self.cap_p = np.array([pad(el.p) for el in capacitors], dtype=np.intp)
        self.cap_n = np.array([pad(el.n) for el in capacitors], dtype=np.intp)
        self.cap_c = np.array([el.capacitance_f for el in capacitors], dtype=float)

        self.fet_groups = [
            _FETGroup(fet_devices[key], key[1], fets, fet_column, pad, size)
            for key, fets in fet_bins.items()
        ]
        # Linear-only circuits have a bias-independent Jacobian: the
        # Newton solver then routes steps through linear_step()'s cached
        # factorization instead of refactorizing every iteration.
        self.linear_only = not self.fet_groups
        self._lin_cache: dict[object, _LinearSystem] = {}
        self._cap_stamp: np.ndarray | None = None

        # Shared canonical pattern + one-time symbolic ordering for
        # every sparse Jacobian this plan (or a sweep over it) builds.
        self.sparse_schedule = _SparseSchedule(self) if self.use_sparse else None

        # -- evaluate_stack's value buffer and its two scatters --------------
        # A call writes every scattered value into one (m, width) buffer:
        # the source levels (-level on each voltage-source branch, +I/-I
        # at each current source's ends), the companion history
        # (+rhs/-rhs, transient contexts only) and an (8, n_fets) FET block
        # of (gds, gm, gm+gds, I) and their negatives, one column per FET,
        # groups in order.  The residual then takes one np.add.at, and the
        # Jacobian one, through buffer columns and targets compiled here;
        # residual entries that land on ground are dropped.  Both keep the
        # order of one scatter per term, group by group, so every sum runs
        # in the order it always has.
        n_v, n_i, n_c = len(vsources), len(isources), len(capacitors)
        self._source_order = vsources + isources + isources
        self._source_sign = np.repeat([-1.0, 1.0, -1.0], [n_v, n_i, n_i])
        groups = self.fet_groups
        offsets = np.cumsum([0] + [group.count for group in groups])
        n_fets = self._n_fets = int(offsets[-1])
        self._group_slices = [slice(lo, hi) for lo, hi in zip(offsets, offsets[1:])]
        block = self._fet_block = n_v + 2 * n_i + 2 * n_c
        self._width = block + 8 * n_fets

        # Residual scatter: buffer column and padded target of each term.
        cols = np.concatenate([np.arange(block)] + [
            block + lo + np.arange(group.count) + np.array([[3 * n_fets], [7 * n_fets]])
            for group, lo in zip(groups, offsets)
        ], axis=None)
        targets = np.concatenate([
            np.array([el.branch_index for el in vsources], dtype=np.intp),
            np.array([pad(el.p) for el in isources], dtype=np.intp),
            np.array([pad(el.n) for el in isources], dtype=np.intp),
            self.cap_p, self.cap_n, *(group.scatter_idx for group in groups),
        ])
        history = (cols >= n_v + 2 * n_i) & (cols < block)
        live = targets != size
        # Indexed by "has a companion history": DC, then transient.
        self._res_scatter = [(cols[keep], targets[keep]) for keep in (live & ~history, live)]
        if self.linear_only:
            return
        # Stamp slot k of FET i of a group at FET offset lo reads buffer
        # column block + _SLOT_ROW[k] * n_fets + lo + i.
        self._jac_take = np.concatenate([
            block + _SLOT_ROW[group.take // group.count] * n_fets + lo
            + group.take % group.count
            for group, lo in zip(groups, offsets)
        ])
        rows = np.concatenate([group.rows for group in groups])
        cols = np.concatenate([group.cols for group in groups])
        self._jac_index = (
            self.sparse_schedule.positions(rows, cols) if self.use_sparse
            else rows * size + cols
        )

    def capacitance_stamp(self) -> np.ndarray:
        """The capacitance matrix C of the AC system ``(G + j w C) x = b``.

        Built once from the compiled capacitor stamp pattern — the same
        ``(rows, cols, sign, which)`` arrays the transient companion
        model scatters through — instead of walking elements into an
        O(size^2) dense loop per analysis.  Dense plans return a
        ``(size, size)`` array; sparse plans return the canonical-
        pattern ``data`` vector (wrap with ``sparse_schedule.matrix``
        for a matrix view).  Cached: callers must not mutate the
        result.
        """
        if self._cap_stamp is None:
            if self.use_sparse:
                self._cap_stamp = self.sparse_schedule.capacitance_data(self.cap_c)
            else:
                stamp = np.zeros((self.size, self.size))
                if self._cap_rows.size:
                    np.add.at(
                        stamp,
                        (self._cap_rows, self._cap_cols),
                        self._cap_sign * self.cap_c[self._cap_which],
                    )
                self._cap_stamp = stamp
        return self._cap_stamp

    # -- linear subsystem cache ---------------------------------------------------
    def _linear_system(self, dt_s: float | None, integrator: str) -> _LinearSystem:
        key = None if dt_s is None else (float(dt_s), integrator)
        cached = self._lin_cache.get(key)
        if cached is not None:
            return cached

        if dt_s is None:
            cap_geq = np.zeros(0)
            rows, cols, vals = self._static_rows, self._static_cols, self._static_vals
        else:
            check_integrator(integrator)
            if integrator == "backward-euler":
                cap_geq = self.cap_c / dt_s
            else:
                cap_geq = 2.0 * self.cap_c / dt_s
            rows = np.concatenate((self._static_rows, self._cap_rows))
            cols = np.concatenate((self._static_cols, self._cap_cols))
            vals = np.concatenate(
                (self._static_vals, self._cap_sign * cap_geq[self._cap_which])
            )

        if self.use_sparse:
            matrix = sparse.coo_matrix(
                (vals, (rows, cols)), shape=(self.size, self.size)
            ).tocsr()
        else:
            matrix = np.zeros((self.size, self.size))
            np.add.at(matrix, (rows, cols), vals)
        linear = _LinearSystem(matrix, cap_geq)
        self._lin_cache[key] = linear
        return linear

    def linear_step(
        self,
        residual: np.ndarray,
        dt_s: float | None = None,
        integrator: str = "trapezoidal",
    ) -> np.ndarray | None:
        """Newton step ``A^-1 (-residual)`` from the cached factorization.

        Only meaningful for linear-only plans (``self.linear_only``),
        whose Jacobian equals the constant matrix for every iterate.
        The LU factors are built once per ``(dt, integrator)`` key with
        the solver's tiny diagonal regularization.  Returns None when
        the matrix cannot be factorized or the solve is non-finite.
        """
        linear = self._linear_system(dt_s, integrator)
        if linear.solve is None:
            if self.use_sparse:
                schedule = self.sparse_schedule
                data = schedule.linear_data(linear).copy()
                data[schedule.diag_pos] += DIAG_REGULARIZATION
                solve = schedule.factor(data)
                if solve is None:
                    return None
                linear.solve = solve
            else:
                matrix = linear.matrix.copy()
                diagonal = np.einsum("ii->i", matrix)
                diagonal += DIAG_REGULARIZATION
                factors = lu_factor(matrix, check_finite=False)
                linear.solve = lambda rhs: lu_solve(factors, rhs, check_finite=False)
        step = linear.solve(-residual)
        return step if np.all(np.isfinite(step)) else None

    # -- evaluation ---------------------------------------------------------------
    def evaluate(
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
    ):
        """Residual F(x) and Jacobian dF/dx at one iterate.

        A one-row :meth:`evaluate_stack`.  Returns a fresh residual and
        a fresh Jacobian: a dense array, or a ``scipy.sparse`` CSR
        matrix on the canonical pattern in sparse mode.  ``history``
        holds the trapezoidal companion currents in ``cap_names`` order
        (zero when None); without ``previous_x`` the companion model
        anchors at ``x``.  ``gmin`` adds a shunt conductance from every
        node to ground; with ``gmin_ref`` the shunt anchors at that
        reference vector instead — the pseudo-transient continuation
        stamp ``gmin * (x - gmin_ref)`` (the Jacobian term is
        identical).
        """
        residual, jacobian = self.evaluate_stack(
            np.asarray(x, dtype=float)[None], time_s, dt_s, integrator,
            _pad(previous_x), history, source_scale, gmin, gmin_ref,
        )
        if self.use_sparse:
            return residual[0], self.sparse_schedule.matrix(jacobian[0])
        return residual[0], jacobian[0]

    def evaluate_many(
        self,
        x_stack: np.ndarray,
        time_s: float | None = None,
        dt_s: float | None = None,
        previous_x: np.ndarray | None = None,
        integrator: str = "trapezoidal",
        history: np.ndarray | None = None,
        source_scale: float = 1.0,
        gmin: float = 0.0,
        gmin_ref: np.ndarray | None = None,
    ):
        """Residuals and Jacobians at a stack of iterates sharing one
        :meth:`evaluate` context (same keywords).

        The evaluation of :func:`repro.circuit.solver.newton_solve`: its
        iterates and the damping ladder of a rejected step, one device
        ``linearize`` per FET group however many trial points.  Row
        ``i`` is bitwise :meth:`evaluate` at ``x_stack[i]``; Jacobians
        come as :meth:`evaluate_stack` returns them.
        """
        return self.evaluate_stack(
            np.asarray(x_stack, dtype=float), time_s, dt_s, integrator,
            _pad(previous_x), history, source_scale, gmin, gmin_ref,
        )

    @staticmethod
    def _rows(index: np.ndarray, m: int, stride: int) -> np.ndarray:
        """``index`` repeated for ``m`` flattened rows of length ``stride``."""
        if m == 1:
            return index
        return (np.arange(0, m * stride, stride)[:, None] + index).reshape(-1)

    def evaluate_stack(
        self,
        x: np.ndarray,
        time_s: float | None,
        dt_s: float | None,
        integrator: str,
        prevpad: np.ndarray | None,
        history: np.ndarray | None,
        source_scale: float = 1.0,
        gmin: float = 0.0,
        gmin_ref: np.ndarray | None = None,
        vth_shift_v: np.ndarray | None = None,
        drive_scale: np.ndarray | None = None,
    ):
        """Residuals ``(m, size)`` and Jacobians at a stack of ``m`` iterates.

        The one evaluation kernel.  Jacobians are fresh dense ``(m,
        size, size)`` arrays, or ``(m, nnz)`` canonical CSR ``data``
        stacks for sparse plans.  ``prevpad`` (padded previous
        solution) and ``history`` (trapezoidal companion currents) are
        shared or per row; ``prevpad=None`` anchors the companion model
        at each iterate.  The optional ``(m, n_fets)`` variation
        arrays, in the circuit's FET order, make each FET carry ``scale
        * I(vgs - shift, vds)``.

        Rows never mix: the linear residual is a batched gemv (CSR
        column-wise matvecs for sparse plans), not one gemm, and every
        other term is elementwise or a scatter within the row, so a
        row's bits do not depend on ``m`` — the root of the sweep
        engines' chunking/order/pool invariance.
        """
        m = x.shape[0]
        size = self.size
        linear = self._linear_system(dt_s, integrator)

        xpad = np.zeros((m, size + 1))
        xpad[:, :size] = x
        if self.use_sparse:
            # CSR times a column stack: scipy's matvecs kernel runs the
            # scalar matvec per column.
            residual = np.ascontiguousarray((linear.matrix @ x.T).T)
            base = self.sparse_schedule.linear_data(linear)
        else:
            residual = np.matmul(linear.matrix, x[..., None])[..., 0]
            base = linear.matrix
        jac = np.empty((m,) + base.shape)
        jac[:] = base

        linearized = []
        for group in self.fet_groups:
            v = xpad[:, group.gather_dgs]  # (m, 3, count)
            vgs = v[:, 1] - v[:, 2]
            vds = v[:, 0] - v[:, 2]
            if group.sign is not None:
                vgs = group.sign * vgs
                vds = group.sign * vds
            if vth_shift_v is not None:
                vgs = vgs - vth_shift_v[:, group.columns]
            current, gm, gds = group.device.linearize(vgs, vds, group.delta_v)
            if group.sign is not None:
                current = group.sign * current
            if drive_scale is not None:
                scale = drive_scale[:, group.columns]
                current = current * scale
                gm = gm * scale
                gds = gds * scale
            linearized.append((gds, gm, current))

        # Allocated after the device calls, so it never adds to their
        # peak memory.
        values = np.empty((m, self._width))
        n_src = self._source_sign.size
        if n_src:
            levels = np.array([el.level(time_s) for el in self._source_order])
            np.multiply(levels, source_scale * self._source_sign, out=values[:, :n_src])
        companion = dt_s is not None and self.cap_c.size > 0
        if companion:
            rhs = self.cap_history_rhs(
                xpad if prevpad is None else prevpad, linear.cap_geq, integrator, history
            )
            n_caps = self.cap_c.size
            values[:, n_src : n_src + n_caps] = rhs
            np.negative(rhs, out=values[:, n_src + n_caps : self._fet_block])
        if linearized:
            block = values[:, self._fet_block :].reshape(m, 8, self._n_fets)
            for fets, (gds, gm, current) in zip(self._group_slices, linearized):
                block[:, 0, fets] = gds
                block[:, 1, fets] = gm
                block[:, 3, fets] = current
            del linearized
            np.add(block[:, 1], block[:, 0], out=block[:, 2])
            np.negative(block[:, :4], out=block[:, 4:])
            np.add.at(
                jac.reshape(-1), self._rows(self._jac_index, m, base.size),
                np.take(values, self._jac_take, axis=1).reshape(-1),
            )

        cols, targets = self._res_scatter[companion]
        if targets.size:
            np.add.at(
                residual.reshape(-1), self._rows(targets, m, size),
                np.take(values, cols, axis=1).reshape(-1),
            )

        if gmin > 0.0:
            n_nodes = self.n_nodes
            residual[:, :n_nodes] += gmin * x[:, :n_nodes]
            if gmin_ref is not None:
                residual[:, :n_nodes] -= gmin * gmin_ref[:n_nodes]
            if self.use_sparse:
                jac[:, self.sparse_schedule.node_diag_pos] += gmin
            else:
                diag = np.einsum("ijj->ij", jac)
                diag[:, :n_nodes] += gmin
        return residual, jac

    def solve_stack(self, jacobians: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Newton steps ``J_i^-1 rhs_i`` for a private stack of Jacobians.

        The one step solve of the Newton driver, whatever the batch
        size.  ``jacobians`` is a ``(k, size, size)`` dense stack or a
        ``(k, nnz)`` canonical-pattern data stack; it gets the diagonal
        regularization in place.  Dense stacks go through one batched
        ``np.linalg.solve``, row by row only when LAPACK reports a
        singular member; sparse rows refactorize numerically against
        the schedule's one symbolic ordering.  Each row's arithmetic is
        the same however many rows the stack holds.  Rows whose matrix
        is singular come back NaN.
        """
        if self.use_sparse:
            schedule = self.sparse_schedule
            jacobians[:, schedule.diag_pos] += DIAG_REGULARIZATION
            steps = np.full_like(rhs, np.nan)
            for i in range(jacobians.shape[0]):
                solve = schedule.factor(jacobians[i])
                if solve is not None:
                    steps[i] = solve(rhs[i])
            return steps
        diagonal = np.einsum("ijj->ij", jacobians)
        diagonal += DIAG_REGULARIZATION
        try:
            # RHS as (k, size, 1) column matrices: the batched-solve
            # gufunc otherwise misreads a (k, size) stack as one matrix.
            return np.linalg.solve(jacobians, rhs[:, :, None])[..., 0]
        except np.linalg.LinAlgError:
            steps = np.full_like(rhs, np.nan)
            for i in range(jacobians.shape[0]):
                try:
                    steps[i] = np.linalg.solve(jacobians[i], rhs[i])
                except np.linalg.LinAlgError:
                    pass
            return steps

    # -- transient support ----------------------------------------------------------
    def cap_history_rhs(
        self,
        prevpad: np.ndarray,
        cap_geq: np.ndarray,
        integrator: str,
        history: np.ndarray | None = None,
    ) -> np.ndarray:
        """Companion-model history RHS per capacitor: ``-geq v_prev - i_prev``.

        Batchable: ``prevpad`` is a padded previous-solution stack of
        shape ``(..., size + 1)`` (ground in the trailing slot) and
        ``history`` — the trapezoidal companion currents, ignored under
        backward Euler — broadcasts as ``(..., n_caps)``.
        """
        v_prev = prevpad[..., self.cap_p] - prevpad[..., self.cap_n]
        rhs = -cap_geq * v_prev
        if integrator != "backward-euler" and history is not None:
            rhs = rhs - history
        return rhs

    def cap_history_update(
        self,
        xpad: np.ndarray,
        prevpad: np.ndarray,
        dt_s: float,
        integrator: str,
        history: np.ndarray,
    ) -> np.ndarray:
        """Companion currents at an accepted step (batchable).

        ``xpad``/``prevpad`` are padded solution stacks ``(..., size +
        1)`` and ``history`` the ``(..., n_caps)`` currents of the
        previous step; returns the trapezoidal (or backward-Euler)
        capacitor currents at ``xpad``.
        """
        v_now = xpad[..., self.cap_p] - xpad[..., self.cap_n]
        v_prev = prevpad[..., self.cap_p] - prevpad[..., self.cap_n]
        if integrator == "backward-euler":
            return self.cap_c / dt_s * (v_now - v_prev)
        geq = 2.0 * self.cap_c / dt_s
        return geq * (v_now - v_prev) - history
