"""The paper's hardware temperature estimator: banded, one core at a time.

Sec. III-E describes TECfan's on-chip estimation pipeline: G is a band
matrix (thermal influence is local), implemented as a systolic array that
evaluates **one core per cycle** using ``M x K = 18 x 3 = 54`` fixed-point
multiplies — i.e. candidate evaluation sees only the candidate core's own
components; everything outside (neighbouring cores' boundary components,
the heat spreader, the sink) is frozen at its last known temperature.

:class:`LocalBandedEstimator` reproduces that locality:

* per control interval, one full-model bookkeeping solve anchors the
  observer (firmware can afford this at the measurement rate; candidate
  screening cannot);
* every candidate evaluation re-solves only the cores whose knobs differ
  from the applied configuration, against *frozen boundary temperatures*.

Within one observer field a core's block prediction depends on three
things only: the core, its DVFS level and its tile's TEC setting. The
host therefore keeps a *block table* keyed on exactly that triple,
solves each new (core, tile-TEC) context at every level in one stacked
solve, and assembles every candidate — single, batched or a whole DVFS
round — from table rows.
The hardware counts (``n_evaluations``, ``n_core_solves``) still charge
each candidate the passes the systolic datapath would run.

The locality is exactly why the hardware heuristic struggles at slow fan
speeds: each locally-evaluated move looks safe, but the global
spreader/sink warm-up that a chip-wide decision causes is invisible until
the next interval's sensors report it. The ablation benchmark
(``benchmarks/bench_ablation.py``) quantifies this against the idealized
full-model estimator of :class:`repro.core.estimator.NextIntervalEstimator`.

Temperatures handled by this estimator are quantized to the 8-bit /
0.5 degC encoding the paper budgets for the comparator datapath.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import units
from repro.core.estimator import (
    CandidateMemo,
    CandidateRows,
    CandidateScreen,
    Estimate,
    IPSPredictor,
    evaluate_states,
    predict_ips_many,
    screen_levels,
)
from repro.core.state import ActuatorState
from repro.core.system import CMPSystem
from repro.exceptions import ControlError
from repro.obs import telemetry as obs
from repro.power.component_power import core_dvfs_domain_mask
from repro.power.dynamic import DynamicPowerTracker

#: Temperature quantization step of the 8-bit hardware encoding [K].
HW_TEMP_STEP_K: float = 0.5


def _quantize(t_k: np.ndarray) -> np.ndarray:
    """Round temperatures to the hardware's 0.5 degC resolution."""
    return np.round(t_k / HW_TEMP_STEP_K) * HW_TEMP_STEP_K


def _rowwise_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products, each exactly what ``np.dot`` gives its row.

    ``np.vecdot`` runs the same inner dot loop over every row at once.
    """
    vecdot = getattr(np, "vecdot", None)  # NumPy >= 2.0
    if vecdot is not None:
        return vecdot(a, b)
    return np.array([np.dot(x, y) for x, y in zip(a, b)])


@dataclass
class _CoreBlock:
    """Precomputed local model of one core tile."""

    comp_idx: np.ndarray  # flat indices of this core's components
    g_local: np.ndarray  # dense (m, m) intra-core conductance block
    # External couplings: for each local component, lists of (node, g).
    ext_node: list  # list of np.ndarray of external node indices
    ext_g: list  # matching conductances
    spreader_node: int
    capacities: np.ndarray  # per local component [J/K]


@dataclass
class _BlockTable:
    """Core-block predictions for one observer field.

    Entry ``(k, level)`` answers one core's components for the next
    interval, where context ``k`` stands for ``(core, that tile's TEC
    setting)``: Eq. (7) scales a tile's power by its own core's ratio
    only and leakage and boundary temperatures are frozen for the
    interval, so nothing else enters the block's solve. Each entry holds
    the quantised prediction, its max and the Eq. (9) power of the
    tile's TECs over it. A context's entries for every DVFS level are
    solved together when the context first appears.
    """

    #: (core, tile-TEC bytes) -> context id.
    ctx_id: dict = field(default_factory=dict)
    #: chip TEC bytes -> per-core context ids.
    chip_ctx: dict = field(default_factory=dict)
    #: Frozen-boundary inflow per component, shared by every context.
    inflow: np.ndarray = None
    pred: np.ndarray = None  # (contexts, levels, m) [K]
    peak_c: np.ndarray = None  # (contexts, levels) block maxima [degC]
    tec_w: np.ndarray = None  # (contexts, levels, tile devices) [W]

    def extend(self, pred, peak_c, tec_w) -> None:
        """Append the entries of newly solved contexts, in id order."""
        if self.pred is None:
            self.pred, self.peak_c, self.tec_w = pred, peak_c, tec_w
        else:
            self.pred = np.concatenate([self.pred, pred])
            self.peak_c = np.concatenate([self.peak_c, peak_c])
            self.tec_w = np.concatenate([self.tec_w, tec_w])


class _BlockFields:
    """Node fields of table-assembled candidates, built on demand.

    Row ``j`` is the observer field with its components replaced by the
    candidate's block predictions (boundary nodes stay frozen).
    """

    def __init__(self, t_nodes_k: np.ndarray, t_comp_k: np.ndarray, comp):
        self._t_nodes_k = t_nodes_k
        self._t_comp_k = t_comp_k
        self._comp = comp

    def __getitem__(self, j: int) -> np.ndarray:
        t = self._t_nodes_k.copy()
        t[self._comp] = self._t_comp_k[j]
        return t


@dataclass
class LocalBandedEstimator:
    """Sec. III-E's per-core banded what-if evaluator.

    Drop-in replacement for
    :class:`repro.core.estimator.NextIntervalEstimator`; see module
    docstring for the locality semantics.
    """

    system: CMPSystem
    ips_predictor: IPSPredictor
    dyn_tracker: DynamicPowerTracker = field(default=None)
    n_evaluations: int = 0
    #: Core re-solves the hardware performs (the "systolic array
    #: passes"): per evaluated candidate, one per core whose knobs differ
    #: from the applied configuration, plus one pass over every core for
    #: the interval's base prediction.
    n_core_solves: int = 0
    #: Core-block solves the host actually ran to fill the block table.
    n_block_solves: int = 0

    _blocks: list = field(default=None, repr=False)
    _comp_idx: np.ndarray = field(default=None, repr=False)
    _core_at: np.ndarray = field(default=None, repr=False)
    #: ``(components, boundary nodes, couplings)`` per coupling count.
    _ext_groups: list = field(default=None, repr=False)
    _tile_devs: np.ndarray = field(default=None, repr=False)
    _t_nodes_k: np.ndarray = field(default=None, repr=False)
    _dt_s: float = 0.0
    _base_state: ActuatorState = field(default=None, repr=False)
    _base_counted: bool = False
    _p_leak: np.ndarray = field(default=None, repr=False)
    #: Per-component Eq. (7) power with the component's core at each
    #: level, ``(n_levels, n_cores, m)``; valid for one interval.
    _level_power: np.ndarray = field(default=None, repr=False)
    _cache: dict = field(default_factory=CandidateMemo, repr=False)
    #: Valid only for the current observer field, so it is dropped
    #: whenever ``_t_nodes_k`` moves.
    _table: _BlockTable = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.dyn_tracker is None:
            self.dyn_tracker = DynamicPowerTracker(
                dvfs=self.system.dvfs,
                tile_of=self.system.chip.tile_of(),
                core_domain=core_dvfs_domain_mask(self.system.chip),
            )
        self._build_blocks()

    # ------------------------------------------------------------------
    def _build_blocks(self) -> None:
        system = self.system
        nodes = system.nodes
        g_full = system.cond.base_matrix().tocsr()
        blocks: list[_CoreBlock] = []
        for core in range(system.n_cores):
            sl = system.chip.tile_slice(core)
            idx = np.arange(sl.start, sl.stop)
            local_pos = {int(i): k for k, i in enumerate(idx)}
            m = len(idx)
            g_local = np.zeros((m, m))
            ext_node: list[np.ndarray] = []
            ext_g: list[np.ndarray] = []
            for k, i in enumerate(idx):
                row = g_full.getrow(int(i))
                cols = row.indices
                vals = row.data
                e_nodes: list[int] = []
                e_gs: list[float] = []
                for c, v in zip(cols, vals):
                    if int(c) in local_pos:
                        g_local[k, local_pos[int(c)]] = v
                    else:
                        # Off-diagonal entries are -g; boundary nodes are
                        # frozen, so they contribute g*T_ext to the RHS
                        # and +g to the diagonal (already included in the
                        # full matrix's diagonal, which we copied above
                        # via the (i, i) entry).
                        e_nodes.append(int(c))
                        e_gs.append(-float(v))
                ext_node.append(np.asarray(e_nodes, dtype=np.intp))
                ext_g.append(np.asarray(e_gs, dtype=float))
            blocks.append(
                _CoreBlock(
                    comp_idx=idx,
                    g_local=g_local,
                    ext_node=ext_node,
                    ext_g=ext_g,
                    spreader_node=nodes.spreader_index(core),
                    capacities=nodes.capacities[sl],
                )
            )
        self._blocks = blocks
        self._comp_idx = np.stack([blk.comp_idx for blk in blocks])
        # The table reassembles candidate fields by reshaping (core,
        # block) rows, so the tiles must cover the components in order.
        if not np.array_equal(
            self._comp_idx.ravel(), np.arange(nodes.n_components)
        ):
            raise ControlError("core tiles must cover the components in order")
        self._core_at = np.arange(system.n_cores)
        # External couplings grouped by count, so each group's boundary
        # inflow is one row-wise dot.
        ext = [(n, g) for blk in blocks for n, g in zip(blk.ext_node, blk.ext_g)]
        sizes = np.array([n.size for n, _ in ext])
        self._ext_groups = []
        for size in np.unique(sizes[sizes > 0]):
            comps = np.flatnonzero(sizes == size)
            self._ext_groups.append((
                comps,
                np.stack([ext[i][0] for i in comps]),
                np.stack([ext[i][1] for i in comps]),
            ))
        # (n_cores, devices per tile): every tile carries the same grid.
        self._tile_devs = np.stack(
            [system.tec.tile_devices(core) for core in range(system.n_cores)]
        )
        if not np.array_equal(
            self._tile_devs.ravel(), np.arange(system.n_tec_devices)
        ):
            raise ControlError("TEC devices must be numbered tile by tile")

    # ------------------------------------------------------------------
    def begin_interval(
        self,
        sensor_temps_c: np.ndarray,
        p_dyn_measured_w: np.ndarray,
        ips_measured: np.ndarray,
        state: ActuatorState,
        dt_s: float,
    ) -> None:
        """Load one control period's measurements (see full estimator)."""
        if dt_s <= 0:
            raise ControlError(f"non-positive control period {dt_s}")
        system = self.system
        nodes = system.nodes
        first_call = self._t_nodes_k is None
        if first_call:
            self._t_nodes_k = system.uniform_initial_temps_k()
        self.dyn_tracker.observe(p_dyn_measured_w, state.dvfs)
        self.ips_predictor.observe(ips_measured, state.dvfs)
        self._dt_s = dt_s
        # Firmware bookkeeping: one full steady solve at the *applied*
        # configuration anchors the spreader/sink observer. Components
        # come from the (quantized) sensors.
        t = self._t_nodes_k.copy()
        t[nodes.component_slice] = _quantize(units.c_to_k(sensor_temps_c))
        p_leak = system.power.controller_leakage.per_component_w(
            t[nodes.component_slice]
        )
        p_dyn = self.dyn_tracker.predict(state.dvfs)
        t_anchor = system.solver.solve(p_dyn + p_leak, state.fan_level, state.tec)
        rest = slice(nodes.n_components, nodes.n_nodes)
        if first_call:
            # Boot the observer at the anchored steady state; afterwards
            # the slow nodes track it with their own RC dynamics.
            t[rest] = t_anchor[rest]
        else:
            beta = system.transient.betas(dt_s, state.fan_level, state.tec)
            t[rest] = (
                (1.0 - beta[rest]) * t_anchor[rest] + beta[rest] * t[rest]
            )
        self._t_nodes_k = t
        self._p_leak = system.power.controller_leakage.per_component_w(
            t[nodes.component_slice]
        )
        self._base_state = state
        self._base_counted = False
        self._level_power = None
        self._cache.clear()
        self._table = None

    def commit(self, estimate: Estimate) -> None:
        """Adopt an accepted candidate's components into the observer.

        Every answer so far was relative to the old field, so the memo
        and the block table go with it.
        """
        self._t_nodes_k = estimate.t_nodes_k
        self._cache.clear()
        self._table = None

    def predicted_component_temps_c(self) -> np.ndarray | None:
        """The observer's current component temperatures [degC].

        Same contract as
        :meth:`repro.core.estimator.NextIntervalEstimator.predicted_component_temps_c`;
        the engine's sensor validator uses it as the plausibility
        reference for raw readings. ``None`` until the first interval.
        """
        if self._t_nodes_k is None:
            return None
        return units.k_to_c(
            self._t_nodes_k[self.system.nodes.component_slice]
        )

    # ------------------------------------------------------------------
    def evaluate(self, state: ActuatorState) -> Estimate:
        """Predict next-interval peak temperature and EPI for ``state``.

        Only the cores whose knobs differ from the applied configuration
        are re-solved — the paper's one-core-per-cycle datapath.
        """
        return evaluate_states(self, [state], many=False)[0]

    def evaluate_many(self, states: list) -> list:
        """Batched :meth:`evaluate` over many candidate states.

        Positionally matches ``states``; every estimate is bit-identical
        to the sequential call's and enters the memo cache.
        """
        return evaluate_states(self, states, many=True)

    def screen_dvfs(
        self, state: ActuatorState, levels: np.ndarray
    ) -> CandidateScreen:
        """Array answers for ``state`` at each DVFS row of ``levels``.

        See :func:`repro.core.estimator.screen_levels`.
        """
        return screen_levels(self, state, levels)

    # ------------------------------------------------------------------
    def _kernel(self, levels: np.ndarray, groups: list, many: bool):
        """:class:`CandidateRows` for ``levels`` rows read off the table.

        Row ``j``'s components are the table entries of every core at
        its level and tile-TEC context; its peak is the max over the
        per-block maxima (max is exact) and its TEC power sums the
        per-entry device powers in device order. ``many`` plays no
        part: a block is bit-identical whichever stacked solve filled it.
        """
        system = self.system
        nodes = system.nodes
        n_rows, n_cores = levels.shape
        if levels.min() < 0 or levels.max() > system.dvfs.max_level:
            raise ControlError(
                f"DVFS levels outside 0..{system.dvfs.max_level}"
            )
        if self._table is None:
            self._table = _BlockTable(inflow=self._boundary_inflow())
        table = self._table
        ks = np.empty(levels.shape, dtype=np.intp)
        for rows, _, tec in groups:
            ks[rows] = self._contexts(tec)

        # Hardware accounting: the systolic array re-solves every core
        # whose DVFS level or tile TECs differ from the applied setting,
        # after one pass over all cores for the base prediction.
        base_ks = self._contexts(self._base_state.tec)
        passes = int(
            np.count_nonzero(
                (levels != self._base_state.dvfs[None, :])
                | (ks != base_ks[None, :])
            )
        )
        if not self._base_counted:
            self._base_counted = True
            passes += n_cores
        self.n_core_solves += passes
        obs.incr("estimator.core_solves", passes)

        t_comp = table.pred[ks, levels].reshape(n_rows, nodes.n_components)
        peaks = table.peak_c[ks, levels].max(axis=1)
        # Tiles own contiguous device ranges, so the gathered entries are
        # already in device order.
        tec_w = table.tec_w[ks, levels].reshape(n_rows, -1)
        p_fan = np.empty(n_rows)
        for rows, fan, _ in groups:
            p_fan[rows] = system.fan.power_w(fan)
        p_dyn = self._level_power[levels, self._core_at].reshape(
            n_rows, nodes.n_components
        )
        return CandidateRows.assemble(
            _BlockFields(self._t_nodes_k, t_comp, nodes.component_slice),
            peaks,
            p_dyn,
            self._p_leak,
            tec_w.sum(axis=1),
            p_fan,
            predict_ips_many(self.ips_predictor, levels),
        )

    def _contexts(self, tec: np.ndarray) -> np.ndarray:
        """Per-core table context ids for one chip TEC vector."""
        table = self._table
        tec = np.asarray(tec)
        key = tec.tobytes()
        ks = table.chip_ctx.get(key)
        if ks is not None:
            return ks
        tiles = tec[self._tile_devs]
        ks = np.empty(len(tiles), dtype=np.intp)
        new: list[tuple] = []
        for core, tile_tec in enumerate(tiles):
            ckey = (core, tile_tec.tobytes())
            k = table.ctx_id.get(ckey)
            if k is None:
                new.append((core, ckey))
            else:
                ks[core] = k
        if new:
            cores = [core for core, _ in new]
            self._solve_contexts(cores, tiles[cores])
            # Ids follow the appended entries' order, registered only
            # once the solve has succeeded.
            for core, ckey in new:
                ks[core] = table.ctx_id[ckey] = len(table.ctx_id)
        table.chip_ctx[key] = ks
        return ks

    def _context_system(self, core: int, tile_tec: np.ndarray):
        """``(a, b_base, beta)``: the power-independent part of a solve.

        ``a`` is the local conductance block with the TEC pump terms on
        the diagonal, ``b_base`` the frozen-boundary inflow plus Joule
        injection, ``beta`` the Eq. (5) relaxation factors.
        """
        blk: _CoreBlock = self._blocks[core]
        idx = blk.comp_idx
        a = blk.g_local.copy()
        b_base = self._table.inflow[idx]

        # TEC terms for devices on this tile (pump on diagonal, Joule in
        # RHS; the hot side is the frozen spreader).
        tec = self.system.tec
        for dev, s in zip(self._tile_devs[core], tile_tec):
            s = float(s)
            if s <= 0.0:
                continue
            placement = tec.placements[dev]
            s_joule = float(tec.joule_scale(np.array([s]))[0])
            for ci, w in zip(placement.component_idx, placement.weights):
                j = int(ci - idx[0])
                a[j, j] += s * w * tec.alpha_i
                b_base[j] += s_joule * w * 0.5 * tec.joule_w

        # Eq. (5) per local node with the local diagonal conductance.
        beta = np.exp(-self._dt_s * np.diag(a) / blk.capacities)
        return a, b_base, beta

    def _boundary_inflow(self) -> np.ndarray:
        """Per-component inflow from the frozen boundary nodes [W]:
        one dot of couplings and boundary temperatures per component."""
        inflow = np.zeros(self.system.nodes.n_components)
        for comps, nodes, g in self._ext_groups:
            inflow[comps] += _rowwise_dot(g, self._t_nodes_k[nodes])
        return inflow

    def _solve_contexts(self, cores: list, tile_tecs: np.ndarray) -> None:
        """Table entries of new contexts at every level, in one solve.

        LAPACK back-substitutes each stacked (m, m) system on its own,
        so an entry is bit-identical whichever batch solved it. The TEC
        powers come from the full-chip Eq. (9) routines on a field
        holding just this block, so each device keeps its own footprint
        accumulation order.
        """
        system = self.system
        nodes = system.nodes
        n_levels = system.dvfs.n_levels
        if self._level_power is None:
            grid = np.repeat(
                np.arange(n_levels)[:, None], system.n_cores, axis=1
            )
            # (level, core, block): every component at its core's level.
            self._level_power = self.dyn_tracker.predict_many(grid).reshape(
                n_levels, system.n_cores, -1
            )
        parts = [
            self._context_system(core, tile_tec)
            for core, tile_tec in zip(cores, tile_tecs)
        ]
        n_new = len(cores)
        m = len(self._blocks[0].comp_idx)
        idx = self._comp_idx[cores]
        a = np.repeat(np.stack([p[0] for p in parts]), n_levels, axis=0)
        b_base = np.stack([p[1] for p in parts])[:, None, :]
        beta = np.stack([p[2] for p in parts])[:, None, :]
        rhs = (
            self._level_power[:, cores].transpose(1, 0, 2)
            + self._p_leak[idx][:, None, :]
        ) + b_base
        t_steady = np.linalg.solve(
            a, rhs.reshape(n_new * n_levels, m, 1)
        ).reshape(n_new, n_levels, m)
        t_comp_now = self._t_nodes_k[nodes.component_slice]
        q = _quantize(
            (1.0 - beta) * t_steady + beta * t_comp_now[idx][:, None, :]
        )
        self.n_block_solves += n_new * n_levels
        obs.incr("estimator.block_solves", n_new * n_levels)

        # Eq. (9) over each entry's tile devices. An all-off tile draws
        # exactly +0.0 per device over a finite field, so only tiles with
        # a TEC on (or a non-finite reading) run the full-chip routines.
        devs = self._tile_devs[cores]
        t_hot = self._t_nodes_k[nodes.n_components + system.tec.device_tile]
        tec_w = np.zeros((n_new, n_levels, devs.shape[1]))
        exact = (
            tile_tecs.any(axis=1)
            | np.signbit(tile_tecs).any(axis=1)
            | ~np.isfinite(q).all(axis=(1, 2))
            | ~np.isfinite(t_hot[devs]).all(axis=1)
        )
        sel = np.flatnonzero(exact)
        if sel.size:
            # One row per (context, level): the observer field with just
            # that block replaced, and just that tile's TECs driven.
            rows = np.arange(sel.size * n_levels)[:, None]
            t_rows = np.repeat(t_comp_now[None, :], len(rows), axis=0)
            t_rows[rows, np.repeat(idx[sel], n_levels, axis=0)] = q[sel].reshape(
                len(rows), m
            )
            row_devs = np.repeat(devs[sel], n_levels, axis=0)
            states = np.zeros((len(rows), system.n_tec_devices))
            states[rows, row_devs] = np.repeat(tile_tecs[sel], n_levels, axis=0)
            t_cold = system.tec.cold_side_temperature_many(t_rows)
            w = system.tec.electrical_power_many(states, t_cold, t_hot)
            tec_w[sel] = w[rows, row_devs].reshape(sel.size, n_levels, -1)
        self._table.extend(q, units.k_to_c(q).max(axis=2), tec_w)

    # ------------------------------------------------------------------
    def evaluate_fan_setting(
        self,
        avg_p_components_w: np.ndarray,
        avg_tec: np.ndarray,
        fan_level: int,
    ) -> float:
        """Higher-level fan estimate — full model (firmware, not the
        systolic datapath; it runs at seconds scale)."""
        self.n_evaluations += 1
        t = self.system.solver.solve(avg_p_components_w, fan_level, avg_tec)
        return float(
            units.k_to_c(t[self.system.nodes.component_slice]).max()
        )
