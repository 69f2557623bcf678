"""Next-interval estimation: the controller's what-if machine.

Each control period, TECfan (and the baselines that estimate) must
answer: *if* the actuators were set to candidate configuration X, what
would next interval's temperatures and per-instruction energy be?
(Sec. III-D: "estimate the temperature and per-instruction energy
consumption in the next time interval if certain adjustment is made").

The estimator composes the paper's on-line models:

* dynamic power — Eq. (7) scaling of the last *measured* interval
  (:class:`repro.power.dynamic.DynamicPowerTracker`);
* leakage — linear Eq. (6) at the last measured temperatures;
* temperature — steady state Eq. (1) + transient Eq. (5);
* IPS — a pluggable predictor: Eq. (11) linear scaling for the closed
  SPLASH-2 workloads, or the demand-capped quadratic SPECjbb model for
  the server experiment (Sec. IV-B);
* TEC and fan power — Eq. (9) and the fan table.

Every :meth:`evaluate` call is counted, which is how the overhead
benchmark validates the O(NL + N^2 M) complexity claim of Sec. V-A.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from repro import units
from repro.core.problem import EnergyProblem
from repro.core.state import ActuatorState
from repro.core.system import CMPSystem
from repro.exceptions import ControlError
from repro.obs import telemetry as obs
from repro.power.component_power import core_dvfs_domain_mask
from repro.power.dynamic import DynamicPowerTracker
from repro.thermal.keys import exact_actuator_key


class IPSPredictor(Protocol):
    """Strategy mapping a candidate DVFS vector to per-core IPS.

    Predictors may additionally provide ``predict_many(levels)`` taking a
    ``(batch, n_cores)`` level matrix and returning ``(batch, n_cores)``
    IPS, with each row bit-identical to the corresponding ``predict``
    call; :func:`predict_ips_many` falls back to a per-row loop when the
    batched form is absent.
    """

    def observe(self, ips: np.ndarray, dvfs_levels: np.ndarray) -> None:
        """Record the last interval's measured IPS and levels."""
        ...

    def predict(self, dvfs_levels: np.ndarray) -> np.ndarray:
        """Per-core IPS for a candidate level vector."""
        ...


def predict_ips_many(
    predictor: IPSPredictor, levels: np.ndarray
) -> np.ndarray:
    """Batched per-core IPS for a ``(batch, n_cores)`` level matrix.

    Uses the predictor's vectorized ``predict_many`` when available,
    otherwise stacks per-row ``predict`` calls. Either way row ``b``
    is bit-identical to ``predictor.predict(levels[b])``.
    """
    batched = getattr(predictor, "predict_many", None)
    if batched is not None:
        return np.asarray(batched(levels))
    return np.stack([predictor.predict(lv) for lv in np.asarray(levels)])


@dataclass(frozen=True)
class Estimate:
    """Outcome of one what-if evaluation."""

    state: ActuatorState
    t_nodes_k: np.ndarray
    peak_temp_c: float
    p_chip_w: float
    p_cores_w: float
    p_tec_w: float
    p_fan_w: float
    ips_chip: float
    epi: float

    def feasible(self, problem: EnergyProblem) -> bool:
        """Does this candidate meet the temperature constraint?"""
        return problem.satisfied(self.peak_temp_c)


@dataclass(frozen=True)
class CandidateRows:
    """One estimator kernel pass: per-candidate arrays, one row each."""

    t_nodes_k: np.ndarray
    peak_temp_c: np.ndarray
    p_chip_w: np.ndarray
    p_cores_w: np.ndarray
    p_tec_w: np.ndarray
    p_fan_w: np.ndarray
    ips_chip: np.ndarray
    epi: np.ndarray

    @classmethod
    def assemble(
        cls, t_rows, peaks, p_dyn_many, p_leak, p_tec, p_fan, ips_many
    ) -> "CandidateRows":
        """Chip totals and Eq. (13) EPI from the per-row pieces.

        Contiguous copies keep each row's pairwise-summation order equal
        to the single-candidate ``.sum()`` it replaces.
        """
        p_cores = np.ascontiguousarray(p_dyn_many).sum(axis=1) + p_leak.sum()
        ips = np.ascontiguousarray(ips_many).sum(axis=1)
        p_chip = p_cores + p_tec + p_fan
        return cls(
            t_nodes_k=t_rows,
            peak_temp_c=peaks,
            p_chip_w=p_chip,
            p_cores_w=p_cores,
            p_tec_w=p_tec,
            p_fan_w=p_fan,
            ips_chip=ips,
            epi=EnergyProblem.epi_many(p_chip, ips),
        )

    def estimate(self, j: int, state: ActuatorState) -> Estimate:
        """Row ``j`` as the :class:`Estimate` of ``state``."""
        return Estimate(
            state=state,
            t_nodes_k=self.t_nodes_k[j],
            peak_temp_c=float(self.peak_temp_c[j]),
            p_chip_w=float(self.p_chip_w[j]),
            p_cores_w=float(self.p_cores_w[j]),
            p_tec_w=float(self.p_tec_w[j]),
            p_fan_w=float(self.p_fan_w[j]),
            ips_chip=float(self.ips_chip[j]),
            epi=float(self.epi[j]),
        )


class CandidateMemo(dict):
    """Per-interval memo: state key -> :class:`Estimate`.

    A candidate answered inside an array round is stored as its
    ``(CandidateRows, row)`` and becomes an :class:`Estimate` the first
    time someone asks for it, so rounds build objects for winners only.
    """

    def estimate(self, key: tuple, state: ActuatorState) -> Estimate | None:
        hit = self.get(key)
        if hit is None or isinstance(hit, Estimate):
            return hit
        rows, j = hit
        est = rows.estimate(j, state)
        self[key] = est
        return est

    def values_of(self, key: tuple) -> tuple[float, float, float]:
        """``(peak_temp_c, epi, ips_chip)`` of a memoized candidate."""
        hit = self[key]
        if isinstance(hit, Estimate):
            return hit.peak_temp_c, hit.epi, hit.ips_chip
        rows, j = hit
        return rows.peak_temp_c[j], rows.epi[j], rows.ips_chip[j]


@dataclass(frozen=True)
class CandidateScreen:
    """A DVFS candidate round answered as arrays.

    Row ``j`` is ``state`` with its DVFS vector replaced by
    ``levels[j]``; :meth:`estimate` builds the full :class:`Estimate`
    for the one row a controller accepts.
    """

    state: ActuatorState
    levels: np.ndarray
    peak_temp_c: np.ndarray
    epi: np.ndarray
    ips_chip: np.ndarray
    keys: list = field(repr=False)
    memo: CandidateMemo = field(repr=False)

    def estimate(self, j: int) -> Estimate:
        """Row ``j``'s :class:`Estimate` — the memo's object, so a later
        ``evaluate`` of the same state returns it too."""
        cand = self.state.with_dvfs_vector(self.levels[j])
        return self.memo.estimate(self.keys[j], cand)


def _require_interval(estimator) -> None:
    if estimator._t_nodes_k is None:
        raise ControlError("begin_interval must be called first")


def evaluate_states(estimator, states: list, many: bool) -> list:
    """Memoized estimates of ``states`` through ``estimator._kernel``.

    The shared body of both estimators' ``evaluate`` (``many=False``)
    and ``evaluate_many``: memo hits are served as they are, distinct
    misses go through one kernel pass grouped by exact actuator
    setting (fan level + TEC vector), and every computed estimate
    enters the memo.
    """
    _require_interval(estimator)
    memo = estimator._cache
    results: list = [None] * len(states)
    misses: dict = {}
    for i, state in enumerate(states):
        key = state.key()
        hit = memo.estimate(key, state)
        if hit is not None:
            obs.incr("estimator.cache_hits")
            results[i] = hit
        elif key not in misses:
            misses[key] = (i, state)
    if misses:
        if many:
            obs.incr("estimator.batch_calls")
            obs.incr("estimator.batch_candidates", len(misses))
        pending = list(misses.values())
        groups: dict = {}
        for r, (_, state) in enumerate(pending):
            gkey = exact_actuator_key(state.fan_level, state.tec)
            groups.setdefault(gkey, []).append(r)
        settings = [
            (np.asarray(rows), pending[rows[0]][1].fan_level,
             pending[rows[0]][1].tec)
            for rows in groups.values()
        ]
        levels = np.stack([state.dvfs for _, state in pending])
        rows = estimator._kernel(levels, settings, many)
        estimator.n_evaluations += len(pending)
        obs.incr("estimator.evaluations", len(pending))
        for r, (key, (i, state)) in enumerate(misses.items()):
            est = rows.estimate(r, state)
            memo[key] = est
            results[i] = est
    for i, state in enumerate(states):
        if results[i] is None:  # in-batch duplicate of a miss
            obs.incr("estimator.cache_hits")
            results[i] = memo[state.key()]
    return results


def screen_levels(
    estimator, state: ActuatorState, levels: np.ndarray
) -> CandidateScreen:
    """One DVFS round: ``state`` at every row of ``levels``, as arrays.

    Rows share the applied TEC vector and fan level, so the round is one
    kernel pass. Candidates already memoized (or repeated within the
    round) cost nothing and are not counted again, exactly as if each
    row had gone through ``evaluate``; new rows enter the memo without
    building an :class:`Estimate` per row.
    """
    _require_interval(estimator)
    levels = np.ascontiguousarray(levels, dtype=state.dvfs.dtype)
    memo = estimator._cache
    head, fan = state.tec.tobytes(), state.fan_level
    raw, width = levels.tobytes(), levels.shape[1] * levels.itemsize
    keys = [
        (head, raw[lo:lo + width], fan) for lo in range(0, len(raw), width)
    ]
    fresh: dict = {}
    for j, key in enumerate(keys):
        if key not in memo and key not in fresh:
            fresh[key] = j
    if fresh:
        obs.incr("estimator.batch_calls")
        obs.incr("estimator.batch_candidates", len(fresh))
        rows = estimator._kernel(
            levels[list(fresh.values())],
            [(slice(None), fan, state.tec)],
            True,
        )
        for r, key in enumerate(fresh):
            memo[key] = (rows, r)
        estimator.n_evaluations += len(fresh)
        obs.incr("estimator.evaluations", len(fresh))
    if fresh and len(fresh) == len(keys):
        peak, epi, ips = rows.peak_temp_c, rows.epi, rows.ips_chip
    else:
        obs.incr("estimator.cache_hits", len(keys) - len(fresh))
        peak, epi, ips = np.array(
            [memo.values_of(key) for key in keys], dtype=float
        ).reshape(len(keys), 3).T
    return CandidateScreen(
        state=state,
        levels=levels,
        peak_temp_c=peak,
        epi=epi,
        ips_chip=ips,
        keys=keys,
        memo=memo,
    )


@dataclass
class NextIntervalEstimator:
    """What-if evaluator over one :class:`CMPSystem`.

    Call :meth:`begin_interval` once per control period with the plant's
    measurements, then :meth:`evaluate` for each candidate. Evaluations
    within a period are memoized by actuator state.
    """

    system: CMPSystem
    ips_predictor: IPSPredictor
    dyn_tracker: DynamicPowerTracker = field(default=None)
    #: Total evaluations performed (complexity accounting).
    n_evaluations: int = 0

    # Per-interval context
    _t_nodes_k: np.ndarray = field(default=None, repr=False)
    _dt_s: float = 0.0
    _cache: dict = field(default_factory=CandidateMemo, repr=False)

    def __post_init__(self) -> None:
        if self.dyn_tracker is None:
            self.dyn_tracker = DynamicPowerTracker(
                dvfs=self.system.dvfs,
                tile_of=self.system.chip.tile_of(),
                core_domain=core_dvfs_domain_mask(self.system.chip),
            )

    # ------------------------------------------------------------------
    def begin_interval(
        self,
        sensor_temps_c: np.ndarray,
        p_dyn_measured_w: np.ndarray,
        ips_measured: np.ndarray,
        state: ActuatorState,
        dt_s: float,
    ) -> None:
        """Load one control period's measurements.

        Parameters
        ----------
        sensor_temps_c:
            Per-component sensor readings [degC].
        p_dyn_measured_w:
            Per-component dynamic power of the last interval [W]
            (CAMP-style runtime estimate).
        ips_measured:
            Per-core IPS of the last interval.
        state:
            The actuator configuration that produced the measurements.
        dt_s:
            Lower-level control period length.
        """
        if dt_s <= 0:
            raise ControlError(f"non-positive control period {dt_s}")
        nodes = self.system.nodes
        if self._t_nodes_k is None:
            self._t_nodes_k = self.system.uniform_initial_temps_k()
        # The controller senses die components; spreader and sink states
        # persist from its own previous prediction (a simple observer).
        t = self._t_nodes_k.copy()
        t[nodes.component_slice] = units.c_to_k(sensor_temps_c)
        self._t_nodes_k = t
        self.dyn_tracker.observe(p_dyn_measured_w, state.dvfs)
        self.ips_predictor.observe(ips_measured, state.dvfs)
        self._dt_s = dt_s
        self._cache.clear()

    def commit(self, estimate: Estimate) -> None:
        """Adopt an accepted candidate's field as the observer state.

        Memoized answers were relative to the old field and are dropped.
        """
        self._t_nodes_k = estimate.t_nodes_k
        self._cache.clear()

    def predicted_component_temps_c(self) -> np.ndarray | None:
        """The observer's current component temperatures [degC].

        After a :meth:`commit`, this is the model's prediction of what
        the *next* interval's sensors should read — the reference the
        engine's sensor validator checks raw readings against. ``None``
        until the first interval.
        """
        if self._t_nodes_k is None:
            return None
        return units.k_to_c(
            self._t_nodes_k[self.system.nodes.component_slice]
        )

    # ------------------------------------------------------------------
    def evaluate(self, state: ActuatorState) -> Estimate:
        """Predict next-interval temperature and EPI for ``state``."""
        return evaluate_states(self, [state], many=False)[0]

    def evaluate_many(self, states: list) -> list:
        """Batched :meth:`evaluate` over many candidate states.

        The returned list matches ``states`` positionally and every
        :class:`Estimate` is bit-identical to what the sequential call
        would produce: cached entries are served from the memo cache,
        misses sharing an actuator setting (fan level + TEC vector) go
        through one multi-RHS :meth:`SteadyStateSolver.solve_many`, and
        all per-candidate arithmetic keeps the sequential operation
        order. All computed estimates enter the memo cache.
        """
        return evaluate_states(self, states, many=True)

    def screen_dvfs(
        self, state: ActuatorState, levels: np.ndarray
    ) -> CandidateScreen:
        """Array answers for ``state`` at each DVFS row of ``levels``.

        See :func:`screen_levels`; one multi-RHS solve serves the round.
        """
        return screen_levels(self, state, levels)

    def _kernel(self, levels: np.ndarray, groups: list, many: bool):
        """:class:`CandidateRows` for ``levels`` rows, one solve per group.

        ``groups`` lists ``(rows, fan_level, tec)`` settings. A lone
        :meth:`evaluate` keeps the single-RHS :meth:`SteadyStateSolver.solve`
        (bit-identical to ``solve_many`` on exact factorizations, and
        the same residual check on Woodbury-corrected ones).
        """
        system = self.system
        nodes = system.nodes
        t_comp_k = self._t_nodes_k[nodes.component_slice]
        p_leak = system.power.controller_leakage.per_component_w(t_comp_k)
        p_dyn_many = self.dyn_tracker.predict_many(levels)
        ips_many = predict_ips_many(self.ips_predictor, levels)
        b = len(levels)
        t_rows = np.empty((b, nodes.n_nodes))
        p_tec = np.empty(b)
        p_fan = np.empty(b)
        for rows, fan, tec in groups:
            p_matrix = p_dyn_many[rows] + p_leak[None, :]
            if many:
                t_steady = system.solver.solve_many(p_matrix, fan, tec)
            else:
                t_steady = system.solver.solve(p_matrix[0], fan, tec)[None, :]
            beta = system.transient.betas(self._dt_s, fan, tec)
            t_next = (
                (1.0 - beta)[None, :] * t_steady
                + beta[None, :] * self._t_nodes_k[None, :]
            )
            t_rows[rows] = t_next
            p_tec[rows] = system.tec_power_many(tec, t_next)
            p_fan[rows] = system.fan.power_w(fan)
        peaks = units.k_to_c(t_rows[:, nodes.component_slice]).max(axis=1)
        return CandidateRows.assemble(
            t_rows, peaks, p_dyn_many, p_leak, p_tec, p_fan, ips_many
        )

    # ------------------------------------------------------------------
    def evaluate_fan_setting(
        self,
        avg_p_components_w: np.ndarray,
        avg_tec: np.ndarray,
        fan_level: int,
    ) -> float:
        """Higher-level fan loop estimate: steady-state peak temp [degC].

        Uses the last higher-level interval's *average* power and TEC
        state (possibly fractional), per Sec. III-D. The fan acts through
        the heat sink whose time constant dwarfs the fan period, so the
        steady field is the right horizon.
        """
        self.n_evaluations += 1
        t = self.system.solver.solve(avg_p_components_w, fan_level, avg_tec)
        return float(
            units.k_to_c(t[self.system.nodes.component_slice]).max()
        )
