"""Exhaustive optimizers: Oracle, Oracle-P and OFTEC (paper Sec. V-A/V-E).

* **Oracle** minimizes the full EPI objective (Eq. 13) by enumerating the
  entire discrete configuration space — per-core TEC banks x per-core
  DVFS levels x fan levels — and is therefore ``O(M^N 2^{N L})``:
  exponential, usable only on the 4-core server setup, exactly as the
  paper argues.
* **Oracle-P** adds a per-interval performance floor so its delay equals
  TECfan's ("the exactly same performance degradation", Sec. V-E).
* **OFTEC** (Dousti & Pedram, DAC'14) pins DVFS at the maximum level and
  minimizes the *cooling* power (TEC + fan) subject to the temperature
  constraint, considering the temperature-leakage coupling. The paper
  runs OFTEC with exhaustive search too ("we make OFTEC do exhaustive
  search like Oracle"), complexity ``O(2^{N L})``.

Tractability note (documented in DESIGN.md): per-core TECs are ganged
into ``tec_gangs_per_core`` banks for the exhaustive space — with nine
independent devices per core even a 4-core space has 2^36 TEC states,
which no per-interval exhaustive search (the authors' included) can
enumerate. The heuristic TECfan keeps full per-device control.

Implementation: the search is vectorized by superposition. For each of
the ``2^(N*gangs) * F`` (TEC-gang, fan) variants, ``_prepare`` caches
the inverse's component columns, the actuator-only temperature field
and the Eq. (9) TEC-power functional once (G never changes within a
run). Eq. (7) dynamic power is separable per core and Eq. (6) leakage
is linear above its clip knee, so each variant's temperatures over all
``M^N`` DVFS configurations after both temperature-leakage passes (the
coupling OFTEC models) are a constant plus ``ratio @ V`` with a rank-N
response ``V``. Leakage, TEC power and the objectives are (variant,
DVFS)-sized products; only the peak temperature expands over
components, a cache-sized block of variants at a time. A variant whose
pass-1 temperatures may fall below the clip knee takes the exact
clipped pass instead.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro import units
from repro.core.controller import Controller
from repro.core.estimator import NextIntervalEstimator, predict_ips_many
from repro.core.problem import EnergyProblem
from repro.core.state import ActuatorState
from repro.exceptions import ConfigurationError

#: Elements per (variants, DVFS, components) block of the peak search.
_PEAK_BLOCK = 1 << 17


@dataclass
class ExhaustiveSearcher(Controller):
    """Vectorized exhaustive optimizer over (TEC banks, DVFS, fan).

    Parameters
    ----------
    objective:
        ``"epi"`` (Oracle) or ``"cooling"`` (OFTEC).
    dvfs_exhaustive:
        Enumerate per-core DVFS levels; ``False`` pins all cores at the
        top level (OFTEC does not actuate DVFS).
    tec_gangs_per_core:
        TEC banks per core in the exhaustive space.
    perf_floor:
        Optional per-decision chip-IPS floor series (Oracle-P): the
        ``k``-th decision must keep IPS >= ``perf_floor[k]``.
    """

    name: str = "Oracle"
    objective: str = "epi"
    dvfs_exhaustive: bool = True
    tec_gangs_per_core: int = 1
    perf_floor: np.ndarray | None = None
    #: Re-optimize every this many decide() calls, holding the last
    #: configuration in between. The paper's own argument (prohibitive
    #: search time) applies to the simulation too; re-deciding at the
    #: fan's time scale loses nothing on the slow-moving server trace.
    decision_period: int = 10
    #: Total configurations evaluated (complexity accounting).
    n_configurations: int = 0

    _inv_comp: np.ndarray = field(default=None, repr=False)  # (K, n, n_comp)
    _const: np.ndarray = field(default=None, repr=False)  # (K, n)
    _tec_h: np.ndarray = field(default=None, repr=False)  # (K, n)
    _variant_fan: np.ndarray = field(default=None, repr=False)
    _variant_tec: np.ndarray = field(default=None, repr=False)  # (K, L)
    _dvfs_space: np.ndarray = field(default=None, repr=False)  # (D, N)
    _decision_index: int = 0
    _chosen_fan: int = 1
    _held: ActuatorState = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.objective not in ("epi", "cooling"):
            raise ConfigurationError(f"unknown objective {self.objective!r}")
        if self.tec_gangs_per_core < 1:
            raise ConfigurationError("need at least one TEC gang per core")

    def reset(self) -> None:
        self._decision_index = 0
        self._held = None

    # ------------------------------------------------------------------
    # Space construction (lazy; G variants cached for the run)
    # ------------------------------------------------------------------
    def _gang_devices(self, system) -> list[np.ndarray]:
        """Device index sets per (core, gang)."""
        gangs: list[np.ndarray] = []
        for core in range(system.n_cores):
            devs = system.tec.tile_devices(core)
            for part in np.array_split(devs, self.tec_gangs_per_core):
                gangs.append(part)
        return gangs

    def _prepare(self, system) -> None:
        if self._inv_comp is not None:
            return
        n_gangs = system.n_cores * self.tec_gangs_per_core
        if n_gangs > 16:
            raise ConfigurationError(
                f"{n_gangs} TEC gangs -> 2^{n_gangs} variants: exhaustive "
                "search is intractable (that is the paper's point; use a "
                "smaller platform or fewer gangs)"
            )
        gangs = self._gang_devices(system)
        nodes = system.nodes
        comp = nodes.component_slice
        tec_model = system.tec
        # Cold-side temperatures are footprint-weighted component temps.
        cold_w = np.zeros((tec_model.n_devices, nodes.n_components))
        cold_w[tec_model.coo_device, tec_model.coo_component] = (
            tec_model.coo_weight
        )
        inv_comp, const, tec_h, v_fan, v_tec = [], [], [], [], []
        for bits in itertools.product((0.0, 1.0), repeat=n_gangs):
            tec = np.zeros(system.n_tec_devices)
            for g, on in enumerate(bits):
                if on:
                    tec[gangs[g]] = 1.0
            # Eq. (9) TEC power is joule * n_on + alpha_i * (h . T).
            h = np.zeros(nodes.n_nodes)
            np.add.at(h, nodes.n_components + tec_model.device_tile, tec)
            h[comp] -= tec @ cold_w
            for fan in range(1, system.fan.n_levels + 1):
                inv = np.linalg.inv(system.cond.matrix(fan, tec).toarray())
                rhs = system.cond.rhs(np.zeros(nodes.n_components), fan, tec)
                inv_comp.append(inv[:, comp])
                const.append(inv @ rhs)
                tec_h.append(h)
                v_fan.append(fan)
                v_tec.append(tec)
        self._inv_comp = np.stack(inv_comp)
        self._const = np.stack(const)
        self._tec_h = np.stack(tec_h)
        self._variant_fan = np.asarray(v_fan, dtype=int)
        self._variant_tec = np.stack(v_tec)

        m = system.dvfs.n_levels
        if self.dvfs_exhaustive:
            self._dvfs_space = np.array(
                list(itertools.product(range(m), repeat=system.n_cores)),
                dtype=int,
            )
        else:
            self._dvfs_space = np.full(
                (1, system.n_cores), system.dvfs.max_level, dtype=int
            )

    # ------------------------------------------------------------------
    def decide(
        self,
        state: ActuatorState,
        sensor_temps_c: np.ndarray,
        estimator: NextIntervalEstimator,
        problem: EnergyProblem,
    ) -> ActuatorState:
        call = self._decision_index
        self._decision_index += 1
        if call % self.decision_period != 0 and self._held is not None:
            return self._held
        self._prepare(estimator.system)
        if not estimator.dyn_tracker.ready:
            return state
        levels = self._dvfs_space  # (D, N)
        ips = predict_ips_many(
            estimator.ips_predictor, levels
        ).sum(axis=1)  # (D,)
        obj, peak = self._evaluate(sensor_temps_c, estimator, ips)
        self.n_configurations += obj.size

        feasible = peak <= units.c_to_k(problem.t_threshold_c)
        if self.perf_floor is not None:
            i = min(call, len(self.perf_floor) - 1)
            # Cap at what is achievable under the *current* demand — the
            # reference trace's timing can differ by an interval.
            floor = min(float(self.perf_floor[i]), float(ips.max()))
            feasible &= ips[None, :] >= floor * (1.0 - 1e-9)

        # First minimum in variant-major order, as a per-variant scan
        # keeping the first strictly better candidate would find it.
        if np.any(feasible):
            masked = np.where(feasible, obj, np.inf)
            d_row = np.argmin(masked, axis=1)
            row_best = masked[np.arange(len(d_row)), d_row]
            has = feasible.any(axis=1)
            k = int(np.argmin(np.where(has, row_best, np.inf)))
            if not has[k]:  # every feasible objective is infinite
                k = int(np.argmax(has))
            d = int(d_row[k])
        else:  # thermally safest configuration
            k, d = divmod(int(np.argmin(peak)), peak.shape[1])
        self._chosen_fan = int(self._variant_fan[k])
        self._held = ActuatorState(
            tec=self._variant_tec[k].copy(),
            dvfs=self._dvfs_space[d].copy(),
            fan_level=self._chosen_fan,
        )
        return self._held

    def _evaluate(
        self,
        sensor_temps_c: np.ndarray,
        estimator: NextIntervalEstimator,
        ips: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Objective and peak temperature [K] of every (variant, DVFS) pair.

        Two temperature-leakage passes by superposition: with Eq. (7)
        separable per core, pass 1 is ``base1 + ratio @ U`` per variant,
        and the linear Eq. (6) leakage folds pass 2 into the rank-N
        ``base2 + ratio @ V``. Variants whose pass-1 lower bound reaches
        below the leakage clip knee take the exact clipped pass instead.
        """
        system = estimator.system
        comp = system.nodes.component_slice
        lk = system.power.controller_leakage
        frac = lk.areas_mm2 / lk.chip_area_mm2
        a_frac = lk.alpha_w_per_k * frac
        levels = self._dvfs_space
        ratio, basis, fixed = estimator.dyn_tracker.linear_split(levels)
        p_dyn = fixed + ratio @ basis  # (D, n_comp), == predict_many exactly
        leak0 = lk.per_component_w(
            units.c_to_k(np.asarray(sensor_temps_c, dtype=float))
        )

        inv_c = self._inv_comp  # (K, n, n_comp)
        inv_c_t = inv_c.transpose(0, 2, 1)
        u = basis @ inv_c_t  # (K, N, n): per-core pass-1 response
        base1 = self._const + inv_c @ (fixed + leak0)  # (K, n)
        u_comp = u[:, :, comp]
        # Pass 2 with linear Eq. (6): leak1 = leak_c + a_frac * t1.
        leak_c = frac * (lk.p_tdp_leak_w - lk.alpha_w_per_k * lk.t_tdp_k)
        base2 = self._const + np.einsum(
            "knc,kc->kn", inv_c, fixed + leak_c + a_frac * base1[:, comp]
        )
        v = u + (u_comp * a_frac) @ inv_c_t  # (K, N, n)

        leak_sum = (
            leak_c.sum() + base1[:, comp] @ a_frac
        )[:, None] + (u_comp @ a_frac) @ ratio.T  # (K, D)
        h = self._tec_h
        n_on = self._variant_tec.sum(axis=1)
        p_tec = system.tec.joule_w * n_on[:, None] + system.tec.alpha_i * (
            np.einsum("kn,kn->k", base2, h)[:, None]
            + np.einsum("kjn,kn->kj", v, h) @ ratio.T
        )
        # Only the peak needs every component. Fold base2 in as a unit
        # ratio column and take one GEMM per block of variants, so each
        # (n_comp, D) temperature block stays cache-sized.
        lhs = np.concatenate((v[:, :, comp], base2[:, None, comp]), axis=1)
        lhs = lhs.transpose(0, 2, 1).reshape(-1, lhs.shape[1])  # (K*n_comp, N+1)
        ratio1 = np.vstack((ratio.T, np.ones(len(levels))))  # (N+1, D)
        n_comp = u_comp.shape[2]
        step = max(1, _PEAK_BLOCK // (n_comp * len(levels)))
        peak = np.empty_like(p_tec)
        for s in range(0, len(peak), step):
            t2 = lhs[s * n_comp : (s + step) * n_comp] @ ratio1
            peak[s : s + step] = t2.reshape(-1, n_comp, len(levels)).max(axis=1)

        # Exact clipped pass for variants that may reach the knee.
        if lk.alpha_w_per_k > 0:
            knee = lk.t_tdp_k - lk.p_tdp_leak_w / lk.alpha_w_per_k
            r_lo = ratio.min(axis=0)[None, :, None]
            r_hi = ratio.max(axis=0)[None, :, None]
            t1_lo = base1[:, comp] + np.minimum(r_lo * u_comp, r_hi * u_comp).sum(axis=1)
            for k in np.flatnonzero(t1_lo.min(axis=1) < knee):
                t1 = base1[k, comp] + ratio @ u_comp[k]  # (D, n_comp)
                leak1 = np.clip(
                    lk.p_tdp_leak_w + lk.alpha_w_per_k * (t1 - lk.t_tdp_k),
                    0.0,
                    None,
                ) * frac
                t2 = self._const[k] + (p_dyn + leak1) @ inv_c[k].T  # (D, n)
                peak[k] = t2[:, comp].max(axis=1)
                leak_sum[k] = leak1.sum(axis=1)
                p_tec[k] = system.tec.joule_w * n_on[k] + system.tec.alpha_i * (
                    t2 @ h[k]
                )

        fan_power = system.fan.power_table()[self._variant_fan - 1][:, None]
        if self.objective == "cooling":
            return p_tec + fan_power, peak
        p_chip = p_dyn.sum(axis=1) + leak_sum + p_tec + fan_power
        with np.errstate(divide="ignore"):
            obj = np.where(ips > 0, p_chip / np.maximum(ips, 1e-9), np.inf)
        return obj, peak

    def decide_fan(
        self,
        state: ActuatorState,
        avg_p_components_w: np.ndarray,
        avg_tec: np.ndarray,
        estimator: NextIntervalEstimator,
        problem: EnergyProblem,
    ) -> int:
        """The exhaustive search already chose the fan jointly."""
        return self._chosen_fan


def make_oracle(perf_floor: np.ndarray | None = None) -> ExhaustiveSearcher:
    """The paper's Oracle (or Oracle-P when ``perf_floor`` is given)."""
    return ExhaustiveSearcher(
        name="Oracle-P" if perf_floor is not None else "Oracle",
        objective="epi",
        dvfs_exhaustive=True,
        perf_floor=perf_floor,
    )


def make_oftec() -> ExhaustiveSearcher:
    """OFTEC: exhaustive cooling-power minimization, DVFS pinned."""
    return ExhaustiveSearcher(
        name="OFTEC", objective="cooling", dvfs_exhaustive=False
    )
