"""Batched exhaustive search == the per-variant reference loop.

:meth:`ExhaustiveSearcher.decide` evaluates every (variant, DVFS) pair
by superposition. The reference below is the direct form it replaced:
one dense inverse per (TEC-gang, fan) variant and two full
temperature-leakage passes over the DVFS batch, scanned variant by
variant keeping the first strictly better candidate. Both must pick
the same configuration, with objectives equal to rounding.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import units
from repro.core.estimator import NextIntervalEstimator, predict_ips_many
from repro.core.oracle import ExhaustiveSearcher, make_oftec, make_oracle
from repro.core.problem import EnergyProblem
from repro.core.state import ActuatorState
from repro.core.system import build_system
from repro.perf.ips import IPSTracker

RTOL = 1e-9


def reference_tables(searcher, sensor_temps_c, estimator):
    """(objective, peak [K], clipped) per (variant, DVFS), loop form."""
    system = estimator.system
    nodes = system.nodes
    comp = nodes.component_slice
    tec_model = system.tec
    cold_w = np.zeros((tec_model.n_devices, nodes.n_components))
    cold_w[tec_model.coo_device, tec_model.coo_component] = tec_model.coo_weight
    lk = system.power.controller_leakage
    frac = lk.areas_mm2 / lk.chip_area_mm2

    levels = searcher._dvfs_space
    p_dyn = estimator.dyn_tracker.predict_many(levels)
    leak0 = lk.per_component_w(units.c_to_k(np.asarray(sensor_temps_c, dtype=float)))
    ips = predict_ips_many(estimator.ips_predictor, levels).sum(axis=1)
    fan_power = system.fan.power_table()

    n_variants = len(searcher._variant_fan)
    obj = np.empty((n_variants, len(levels)))
    peak = np.empty_like(obj)
    clipped = np.zeros(n_variants, dtype=bool)
    for k in range(n_variants):
        fan = int(searcher._variant_fan[k])
        tec = searcher._variant_tec[k]
        inv = np.linalg.inv(system.cond.matrix(fan, tec).toarray())
        rhs_const = system.cond.rhs(np.zeros(nodes.n_components), fan, tec)

        rhs = np.zeros((len(levels), nodes.n_nodes))
        rhs[:, comp] = p_dyn + leak0[None, :]
        rhs += rhs_const[None, :]
        t1 = rhs @ inv.T
        chipwise = lk.p_tdp_leak_w + lk.alpha_w_per_k * (t1[:, comp] - lk.t_tdp_k)
        clipped[k] = np.any(chipwise < 0.0)
        leak1 = np.clip(chipwise, 0.0, None) * frac[None, :]
        rhs[:, comp] = p_dyn + leak1 + rhs_const[None, comp]
        t2 = rhs @ inv.T

        peak[k] = t2[:, comp].max(axis=1)
        t_cold = t2[:, comp] @ cold_w.T
        t_hot = t2[:, nodes.n_components + tec_model.device_tile]
        p_tec = (
            tec[None, :] * (tec_model.joule_w + tec_model.alpha_i * (t_hot - t_cold))
        ).sum(axis=1)
        if searcher.objective == "cooling":
            obj[k] = p_tec + fan_power[fan - 1]
        else:
            p_chip = p_dyn.sum(axis=1) + leak1.sum(axis=1) + p_tec + fan_power[fan - 1]
            with np.errstate(divide="ignore"):
                obj[k] = np.where(ips > 0, p_chip / np.maximum(ips, 1e-9), np.inf)
    return obj, peak, clipped, ips


def reference_choice(searcher, obj, peak, ips, threshold_c, floor=None):
    """(variant, DVFS index): the loop's first strictly better candidate."""
    th_k = units.c_to_k(threshold_c)
    best = fallback = None
    for k in range(len(obj)):
        feasible = peak[k] <= th_k
        if floor is not None:
            feasible &= ips >= min(floor, float(ips.max())) * (1.0 - 1e-9)
        if np.any(feasible):
            d = int(np.argmin(np.where(feasible, obj[k], np.inf)))
            if best is None or obj[k, d] < best[0]:
                best = (obj[k, d], k, d)
        d = int(np.argmin(peak[k]))
        if fallback is None or peak[k, d] < fallback[0]:
            fallback = (peak[k, d], k, d)
    _, k, d = best if best is not None else fallback
    return k, d, best is None


def primed_estimator(system, seed=0, temp_c=70.0, ips_scale=1.0):
    """An estimator loaded with one asymmetric measured interval."""
    rng = np.random.default_rng(seed)
    n = system.nodes.n_components
    est = NextIntervalEstimator(system=system, ips_predictor=IPSTracker(system.dvfs))
    state = ActuatorState.initial(
        system.n_tec_devices, system.n_cores, system.dvfs.max_level, fan_level=2
    )
    temps = temp_c + rng.uniform(-5.0, 5.0, n)
    est.begin_interval(
        temps,
        rng.uniform(0.05, 0.3, n),
        ips_scale * rng.uniform(0.8e9, 1.2e9, system.n_cores),
        state,
        1.0,
    )
    return est, state, temps


def check_equivalent(searcher, primed, threshold_c, floor=None):
    """Run both searches; return (reference clipped flags, fell back)."""
    estimator, state, temps = primed
    searcher.decision_period = 1
    problem = EnergyProblem(t_threshold_c=threshold_c)
    out = searcher.decide(state, temps, estimator, problem)

    obj_ref, peak_ref, clipped, ips = reference_tables(searcher, temps, estimator)
    k, d, fell_back = reference_choice(searcher, obj_ref, peak_ref, ips, threshold_c, floor)
    assert out.fan_level == searcher._variant_fan[k]
    np.testing.assert_array_equal(out.tec, searcher._variant_tec[k])
    np.testing.assert_array_equal(out.dvfs, searcher._dvfs_space[d])

    obj, peak = searcher._evaluate(temps, estimator, ips)
    np.testing.assert_allclose(peak, peak_ref, rtol=RTOL)
    finite = np.isfinite(obj_ref)
    np.testing.assert_array_equal(np.isfinite(obj), finite)
    np.testing.assert_allclose(obj[finite], obj_ref[finite], rtol=RTOL)
    return clipped, fell_back


@pytest.fixture(scope="module")
def clip_system():
    """A steep leakage slope puts the Eq. (6) clip knee at 40 degC."""
    return build_system(rows=1, cols=2, leakage_slope_w_per_k=0.6)


@pytest.mark.parametrize("threshold_c", [80.0, 95.0])
def test_oracle_system2(system2, threshold_c):
    primed = primed_estimator(system2)
    clipped, _ = check_equivalent(make_oracle(), primed, threshold_c)
    assert not clipped.any()


def test_oracle_system4(system4):
    primed = primed_estimator(system4, seed=1)
    check_equivalent(make_oracle(), primed, 90.0)


def test_two_gangs_per_core(system2):
    primed = primed_estimator(system2, seed=2)
    searcher = ExhaustiveSearcher(tec_gangs_per_core=2)
    check_equivalent(searcher, primed, 85.0)
    assert len(searcher._variant_fan) == 2**4 * system2.fan.n_levels


@pytest.mark.parametrize("system_name", ["system2", "system4"])
def test_oftec_cooling_objective(request, system_name):
    system = request.getfixturevalue(system_name)
    primed = primed_estimator(system, seed=3)
    check_equivalent(make_oftec(), primed, 85.0)


def test_cooling_objective_over_dvfs(system2):
    primed = primed_estimator(system2, seed=4)
    searcher = ExhaustiveSearcher(objective="cooling", dvfs_exhaustive=True)
    check_equivalent(searcher, primed, 85.0)


def test_binding_perf_floor(system2):
    primed = primed_estimator(system2, seed=5)
    top = np.full((1, system2.n_cores), system2.dvfs.max_level)
    floor = 0.95 * float(predict_ips_many(primed[0].ips_predictor, top).sum())
    oracle_p = make_oracle(perf_floor=np.array([floor]))
    unconstrained = make_oracle()
    check_equivalent(unconstrained, primed, 95.0)
    check_equivalent(oracle_p, primed, 95.0, floor=floor)
    # The floor binds: it rules out the unconstrained optimum.
    assert not np.array_equal(oracle_p._held.dvfs, unconstrained._held.dvfs)


def test_all_infeasible_falls_back_to_least_peak(system2):
    primed = primed_estimator(system2, seed=6)
    _, fell_back = check_equivalent(make_oracle(), primed, 30.0)
    assert fell_back


def test_idle_chip_keeps_the_loop_choice_among_infinite_objectives(system2):
    """Zero IPS makes every EPI objective infinite; the loop then keeps
    the first variant with a feasible point, at DVFS index 0."""
    primed = primed_estimator(system2, seed=8, ips_scale=0.0)
    oracle = make_oracle()
    # Variant 0 (no TECs, fan level 1) cannot meet 45 degC; others can.
    _, fell_back = check_equivalent(oracle, primed, 45.0)
    assert not fell_back
    assert oracle._held.tec_on_count > 0 or oracle._held.fan_level != 1
    np.testing.assert_array_equal(oracle._held.dvfs, oracle._dvfs_space[0])


@pytest.mark.parametrize("objective", ["epi", "cooling"])
def test_below_leakage_knee_takes_exact_clipped_pass(clip_system, objective):
    primed = primed_estimator(clip_system, seed=7, temp_c=60.0)
    searcher = ExhaustiveSearcher(objective=objective)
    clipped, _ = check_equivalent(searcher, primed, 90.0)
    # Some variants clip Eq. (6) at the knee, others stay linear.
    assert clipped.any() and not clipped.all()
