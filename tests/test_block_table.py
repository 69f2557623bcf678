"""The banded estimator's core-block table against per-candidate solves.

:class:`LocalBandedEstimator` answers every candidate from a table of
core-block predictions keyed on ``(core, DVFS level, tile-TEC
setting)``. The reference below is the estimator as first written: one
``np.linalg.solve`` per (candidate, changed core), on top of a base
prediction of every core at the applied configuration. Table answers
must equal it bit for bit, the hardware counts must charge the same
passes, and no block may outlive the observer field it was solved in.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.core.local_estimator import LocalBandedEstimator, _quantize
from repro.core.problem import EnergyProblem
from repro.core.state import ActuatorState
from repro.core.system import build_system
from repro.perf.ips import IPSTracker

SYSTEM = build_system(rows=2, cols=2)


def reference_core(est, core, state, p_dyn):
    """One core's banded prediction, solved on its own [K]."""
    system = est.system
    blk = est._blocks[core]
    idx = blk.comp_idx
    m = len(idx)
    a = blk.g_local.copy()
    b_base = np.zeros(m)
    t_now = est._t_nodes_k
    for k in range(m):
        if blk.ext_node[k].size:
            b_base[k] += float(np.dot(blk.ext_g[k], t_now[blk.ext_node[k]]))
    tec = system.tec
    for dev in tec.tile_devices(core):
        s = float(state.tec[dev])
        if s <= 0.0:
            continue
        placement = tec.placements[dev]
        s_joule = float(tec.joule_scale(np.array([s]))[0])
        for ci, w in zip(placement.component_idx, placement.weights):
            k = int(ci - idx[0])
            a[k, k] += s * w * tec.alpha_i
            b_base[k] += s_joule * w * 0.5 * tec.joule_w
    beta = np.exp(-est._dt_s * np.diag(a) / blk.capacities)
    b = (p_dyn + est._p_leak)[idx] + b_base
    t_steady = np.linalg.solve(a, b)
    t_comp_now = t_now[system.nodes.component_slice]
    return _quantize((1.0 - beta) * t_steady + beta * t_comp_now[idx])


def reference_prediction(est, state):
    """Component prediction [K] and systolic passes of one candidate."""
    base = est._base_state
    p_base = est.dyn_tracker.predict(base.dvfs)
    pred = np.concatenate(
        [reference_core(est, c, base, p_base) for c in range(SYSTEM.n_cores)]
    )
    p_dyn = est.dyn_tracker.predict(state.dvfs)
    changed = set(np.flatnonzero(state.dvfs != base.dvfs).tolist())
    changed |= {
        int(SYSTEM.tec.device_tile[d])
        for d in np.flatnonzero(state.tec != base.tec)
    }
    for core in sorted(changed):
        blk = est._blocks[core]
        pred[blk.comp_idx] = reference_core(est, core, state, p_dyn)
    return pred, len(changed)


def reference_estimate(est, state):
    """Every field of one candidate's estimate, the per-candidate way."""
    pred, n_changed = reference_prediction(est, state)
    system = est.system
    t_nodes = est._t_nodes_k.copy()
    t_nodes[system.nodes.component_slice] = pred
    p_dyn = est.dyn_tracker.predict(state.dvfs)
    p_cores = float(p_dyn.sum() + est._p_leak.sum())
    p_tec = system.tec_power_w(state.tec, t_nodes)
    p_fan = system.fan.power_w(state.fan_level)
    p_chip = p_cores + p_tec + p_fan
    ips = float(np.sum(est.ips_predictor.predict(state.dvfs)))
    fields = {
        "peak_temp_c": float(units.k_to_c(pred).max()),
        "p_chip_w": p_chip,
        "p_cores_w": p_cores,
        "p_tec_w": p_tec,
        "p_fan_w": p_fan,
        "ips_chip": ips,
        "epi": EnergyProblem.epi(p_chip, ips),
    }
    return t_nodes, fields, n_changed


def assert_matches_reference(est, got):
    t_nodes, fields, _ = reference_estimate(est, got.state)
    assert np.array_equal(got.t_nodes_k, t_nodes)
    for name, value in fields.items():
        assert getattr(got, name) == value, name


def primed(seed=0, levels=None):
    est = LocalBandedEstimator(
        system=SYSTEM, ips_predictor=IPSTracker(dvfs=SYSTEM.dvfs)
    )
    rng = np.random.default_rng(seed)
    n_comp = SYSTEM.nodes.n_components
    state = ActuatorState.initial(
        SYSTEM.n_tec_devices, SYSTEM.n_cores, SYSTEM.dvfs.max_level, 2
    )
    state = state.with_dvfs_vector(
        rng.integers(0, SYSTEM.dvfs.max_level + 1, SYSTEM.n_cores)
        if levels is None
        else levels
    )
    est.begin_interval(
        60.0 + 10.0 * rng.random(n_comp),
        1.0 + rng.random(n_comp),
        1e9 * (1.0 + rng.random(SYSTEM.n_cores)),
        state,
        2e-3,
    )
    return est, state


level_rows = st.lists(
    st.lists(
        st.integers(0, SYSTEM.dvfs.max_level),
        min_size=SYSTEM.n_cores,
        max_size=SYSTEM.n_cores,
    ),
    min_size=1,
    max_size=6,
)
tile_tecs = st.lists(
    st.sampled_from([0.0, 1.0]),
    min_size=SYSTEM.n_tec_devices,
    max_size=SYSTEM.n_tec_devices,
)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 1000), levels=level_rows, tec=tile_tecs)
def test_round_equals_per_candidate_solves(seed, levels, tec):
    est, state = primed(seed)
    work = state.with_tec_vector(np.asarray(tec))
    levels = np.asarray(levels)
    screen = est.screen_dvfs(work, levels)
    passes = SYSTEM.n_cores  # the interval's base prediction
    for j, row in enumerate(levels):
        cand = work.with_dvfs_vector(row)
        _, fields, n_changed = reference_estimate(est, cand)
        got = screen.estimate(j)
        assert got.state.key() == cand.key()
        assert_matches_reference(est, got)
        assert screen.peak_temp_c[j] == fields["peak_temp_c"]
        assert screen.epi[j] == fields["epi"]
        assert screen.ips_chip[j] == fields["ips_chip"]
        if all(not np.array_equal(row, r) for r in levels[:j]):
            passes += n_changed
    n_distinct = len({row.tobytes() for row in levels})
    assert est.n_evaluations == n_distinct
    assert est.n_core_solves == passes


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 1000), levels=level_rows, tec=tile_tecs)
def test_states_equal_per_candidate_solves(seed, levels, tec):
    """Mixed TEC settings through ``evaluate_many`` and ``evaluate``."""
    est, state = primed(seed)
    cands = [
        state.with_tec_vector(np.asarray(tec) * (j % 2)).with_dvfs_vector(row)
        for j, row in enumerate(levels)
    ]
    single, _ = primed(seed)
    for cand, got in zip(cands, est.evaluate_many(cands)):
        assert_matches_reference(est, got)
        alone = single.evaluate(cand)
        assert np.array_equal(alone.t_nodes_k, got.t_nodes_k)
        assert dataclasses.astuple(alone)[2:] == dataclasses.astuple(got)[2:]
    assert est.n_core_solves == single.n_core_solves


def _round(state):
    """Every one-level move of every core from ``state``."""
    rows = []
    for core in range(SYSTEM.n_cores):
        for step in (-1, 1):
            lv = state.dvfs.copy()
            lv[core] = np.clip(lv[core] + step, 0, SYSTEM.dvfs.max_level)
            rows.append(lv)
    return np.asarray(rows)


def test_commit_drops_every_block():
    mid = np.full(SYSTEM.n_cores, 2)
    est, state = primed(3, mid)
    est.screen_dvfs(state, _round(state))
    other = est.evaluate(state.with_dvfs(0, 3))
    moved = dataclasses.replace(other, t_nodes_k=other.t_nodes_k + 1.5)
    est.commit(moved)
    fresh, _ = primed(3, mid)
    fresh.commit(moved)
    # A state from the first round, and one that only shares its blocks
    # (cores 1..3 at their base level).
    for cand in (state.with_dvfs(0, 1), state.with_dvfs(0, 1).with_tec(0, 1.0)):
        a, b = est.evaluate(cand), fresh.evaluate(cand)
        assert np.array_equal(a.t_nodes_k, b.t_nodes_k)
        assert a.peak_temp_c == b.peak_temp_c and a.epi == b.epi
        assert_matches_reference(fresh, a)


def test_new_interval_drops_every_block():
    mid = np.full(SYSTEM.n_cores, 2)
    est, state = primed(4, mid)
    est.screen_dvfs(state, _round(state))
    fresh, _ = primed(4, mid)
    rng = np.random.default_rng(9)
    n_comp = SYSTEM.nodes.n_components
    readings = (
        65.0 + 5.0 * rng.random(n_comp),
        1.5 + rng.random(n_comp),
        1e9 * (1.0 + rng.random(SYSTEM.n_cores)),
    )
    for e in (est, fresh):
        e.begin_interval(*readings, state, 2e-3)
    again = est.screen_dvfs(state, _round(state))
    first = fresh.screen_dvfs(state, _round(state))
    assert np.array_equal(again.peak_temp_c, first.peak_temp_c)
    assert np.array_equal(again.epi, first.epi)
    for j in range(len(again.levels)):
        assert np.array_equal(
            again.estimate(j).t_nodes_k, first.estimate(j).t_nodes_k
        )
    assert est.n_evaluations == 2 * fresh.n_evaluations


def test_repeated_round_is_served_from_the_memo():
    est, state = primed(5, np.full(SYSTEM.n_cores, 2))
    levels = _round(state)
    first = est.screen_dvfs(state, levels)
    counts = (est.n_evaluations, est.n_core_solves, est.n_block_solves)
    again = est.screen_dvfs(state, levels)
    assert (est.n_evaluations, est.n_core_solves, est.n_block_solves) == counts
    assert np.array_equal(again.epi, first.epi)
    # A winner's Estimate is one object for the round and for evaluate.
    chosen = again.estimate(3)
    assert first.estimate(3) is chosen
    assert est.evaluate(chosen.state) is chosen


def test_block_solves_count_host_work_only():
    est, state = primed(6, np.full(SYSTEM.n_cores, 2))
    n_levels = SYSTEM.dvfs.n_levels
    est.screen_dvfs(state, _round(state))
    # The host solves each (core, tile-TEC) context once at every level;
    # the hardware re-solves one core per candidate on top of its base
    # pass.
    assert est.n_block_solves == SYSTEM.n_cores * n_levels
    assert est.n_core_solves == SYSTEM.n_cores + len(_round(state))
    # A TEC toggle brings one new context (its tile), nothing else.
    toggled = state.with_tec(0, 1.0)
    est.screen_dvfs(toggled, _round(toggled))
    assert est.n_block_solves == (SYSTEM.n_cores + 1) * n_levels


def test_levels_outside_the_table_are_rejected():
    from repro.exceptions import ControlError

    est, state = primed(7)
    bad = np.full((1, SYSTEM.n_cores), SYSTEM.dvfs.max_level + 1)
    with pytest.raises(ControlError):
        est.screen_dvfs(state, bad)
