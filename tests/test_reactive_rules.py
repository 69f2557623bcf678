"""The vectorised reactive TEC and DVFS rules match their per-device loops.

``_tec_reactive`` reduces over the TEC footprint triplets with
``np.bincount`` and ``_dvfs_reactive`` over tile slices; the loops below
are the rules as first written, one device or one core at a time. Both
must agree exactly, including the hysteresis hold and a NaN reading
(which satisfies neither the on nor the off test, so the device or core
keeps its state).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baselines import (
    DVFS_RAISE_HYSTERESIS_C,
    TEC_OFF_HYSTERESIS_C,
    _dvfs_reactive,
    _tec_reactive,
)
from repro.core.problem import EnergyProblem
from repro.core.state import ActuatorState
from repro.core.system import build_system

TH = 80.0
PROBLEM = EnergyProblem(t_threshold_c=TH)


def tec_reactive_loop(state, sensor_temps_c, system, problem):
    temps = np.asarray(sensor_temps_c, dtype=float)
    tec = state.tec.copy()
    for placement in system.tec.placements:
        under = temps[placement.component_idx]
        if np.any(under > problem.t_threshold_c):
            tec[placement.device] = 1.0
        elif np.all(under < problem.t_threshold_c - TEC_OFF_HYSTERESIS_C):
            tec[placement.device] = 0.0
    return tec


def dvfs_reactive_loop(state, sensor_temps_c, system, problem):
    temps = np.asarray(sensor_temps_c, dtype=float)
    levels = state.dvfs.copy()
    max_level = system.dvfs.max_level
    for core in range(system.n_cores):
        core_peak = temps[system.chip.tile_slice(core)].max()
        if core_peak > problem.t_threshold_c:
            levels[core] = max(0, levels[core] - 1)
        elif core_peak < problem.t_threshold_c - DVFS_RAISE_HYSTERESIS_C:
            levels[core] = min(max_level, levels[core] + 1)
    return levels


@pytest.fixture(scope="module")
def system():
    return build_system(rows=2, cols=2)


def _state(system, tec=None, dvfs=None):
    state = ActuatorState.initial(
        system.n_tec_devices, system.n_cores, system.dvfs.max_level, 1
    )
    if tec is not None:
        state = state.with_tec_vector(tec)
    if dvfs is not None:
        state = state.with_dvfs_vector(dvfs)
    return state


def _assert_rules_match(system, state, temps):
    np.testing.assert_array_equal(
        _tec_reactive(state, temps, system, PROBLEM),
        tec_reactive_loop(state, temps, system, PROBLEM),
    )
    np.testing.assert_array_equal(
        _dvfs_reactive(state, temps, system, PROBLEM),
        dvfs_reactive_loop(state, temps, system, PROBLEM),
    )


def _wide_device(system) -> int:
    counts = np.bincount(system.tec.coo_device)
    return int(np.flatnonzero(counts == 5)[0])


def test_hysteresis_band_holds_each_state(system):
    n = system.nodes.n_components
    rng = np.random.default_rng(0)
    tec = (rng.random(system.n_tec_devices) < 0.5).astype(float)
    temps = np.full(n, TH - TEC_OFF_HYSTERESIS_C / 2)
    state = _state(system, tec=tec)
    _assert_rules_match(system, state, temps)
    np.testing.assert_array_equal(
        _tec_reactive(state, temps, system, PROBLEM), tec
    )


def test_nan_reading_holds_the_device_and_core(system):
    n = system.nodes.n_components
    dev = _wide_device(system)
    comps = system.tec.placements[dev].component_idx
    for start_on in (0.0, 1.0):
        tec = np.full(system.n_tec_devices, start_on)
        temps = np.full(n, TH - TEC_OFF_HYSTERESIS_C - 5.0)
        temps[comps[0]] = np.nan
        state = _state(system, tec=tec, dvfs=np.full(system.n_cores, 2))
        _assert_rules_match(system, state, temps)
        out = _tec_reactive(state, temps, system, PROBLEM)
        assert out[dev] == start_on
        core = int(system.tec.device_tile[dev])
        assert _dvfs_reactive(state, temps, system, PROBLEM)[core] == 2


def test_device_over_five_components(system):
    n = system.nodes.n_components
    dev = _wide_device(system)
    comps = system.tec.placements[dev].component_idx
    assert len(comps) == 5
    cool = TH - TEC_OFF_HYSTERESIS_C - 1.0
    # One violating component of the five switches the device on...
    for hot in comps:
        temps = np.full(n, cool)
        temps[hot] = TH + 0.5
        _assert_rules_match(system, _state(system), temps)
        assert _tec_reactive(_state(system), temps, system, PROBLEM)[dev] == 1.0
    # ...and one of the five inside the band keeps it on.
    on = _state(system, tec=np.ones(system.n_tec_devices))
    for warm in comps:
        temps = np.full(n, cool)
        temps[warm] = TH - 1.0
        _assert_rules_match(system, on, temps)
        assert _tec_reactive(on, temps, system, PROBLEM)[dev] == 1.0


def test_all_devices_already_on(system):
    n = system.nodes.n_components
    on = _state(system, tec=np.ones(system.n_tec_devices))
    for value in (TH + 1.0, TH - 1.0, TH - TEC_OFF_HYSTERESIS_C - 1.0):
        _assert_rules_match(system, on, np.full(n, value))
    assert _tec_reactive(on, np.full(n, TH + 1.0), system, PROBLEM).all()
    assert not _tec_reactive(
        on, np.full(n, TH - TEC_OFF_HYSTERESIS_C - 1.0), system, PROBLEM
    ).any()


def test_dvfs_rule_clamps_at_both_ends(system):
    n = system.nodes.n_components
    top = system.dvfs.max_level
    state = _state(system, dvfs=np.array([0, top, 0, top]))
    for value in (TH + 1.0, TH - DVFS_RAISE_HYSTERESIS_C - 1.0):
        _assert_rules_match(system, state, np.full(n, value))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    nan_share=st.sampled_from([0.0, 0.05]),
)
def test_random_readings_match_the_loops(system, seed, nan_share):
    rng = np.random.default_rng(seed)
    n = system.nodes.n_components
    # Readings straddle both trip points so every branch is taken.
    temps = TH + rng.uniform(-2 * TEC_OFF_HYSTERESIS_C - 4.0, 3.0, n)
    temps[rng.random(n) < nan_share] = np.nan
    state = _state(
        system,
        tec=(rng.random(system.n_tec_devices) < 0.5).astype(float),
        dvfs=rng.integers(0, system.dvfs.max_level + 1, system.n_cores),
    )
    _assert_rules_match(system, state, temps)
