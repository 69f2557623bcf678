"""Extension features: chip-level DVFS, TEC drive modes.

Both come straight from the paper's margins: Sec. III-E notes TECfan
"can be integrated with chip-level DVFS seamlessly", and Sec. III
declines per-device current control because of its regulator cost —
implemented here so the trade-offs can be measured.
"""

import numpy as np
import pytest

from repro.cooling.tec import build_tec_array
from repro.core.estimator import NextIntervalEstimator
from repro.core.problem import EnergyProblem
from repro.core.state import ActuatorState
from repro.core.system import build_system
from repro.core.tecfan import TECfanController
from repro.exceptions import ConfigurationError
from repro.perf.ips import IPSTracker


# ---------------------------------------------------------------------------
# Chip-level DVFS
# ---------------------------------------------------------------------------


def test_chip_level_candidates_move_together(system2):
    ctrl = TECfanController(chip_level_dvfs=True)
    state = ActuatorState.initial(
        system2.n_tec_devices, system2.n_cores, system2.dvfs.max_level, 1
    )
    lowered = ctrl._dvfs_candidates(state, system2, -1)
    assert lowered.shape == (1, system2.n_cores)
    assert np.all(lowered[0] == system2.dvfs.max_level - 1)
    # At the top, no raise candidate exists.
    assert ctrl._dvfs_candidates(state, system2, +1) is None


def test_chip_level_clips_mixed_levels(system2):
    ctrl = TECfanController(chip_level_dvfs=True)
    state = ActuatorState.initial(
        system2.n_tec_devices, system2.n_cores, system2.dvfs.max_level, 1
    ).with_dvfs_vector(np.array([0, 3]))
    lowered = ctrl._dvfs_candidates(state, system2, -1)
    assert lowered.shape == (1, system2.n_cores)
    np.testing.assert_array_equal(lowered[0], [0, 2])


def test_per_core_candidates_are_per_core(system2):
    ctrl = TECfanController()
    state = ActuatorState.initial(
        system2.n_tec_devices, system2.n_cores, system2.dvfs.max_level, 1
    )
    lowered = ctrl._dvfs_candidates(state, system2, -1)
    assert len(lowered) == system2.n_cores
    # Row k lowers core k only.
    np.testing.assert_array_equal(
        lowered,
        system2.dvfs.max_level - np.eye(system2.n_cores, dtype=int),
    )


def test_chip_level_controller_decides(system2):
    """End-to-end decide() under chip-level mode throttles all cores in
    lock step under thermal pressure."""
    ctrl = TECfanController(chip_level_dvfs=True, estimator_kind="full")
    state = ActuatorState.initial(
        system2.n_tec_devices, system2.n_cores, system2.dvfs.max_level, 1
    )
    est = NextIntervalEstimator(
        system=system2, ips_predictor=IPSTracker(system2.dvfs)
    )
    n = system2.nodes.n_components
    est.begin_interval(
        np.full(n, 80.0), np.full(n, 0.6),
        np.full(system2.n_cores, 1e9), state, 2e-3,
    )
    e0 = est.evaluate(state)
    problem = EnergyProblem(t_threshold_c=e0.peak_temp_c - 15.0)
    out = ctrl.decide(state, np.full(n, 80.0), est, problem)
    assert len(set(out.dvfs.tolist())) == 1  # lock-stepped


# ---------------------------------------------------------------------------
# TEC drive modes
# ---------------------------------------------------------------------------


def test_joule_scale_modes(chip2):
    switched = build_tec_array(chip2, drive_mode="switched")
    current = build_tec_array(chip2, drive_mode="current")
    s = np.array([0.0, 0.5, 1.0])
    np.testing.assert_allclose(switched.joule_scale(s), [0.0, 0.5, 1.0])
    np.testing.assert_allclose(current.joule_scale(s), [0.0, 0.25, 1.0])


def test_unknown_drive_mode_rejected(chip2):
    with pytest.raises(ConfigurationError):
        build_tec_array(chip2, drive_mode="quantum")


def test_full_drive_identical_between_modes():
    """At s = 1 the two electronics are indistinguishable."""
    a = build_system(rows=1, cols=2, tec_drive_mode="switched")
    b = build_system(rows=1, cols=2, tec_drive_mode="current")
    p = np.full(a.nodes.n_components, 0.3)
    tec = np.ones(a.n_tec_devices)
    ta = a.solver.solve(p, 2, tec)
    tb = b.solver.solve(p, 2, tec)
    np.testing.assert_allclose(ta, tb)
    assert a.tec_power_w(tec, ta) == pytest.approx(b.tec_power_w(tec, tb))


def test_partial_drive_current_mode_cheaper():
    a = build_system(rows=1, cols=2, tec_drive_mode="switched")
    b = build_system(rows=1, cols=2, tec_drive_mode="current")
    p = np.full(a.nodes.n_components, 0.3)
    half = np.full(a.n_tec_devices, 0.5)
    ta = a.solver.solve(p, 2, half)
    tb = b.solver.solve(p, 2, half)
    # Less Joule self-heating -> no hotter anywhere on the die.
    comp = a.nodes.component_slice
    assert tb[comp].max() <= ta[comp].max() + 1e-9
    assert b.tec_power_w(half, tb) < a.tec_power_w(half, ta)


def test_energy_balance_holds_in_current_mode():
    b = build_system(rows=1, cols=2, tec_drive_mode="current")
    nd = b.nodes
    p = np.full(nd.n_components, 0.2)
    half = np.full(b.n_tec_devices, 0.5)
    t = b.solver.solve(p, 2, half)
    g_conv = b.fan.convection_conductance_w_per_k(2)
    out = float(
        ((g_conv / nd.n_tiles) * (t[nd.sink_slice] - b.package.ambient_k)).sum()
    )
    assert out == pytest.approx(
        float(p.sum()) + b.tec_power_w(half, t), rel=1e-6
    )
