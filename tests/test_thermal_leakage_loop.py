"""Temperature-leakage fixed point (the paper's HotSpot modification)."""

import copy
import dataclasses

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ConvergenceError
from repro.fleet.stepper import BatchedStepper
from repro.thermal.leakage_loop import LeakageCoupledSolver


def test_fixed_point_self_consistent(system2):
    nd = system2.nodes
    p_dyn = np.full(nd.n_components, 0.2)
    t, p_leak = system2.plant_thermal.solve(
        p_dyn, 1, np.zeros(system2.n_tec_devices)
    )
    # Re-evaluating leakage at the solution and re-solving must move the
    # peak by less than the loop tolerance.
    p2 = system2.power.plant_leakage.per_component_w(t[nd.component_slice])
    t2 = system2.solver.solve(p_dyn + p2, 1, np.zeros(system2.n_tec_devices))
    assert abs(
        t2[nd.component_slice].max() - t[nd.component_slice].max()
    ) < system2.plant_thermal.tolerance_k


def test_leakage_raises_temperature(system2):
    """Coupled solution must be hotter than the leakage-free one."""
    nd = system2.nodes
    p_dyn = np.full(nd.n_components, 0.2)
    tec = np.zeros(system2.n_tec_devices)
    t_coupled, p_leak = system2.plant_thermal.solve(p_dyn, 1, tec)
    t_plain = system2.solver.solve(p_dyn, 1, tec)
    assert np.all(p_leak > 0)
    assert t_coupled[nd.component_slice].max() > t_plain[
        nd.component_slice
    ].max()


def test_warm_start_converges_faster(system2):
    nd = system2.nodes
    p_dyn = np.full(nd.n_components, 0.25)
    tec = np.zeros(system2.n_tec_devices)
    t, _ = system2.plant_thermal.solve(p_dyn, 1, tec)

    cold = LeakageCoupledSolver(
        solver=system2.solver,
        leakage_fn=system2.power.plant_leakage.per_component_w,
    )
    n0 = system2.solver.n_solves
    cold.solve(p_dyn, 1, tec)
    cold_solves = system2.solver.n_solves - n0

    n0 = system2.solver.n_solves
    cold.solve(p_dyn, 1, tec, t_guess_k=t[nd.component_slice])
    warm_solves = system2.solver.n_solves - n0
    assert warm_solves <= cold_solves


def test_divergent_leakage_raises(system2):
    """A pathological leakage model (slope beating the thermal path)
    must raise ConvergenceError rather than hang or return garbage."""
    def runaway(t_k):
        return np.full(system2.nodes.n_components, 1.0) * (
            1.0 + 50.0 * np.maximum(t_k - 300.0, 0.0)
        )

    bad = LeakageCoupledSolver(
        solver=system2.solver, leakage_fn=runaway, max_iterations=5
    )
    with pytest.raises(ConvergenceError) as info:
        bad.solve(
            np.full(system2.nodes.n_components, 0.2),
            1,
            np.zeros(system2.n_tec_devices),
        )
    assert info.value.iterations == 5
    assert info.value.residual >= bad.tolerance_k


def _cold_peaks(system, p_dyn, tec, passes):
    """Peak component temperature after each pass of a cold-started loop."""
    nd = system.nodes
    leak = system.power.plant_leakage.per_component_w
    t_comp = np.full(nd.n_components, system.solver.model.package.ambient_k)
    peaks = []
    for _ in range(passes):
        t_nodes = system.solver.solve(p_dyn + leak(t_comp), 1, tec)
        t_comp = t_nodes[nd.component_slice]
        peaks.append(float(t_comp.max()))
    return peaks


def test_iteration_budget_must_allow_one_pass(system2):
    with pytest.raises(ConfigurationError):
        dataclasses.replace(system2.plant_thermal, max_iterations=0)


def test_nonconvergence_reports_last_peak_move(system2):
    """The residual is the last pass's peak move, not 0.0."""
    p_dyn = np.full(system2.nodes.n_components, 0.2)
    tec = np.zeros(system2.n_tec_devices)
    short = dataclasses.replace(system2.plant_thermal, max_iterations=2)
    with pytest.raises(ConvergenceError) as info:
        short.solve(p_dyn, 1, tec)
    peaks = _cold_peaks(system2, p_dyn, tec, 2)
    assert info.value.iterations == 2
    assert info.value.residual == abs(peaks[1] - peaks[0])
    assert info.value.residual >= short.tolerance_k


def test_batched_nonconvergence_reports_unconverged_rows(system2):
    """One of three rows converging on the final pass still raises
    ConvergenceError, with the largest move among the other two."""
    nd = system2.nodes
    comp = nd.component_slice
    tec = np.zeros(system2.n_tec_devices)
    p_dyn = np.stack([np.full(nd.n_components, p) for p in (0.2, 0.2, 0.3)])
    t_fixed, _ = system2.plant_thermal.solve(p_dyn[0], 1, tec)
    ambient = system2.solver.model.package.ambient_k
    # Row 0 starts at its fixed point and converges on pass 2; rows 1
    # and 2 start cold and need more passes.
    t_guess = np.stack([
        t_fixed[comp],
        np.full(nd.n_components, ambient),
        np.full(nd.n_components, ambient),
    ])
    short = copy.copy(system2)
    short.plant_thermal = dataclasses.replace(
        system2.plant_thermal, max_iterations=2
    )
    with pytest.raises(ConvergenceError) as info:
        BatchedStepper(short)._solve_class(p_dyn, 1, tec, t_guess)
    moves = [
        abs(b - a)
        for a, b in (_cold_peaks(system2, p_dyn[r], tec, 2) for r in (1, 2))
    ]
    assert info.value.iterations == 2
    assert info.value.residual == max(moves)
    assert moves[1] != moves[0]


def test_convergence_error_carries_diagnostics():
    err = ConvergenceError("no", iterations=7, residual=1.5)
    assert err.iterations == 7
    assert err.residual == 1.5
