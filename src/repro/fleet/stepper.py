"""Fleet plant steppers: per-node loop vs batched class-grouped kernel.

Advancing a fleet one control interval means, for every node: dynamic
power from (activity, DVFS), the temperature-leakage fixed point at the
node's actuators, one transient relaxation step, and the TEC electrical
power at the new temperatures. The two steppers here compute exactly
that — :class:`SequentialStepper` as N independent per-node calls (the
baseline an engine-per-node design would pay), :class:`BatchedStepper`
as a handful of NumPy-batched operations.

The batched kernel exploits the same structure as the PR 2/PR 5 solver
work: nodes sharing an actuator setting ``(fan_level, tec)`` share a
conductance matrix, so their steady states are one multi-RHS
:meth:`~repro.thermal.steady_state.SteadyStateSolver.solve_many` call
against a single cached LU, and their relaxation factors are one cached
:meth:`~repro.thermal.transient.PaperTransient.betas` lookup broadcast
over the rows. Nodes are grouped by
:func:`repro.thermal.keys.exact_actuator_key` — exact, not quantized,
because the fleet policy emits binary TEC activations, so within-class
vectors are *equal* and the shared-actuator precondition of
``solve_many`` holds bit-for-bit.

Equivalence contract (test-enforced to <= 1e-9 K, in practice exact):
every row the batched stepper produces is bit-identical to the
sequential stepper's output for that node. The batched leakage fixed
point reproduces :meth:`repro.thermal.leakage_loop.LeakageCoupledSolver.
solve` row by row — converged rows are frozen (masked out) while the
rest keep iterating, so each node sees exactly the iteration sequence
it would have seen alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.system import CMPSystem
from repro.exceptions import ConvergenceError
from repro.obs import telemetry as obs
from repro.thermal.keys import exact_actuator_key


@dataclass
class StepResult:
    """Per-node plant outputs of one fleet interval."""

    t_nodes_k: np.ndarray  # (n_nodes, n_thermal_nodes)
    p_dyn_w: np.ndarray  # (n_nodes, n_components)
    p_leak_w: np.ndarray  # (n_nodes, n_components)
    p_tec_w: np.ndarray  # (n_nodes,)
    t_steady_k: np.ndarray  # (n_nodes, n_thermal_nodes)


class SequentialStepper:
    """Reference per-node loop: one engine-style solve chain per node."""

    name = "sequential"

    def __init__(self, system: CMPSystem):
        self.system = system

    def advance(
        self,
        activity: np.ndarray,
        dvfs_levels: np.ndarray,
        fan_levels: np.ndarray,
        tec: np.ndarray,
        t_nodes_k: np.ndarray,
        dt_s: float,
    ) -> StepResult:
        sys = self.system
        comp = sys.nodes.component_slice
        n = t_nodes_k.shape[0]
        t_new = np.empty_like(t_nodes_k)
        t_steady = np.empty_like(t_nodes_k)
        p_dyn = np.empty((n, sys.nodes.n_components))
        p_leak = np.empty((n, sys.nodes.n_components))
        p_tec = np.empty(n)
        for i in range(n):
            fan = int(fan_levels[i])
            p_dyn[i] = sys.power.component_power.dynamic_power_w(
                activity[i], dvfs_levels[i]
            )
            t_steady[i], p_leak[i] = sys.plant_thermal.solve(
                p_dyn[i], fan, tec[i], t_guess_k=t_nodes_k[i][comp]
            )
            t_new[i] = sys.transient.step(
                t_nodes_k[i], t_steady[i], dt_s, fan, tec[i]
            )
            p_tec[i] = sys.tec_power_w(tec[i], t_new[i])
        return StepResult(t_new, p_dyn, p_leak, p_tec, t_steady)


class BatchedStepper:
    """Class-grouped batched kernel: one solve_many per actuation class."""

    name = "batched"

    def __init__(self, system: CMPSystem):
        self.system = system
        self.batched_steps = 0
        self.class_groups = 0

    def _solve_class(
        self,
        p_dyn: np.ndarray,
        fan: int,
        tec_row: np.ndarray,
        t_guess_comp: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Masked batched mirror of ``LeakageCoupledSolver.solve``.

        Rows converge independently: a converged row is frozen with the
        iteration's outputs while the remaining rows continue, so row
        ``b``'s (t_nodes, p_leak) match a solo solve of that node
        exactly — same leakage inputs, same RHS, same stopping pass.
        """
        plant = self.system.plant_thermal
        n_nodes_th = self.system.nodes.n_nodes
        b = p_dyn.shape[0]
        t_out = np.empty((b, n_nodes_th))
        p_leak_out = np.empty_like(p_dyn)
        t_comp = t_guess_comp.copy()
        prev_peak = np.full(b, np.inf)
        active = np.arange(b)
        for _ in range(1, plant.max_iterations + 1):
            p_leak = plant.leakage_fn(t_comp[active])
            t_nodes = plant.solver.solve_many(
                p_dyn[active] + p_leak, fan, tec_row
            )
            t_comp_a = t_nodes[:, self.system.nodes.component_slice]
            peak = t_comp_a.max(axis=1)
            step = np.abs(peak - prev_peak[active])
            done = step < plant.tolerance_k
            if np.any(done):
                idx = active[done]
                t_out[idx] = t_nodes[done]
                p_leak_out[idx] = p_leak[done]
            t_comp[active] = t_comp_a
            prev_peak[active] = peak
            active = active[~done]
            if active.size == 0:
                return t_out, p_leak_out
        raise ConvergenceError(
            "fleet temperature-leakage loop did not converge",
            iterations=plant.max_iterations,
            # The last pass's largest peak move among unconverged rows.
            residual=float(step[~done].max()),
        )

    def advance(
        self,
        activity: np.ndarray,
        dvfs_levels: np.ndarray,
        fan_levels: np.ndarray,
        tec: np.ndarray,
        t_nodes_k: np.ndarray,
        dt_s: float,
    ) -> StepResult:
        sys = self.system
        comp = sys.nodes.component_slice
        n = t_nodes_k.shape[0]
        p_dyn = sys.power.component_power.dynamic_power_many(
            activity, dvfs_levels
        )
        t_new = np.empty_like(t_nodes_k)
        t_steady = np.empty_like(t_nodes_k)
        p_leak = np.empty_like(p_dyn)
        p_tec = np.empty(n)

        groups: dict[tuple, list[int]] = {}
        for i in range(n):
            key = exact_actuator_key(int(fan_levels[i]), tec[i])
            groups.setdefault(key, []).append(i)

        for key, members in groups.items():
            idx = np.asarray(members, dtype=np.intp)
            fan = int(fan_levels[idx[0]])
            tec_row = tec[idx[0]]
            t_s, p_l = self._solve_class(
                p_dyn[idx], fan, tec_row, t_nodes_k[idx][:, comp]
            )
            beta = sys.transient.betas(dt_s, fan, tec_row)
            t_n = (1.0 - beta) * t_s + beta * t_nodes_k[idx]
            t_steady[idx] = t_s
            p_leak[idx] = p_l
            t_new[idx] = t_n
            p_tec[idx] = sys.tec_power_many(tec_row, t_n)

        self.batched_steps += 1
        self.class_groups += len(groups)
        obs.incr("fleet.batched_steps")
        obs.incr("fleet.class_groups", len(groups))
        return StepResult(t_new, p_dyn, p_leak, p_tec, t_steady)


def make_stepper(kind: str, system: CMPSystem):
    """Instantiate a stepper by CLI name (``batched`` / ``sequential``)."""
    if kind == "batched":
        return BatchedStepper(system)
    if kind == "sequential":
        return SequentialStepper(system)
    raise ValueError(f"unknown stepper kind {kind!r}")
