"""Golden TECfan decision log on one Figs. 5-6 case.

``tests/data/tecfan_splash_decisions.json`` holds every TECfan
``decide`` of short cholesky/16 runs on the 16-core chip as ``(call
index, DVFS levels, indices of the TECs that are on)``, for the banded
hardware estimator, the full-model estimator and chip-level DVFS, at
two fan levels. It also stores the ``result_digest`` of each of those
runs and of the reactive Fan+TEC and DVFS+TEC baselines on the same
case. Any change to candidate generation, the estimators' arithmetic
or the reactive rules — vectorisation, reassociated sums, a different
tie order — must reproduce both exactly.

The log was captured with the per-candidate estimator and the looped
reactive rules. To regenerate it after a deliberate decision change,
run ``PYTHONPATH=src python tests/test_tecfan_golden.py`` and record the
reason in CHANGES.md.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from repro.analysis.experiments import DT_LOWER_S, run_base_scenario
from repro.checkpoint import result_digest
from repro.core.baselines import DVFSTECController, FanTECController
from repro.core.engine import EngineConfig, SimulationEngine
from repro.core.problem import EnergyProblem
from repro.core.state import ActuatorState
from repro.core.system import build_system
from repro.core.tecfan import TECfanController
from repro.perf.splash2 import FIGURE_CASES, REF_FREQ_GHZ, splash2_workload
from repro.perf.workload import WorkloadRun

GOLDEN = pathlib.Path(__file__).parent / "data" / "tecfan_splash_decisions.json"
CASE = FIGURE_CASES[0]
MAX_TIME_S = 0.03
FAN_LEVELS = (2, 4)


def _policies() -> dict:
    return {
        "TECfan/banded": lambda: TECfanController(),
        "TECfan/full": lambda: TECfanController(estimator_kind="full"),
        "TECfan/chip-dvfs": lambda: TECfanController(chip_level_dvfs=True),
        "Fan+TEC": FanTECController,
        "DVFS+TEC": DVFSTECController,
    }


def record_case() -> dict:
    """Run every policy on the case, logging each TECfan decision."""
    workload, threads = CASE
    system = build_system()
    base = run_base_scenario(system, workload, threads)
    problem = EnergyProblem(t_threshold_c=base.t_threshold_c)
    wl = splash2_workload(workload, threads, system.chip)
    decisions: dict = {}
    digests: dict = {}
    original = TECfanController.decide
    log: list = []

    def logged(self, state, sensor_temps_c, estimator, problem):
        out = original(self, state, sensor_temps_c, estimator, problem)
        log.append(
            [len(log), out.dvfs.tolist(), np.flatnonzero(out.tec > 0.5).tolist()]
        )
        return out

    TECfanController.decide = logged
    try:
        for fan in FAN_LEVELS:
            for name, make in _policies().items():
                log.clear()
                engine = SimulationEngine(
                    system,
                    problem,
                    EngineConfig(dt_lower_s=DT_LOWER_S, max_time_s=MAX_TIME_S),
                )
                state = ActuatorState.initial(
                    system.n_tec_devices,
                    system.n_cores,
                    system.dvfs.max_level,
                    fan_level=fan,
                )
                result = engine.run(
                    WorkloadRun(wl, system.chip, REF_FREQ_GHZ),
                    make(),
                    initial_state=state,
                )
                key = f"{name}@fan{fan}"
                digests[key] = result_digest(result)
                if log:
                    decisions[key] = [list(row) for row in log]
    finally:
        TECfanController.decide = original
    return {
        "case": list(CASE),
        "max_time_s": MAX_TIME_S,
        "t_threshold_c": base.t_threshold_c,
        "decisions": decisions,
        "digests": digests,
    }


@pytest.fixture(scope="module")
def replay() -> dict:
    return record_case()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_moves_both_knobs(golden):
    # Every logged run must move DVFS and the TECs, or the replay
    # proves little about either candidate path.
    for key, rows in golden["decisions"].items():
        assert len({tuple(r[1]) for r in rows}) > 1, key
        assert len({tuple(r[2]) for r in rows}) > 1, key


def test_decisions_match_golden_log(replay, golden):
    assert replay["t_threshold_c"] == golden["t_threshold_c"]
    assert replay["decisions"] == golden["decisions"]


def test_result_digests_match_golden(replay, golden):
    assert replay["digests"] == golden["digests"]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record_case(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
