"""Golden Fig. 7 decision log for the exhaustive searchers.

``tests/data/oracle_fig7_decisions.json`` holds every evaluated OFTEC,
Oracle and Oracle-P decision of ``run_server_comparison(seed=2009,
minutes=2)`` as ``(policy, call index, variant index, DVFS-space
index)``, plus the four policies' ``result_digest`` values. Any change
to the search — vectorisation, reassociated sums, a different tie
order — must reproduce both exactly.

The log was captured with the per-variant search loop (now the
reference implementation in ``test_oracle_equivalence.py``). To
regenerate it after a deliberate decision change, run
``PYTHONPATH=src python tests/test_oracle_golden.py`` and record the
reason in CHANGES.md.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from repro.analysis.server_experiment import run_server_comparison
from repro.checkpoint import result_digest
from repro.core.oracle import ExhaustiveSearcher

GOLDEN = pathlib.Path(__file__).parent / "data" / "oracle_fig7_decisions.json"
SEED = 2009
MINUTES = 2


def _indices(searcher: ExhaustiveSearcher, state) -> tuple[int, int]:
    """(variant, DVFS-space) indices of a state the searcher returned."""
    k = np.flatnonzero(
        (searcher._variant_fan == state.fan_level)
        & np.all(searcher._variant_tec == state.tec[None, :], axis=1)
    )
    d = np.flatnonzero(np.all(searcher._dvfs_space == state.dvfs[None, :], axis=1))
    assert len(k) == 1 and len(d) == 1
    return int(k[0]), int(d[0])


def record_fig7(seed: int = SEED, minutes: int = MINUTES) -> dict:
    """Run the Fig. 7 comparison, logging each evaluated search."""
    decisions: list[list] = []
    original = ExhaustiveSearcher.decide

    def logged(self, state, sensor_temps_c, estimator, problem):
        call = self._decision_index
        before = self.n_configurations
        out = original(self, state, sensor_temps_c, estimator, problem)
        if self.n_configurations != before:
            decisions.append([self.name, call, *_indices(self, out)])
        return out

    ExhaustiveSearcher.decide = logged
    try:
        comparison = run_server_comparison(seed=seed, minutes=minutes)
    finally:
        ExhaustiveSearcher.decide = original
    return {
        "seed": seed,
        "minutes": minutes,
        "decisions": decisions,
        "digests": {
            name: result_digest(res) for name, res in comparison.results.items()
        },
    }


@pytest.fixture(scope="module")
def replay() -> dict:
    return record_fig7()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_all_exhaustive_policies(golden):
    policies = {row[0] for row in golden["decisions"]}
    assert policies == {"OFTEC", "Oracle", "Oracle-P"}


def test_decisions_match_golden_log(replay, golden):
    assert replay["decisions"] == golden["decisions"]


def test_result_digests_match_golden(replay, golden):
    assert replay["digests"] == golden["digests"]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record_fig7(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
