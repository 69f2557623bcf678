"""Eq. (7) relative dynamic-power tracking."""

import numpy as np
import pytest

from repro.exceptions import ControlError
from repro.power.component_power import core_dvfs_domain_mask
from repro.power.dvfs import SCC_DVFS
from repro.power.dynamic import DynamicPowerTracker


@pytest.fixture()
def tracker(chip2):
    return DynamicPowerTracker(
        dvfs=SCC_DVFS,
        tile_of=chip2.tile_of(),
        core_domain=core_dvfs_domain_mask(chip2),
    )


def test_predict_before_observe_raises(tracker):
    with pytest.raises(ControlError):
        tracker.predict(np.array([5, 5]))


def test_identity_prediction(tracker, chip2):
    p = np.random.default_rng(0).random(chip2.n_components)
    lv = np.full(chip2.n_tiles, 5)
    tracker.observe(p, lv)
    np.testing.assert_allclose(tracker.predict(lv), p)


def test_eq7_scaling(tracker, chip2):
    p = np.ones(chip2.n_components)
    tracker.observe(p, np.full(chip2.n_tiles, 5))
    pred = tracker.predict(np.array([5, 0]))
    mask = core_dvfs_domain_mask(chip2)
    tile_of = chip2.tile_of()
    ratio = SCC_DVFS.dynamic_ratio(5, 0)
    # Core-domain components of tile 1 scale by Eq. (7)...
    scaled = mask & (tile_of == 1)
    np.testing.assert_allclose(pred[scaled], ratio)
    # ...mesh-domain components and tile 0 stay put.
    np.testing.assert_allclose(pred[~scaled], 1.0)


def test_single_change_helper(tracker, chip2):
    p = np.ones(chip2.n_components)
    tracker.observe(p, np.full(chip2.n_tiles, 5))
    a = tracker.predict_single_change(0, 3)
    lv = np.array([3, 5])
    b = tracker.predict(lv)
    np.testing.assert_allclose(a, b)


def test_observation_is_copied(tracker, chip2):
    p = np.ones(chip2.n_components)
    lv = np.full(chip2.n_tiles, 5)
    tracker.observe(p, lv)
    p[:] = 99.0  # mutate the caller's array
    np.testing.assert_allclose(tracker.predict(lv), 1.0)


def test_linear_split_reproduces_predict_many_exactly(tracker, chip2):
    rng = np.random.default_rng(3)
    tracker.observe(rng.random(chip2.n_components), np.array([4, 2]))
    levels = np.array([[0, 0], [5, 1], [3, 5], [4, 2]])
    ratio, basis, fixed = tracker.linear_split(levels)
    assert ratio.shape == (4, chip2.n_tiles)
    assert basis.shape == (chip2.n_tiles, chip2.n_components)
    assert np.all((basis != 0).sum(axis=0) <= 1)
    np.testing.assert_array_equal(
        fixed + ratio @ basis, tracker.predict_many(levels)
    )


def test_linear_split_rejects_a_vector(tracker, chip2):
    tracker.observe(np.ones(chip2.n_components), np.full(chip2.n_tiles, 5))
    with pytest.raises(ControlError, match="linear_split"):
        tracker.linear_split(np.array([5, 5]))
