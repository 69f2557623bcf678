"""Controller-side dynamic power estimation (paper Eq. 7).

TECfan's on-line estimator never sees the plant's activity factors; it
scales the *previous interval's measured* dynamic power by the DVFS
ratio, exactly as Eq. (7) prescribes (the previous interval's power is
what CAMP-style runtime monitoring provides — Powell et al., HPCA'09):

    P_dyn(k) = P_dyn(k-1) * (F(k)/F(k-1)) * (Vdd(k)/Vdd(k-1))^2

:class:`DynamicPowerTracker` holds the per-component history and answers
"what would the power be if core n moved to level l?" queries without
mutating state, which is what the heuristic's what-if evaluation needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ControlError
from repro.power.dvfs import DVFSTable


@dataclass
class DynamicPowerTracker:
    """Eq. (7) relative dynamic-power estimator.

    Parameters
    ----------
    dvfs:
        Shared DVFS table.
    tile_of:
        Component -> tile index map (from the floorplan).
    """

    dvfs: DVFSTable
    tile_of: np.ndarray
    #: Per-component mask: True = the component is in its core's DVFS
    #: domain (mesh-domain components do not rescale with Eq. 7).
    core_domain: np.ndarray | None = None
    _p_prev: np.ndarray = field(default=None, repr=False)
    _levels_prev: np.ndarray = field(default=None, repr=False)

    def observe(self, p_dynamic_w: np.ndarray, dvfs_levels: np.ndarray) -> None:
        """Record the measured per-component power of the last interval."""
        self._p_prev = np.asarray(p_dynamic_w, dtype=float).copy()
        self._levels_prev = np.asarray(dvfs_levels, dtype=int).copy()

    @property
    def ready(self) -> bool:
        """True once at least one interval has been observed."""
        return self._p_prev is not None

    def predict(self, dvfs_levels: np.ndarray) -> np.ndarray:
        """Per-component dynamic power if cores ran at ``dvfs_levels`` [W]."""
        if not self.ready:
            raise ControlError("no previous interval observed yet")
        lv = np.asarray(dvfs_levels, dtype=int)
        ratio = self.dvfs.dynamic_ratio(self._levels_prev, lv)
        comp_ratio = ratio[self.tile_of]
        if self.core_domain is not None:
            comp_ratio = np.where(self.core_domain, comp_ratio, 1.0)
        return self._p_prev * comp_ratio

    def predict_many(self, dvfs_levels: np.ndarray) -> np.ndarray:
        """Per-component power for a ``(batch, n_cores)`` level matrix [W].

        Row ``b`` is bit-identical to ``predict(dvfs_levels[b])`` — the
        ratio table lookup broadcasts over the leading axis and every
        per-element operation is unchanged.
        """
        ratio = self._batch_ratio(dvfs_levels, "predict_many")
        comp_ratio = ratio[:, self.tile_of]
        if self.core_domain is not None:
            comp_ratio = np.where(self.core_domain[None, :], comp_ratio, 1.0)
        return self._p_prev[None, :] * comp_ratio

    def linear_split(
        self, dvfs_levels: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Eq. (7) as a linear map of the per-core ratios.

        Returns ``(ratio, basis, fixed)`` with ``ratio`` the
        ``(batch, n_cores)`` Eq. (7) ratios, ``basis`` the
        ``(n_cores, n_components)`` previous power of each core's
        core-domain components and ``fixed`` the mesh-domain power that
        does not rescale, so that ``fixed + ratio @ basis`` equals
        :meth:`predict_many` bit for bit (each ``basis`` column has at
        most one non-zero).
        """
        ratio = self._batch_ratio(dvfs_levels, "linear_split")
        scaled = (
            np.ones(self._p_prev.size, dtype=bool)
            if self.core_domain is None
            else self.core_domain
        )
        cols = np.flatnonzero(scaled)
        basis = np.zeros((ratio.shape[1], self._p_prev.size))
        basis[self.tile_of[cols], cols] = self._p_prev[cols]
        return ratio, basis, np.where(scaled, 0.0, self._p_prev)

    def _batch_ratio(self, dvfs_levels: np.ndarray, caller: str) -> np.ndarray:
        """Per-core Eq. (7) ratios for a ``(batch, n_cores)`` level matrix."""
        if not self.ready:
            raise ControlError("no previous interval observed yet")
        lv = np.asarray(dvfs_levels, dtype=int)
        if lv.ndim != 2:
            raise ControlError(
                f"{caller} expects a (batch, n_cores) level matrix, "
                f"got shape {lv.shape}"
            )
        return self.dvfs.dynamic_ratio(self._levels_prev[None, :], lv)

    def predict_single_change(self, core: int, new_level: int) -> np.ndarray:
        """Power if only ``core`` changes to ``new_level`` [W]."""
        if not self.ready:
            raise ControlError("no previous interval observed yet")
        lv = self._levels_prev.copy()
        lv[core] = new_level
        return self.predict(lv)
