"""Run-time guards: thermal watchdog, actuator health, sensor validation.

These are the *defensive* half of the robustness subsystem — the fault
models of :mod:`repro.faults.models` break things; the guards here keep
a hardened control loop inside its thermal envelope anyway:

* :class:`ThermalWatchdog` — a bang-bang safety net independent of the
  controller's own reasoning: K consecutive sensed intervals above
  ``T_th + margin`` trip the system into its safe state (lowest DVFS,
  every TEC on, fastest fan); hysteretic recovery releases control only
  after the die has been convincingly cool for a hold-down period.
* :class:`ActuatorHealthMonitor` — compares commanded vs effective
  actuation (the engine observes both, as real platforms do through
  tach feedback and current sense) and, after a divergence persists,
  masks the actuator so the heuristic stops wasting moves on dead
  knobs. Masks are sticky for the run: dead actuators do not resurrect.
* :class:`SensorValidator` — model-based plausibility filtering with a
  trust-hot-doubt-cold asymmetry: a reading *implausibly cooler* than
  the estimator's own one-interval-old prediction is replaced by the
  prediction immediately (and masked for good once the disagreement
  persists), so a lying-cold sensor cannot walk the controller into a
  runaway; readings hotter than the model always pass through, because
  suppressing them could blind the watchdog during genuine heating.

All state machines are engine-owned and per-run; every transition emits
an ``obs`` counter (``watchdog.trips``, ``health.masked_actuators``,
``health.masked_sensors``) so degradation is observable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import ConfigurationError
from repro.obs import telemetry as obs

if TYPE_CHECKING:
    from repro.core.state import ActuatorState


# ----------------------------------------------------------------------
# Thermal watchdog
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WatchdogConfig:
    """Trip/recovery policy of the thermal watchdog.

    Parameters
    ----------
    margin_c:
        Trip margin above the problem's ``t_threshold_c`` [degC].
    trip_intervals:
        Consecutive over-margin intervals required to trip (debounce).
    recover_margin_c:
        Hysteresis below the threshold required for recovery [degC].
    recover_intervals:
        Consecutive cool intervals before control is handed back; the
        hold-down that prevents trip/recover chatter.
    """

    margin_c: float = 1.0
    trip_intervals: int = 2
    recover_margin_c: float = 2.0
    recover_intervals: int = 100

    def __post_init__(self) -> None:
        if self.margin_c < 0.0 or self.recover_margin_c < 0.0:
            raise ConfigurationError("watchdog margins must be >= 0")
        if self.trip_intervals < 1 or self.recover_intervals < 1:
            raise ConfigurationError(
                "watchdog interval counts must be >= 1"
            )


class ThermalWatchdog:
    """Consecutive-interval over-temperature trip with hysteresis."""

    def __init__(self, config: WatchdogConfig, t_threshold_c: float):
        self.config = config
        self.t_threshold_c = t_threshold_c
        self.tripped = False
        self.trips = 0
        self._hot = 0
        self._cool = 0

    def feed(self, max_reading_c: float) -> bool:
        """Advance one interval on the sensed peak; returns tripped."""
        cfg = self.config
        if not self.tripped:
            if max_reading_c > self.t_threshold_c + cfg.margin_c:
                self._hot += 1
                if self._hot >= cfg.trip_intervals:
                    self.tripped = True
                    self.trips += 1
                    self._cool = 0
                    obs.incr("watchdog.trips")
            else:
                self._hot = 0
        else:
            obs.incr("watchdog.active_intervals")
            if max_reading_c < self.t_threshold_c - cfg.recover_margin_c:
                self._cool += 1
                if self._cool >= cfg.recover_intervals:
                    self.tripped = False
                    self._hot = 0
            else:
                self._cool = 0
        return self.tripped


def safe_state(n_tec_devices: int, n_cores: int) -> ActuatorState:
    """The watchdog's refuge: max cooling, min heat generation.

    Every TEC on (local pumping costs no performance), every core at
    the lowest DVFS level, fan at level 1 (fastest).
    """
    # Imported here: repro.core's package import loads the engine,
    # which imports this module, so a module-level import would make
    # ``import repro.faults`` circular.
    from repro.core.state import ActuatorState

    return ActuatorState(
        tec=np.ones(n_tec_devices),
        dvfs=np.zeros(n_cores, dtype=int),
        fan_level=1,
    )


# ----------------------------------------------------------------------
# Actuator health
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class HealthConfig:
    """Detection thresholds of the health monitor.

    Parameters
    ----------
    divergence_intervals:
        Consecutive commanded-vs-effective mismatches before an
        actuator is masked (debounces engagement transients).
    fan_divergence_intervals:
        Same, for the fan alone. Tach feedback is an exact integer
        level with no engagement transient in the model, so a single
        mismatched interval already proves the fault — and masking fast
        matters most here: until the estimator is reconciled to the
        real fan level it keeps promising cooling that never comes.
    tec_tolerance:
        Activation mismatch above which a TEC interval counts as
        divergent (0.25 absorbs PWM/duty-cycle slack).
    sensor_tolerance_c:
        How far *below* the model prediction a reading must fall to
        count as implausible [degC]; must exceed sensor noise plus the
        estimator's own one-interval model error (the banded estimator
        reaches ~8.9 degC on the 16-core platform across workload
        phase transitions, hence the 10 degC default). Readings above
        the prediction are never implausible — hiding heat is the
        dangerous failure, claiming it is merely wasteful.
    sensor_intervals:
        Consecutive implausible intervals before a sensor is masked.
    sensor_global_frac:
        When more than this fraction of sensors is implausible in the
        *same* interval, the divergence is global — a wrong model or a
        broken actuator, not a sensor fault (sensor faults are local) —
        and no masking streak advances that interval. Without this
        guard a stuck fan makes the whole die diverge from the model
        and the validator would blind the watchdog by masking every
        honest hot sensor.
    """

    divergence_intervals: int = 3
    fan_divergence_intervals: int = 1
    tec_tolerance: float = 0.25
    sensor_tolerance_c: float = 10.0
    sensor_intervals: int = 3
    sensor_global_frac: float = 0.25

    def __post_init__(self) -> None:
        if (
            self.divergence_intervals < 1
            or self.fan_divergence_intervals < 1
            or self.sensor_intervals < 1
        ):
            raise ConfigurationError("health interval counts must be >= 1")
        if not 0.0 < self.tec_tolerance < 1.0:
            raise ConfigurationError("tec_tolerance must be in (0, 1)")
        if self.sensor_tolerance_c <= 0.0:
            raise ConfigurationError("sensor tolerance must be > 0")
        if not 0.0 < self.sensor_global_frac <= 1.0:
            raise ConfigurationError(
                "sensor_global_frac must be in (0, 1]"
            )


@dataclass(frozen=True)
class ActuatorHealth:
    """Immutable health view handed to controllers each interval."""

    tec_ok: np.ndarray
    dvfs_ok: np.ndarray
    fan_ok: bool

    @property
    def all_ok(self) -> bool:
        """No actuator currently masked?"""
        return bool(self.fan_ok and self.tec_ok.all() and self.dvfs_ok.all())


class ActuatorHealthMonitor:
    """Detects dead actuators from commanded-vs-effective divergence."""

    def __init__(self, config: HealthConfig, n_devices: int, n_cores: int):
        self.config = config
        self._tec_bad = np.zeros(n_devices, dtype=bool)
        self._dvfs_bad = np.zeros(n_cores, dtype=bool)
        self._fan_bad = False
        self._tec_streak = np.zeros(n_devices, dtype=int)
        self._dvfs_streak = np.zeros(n_cores, dtype=int)
        self._fan_streak = 0
        # Last observed effective values, for reconciliation.
        self._tec_eff = np.zeros(n_devices)
        self._dvfs_eff = np.zeros(n_cores, dtype=int)
        self._fan_eff = 1
        self._view: ActuatorHealth | None = None

    # ------------------------------------------------------------------
    def observe(
        self,
        *,
        tec_cmd: np.ndarray,
        tec_eff: np.ndarray,
        dvfs_cmd: np.ndarray,
        dvfs_eff: np.ndarray,
        fan_cmd: int,
        fan_eff: int,
    ) -> None:
        """Feed one interval's commanded and effective actuation."""
        k = self.config.divergence_intervals
        self._tec_eff = np.asarray(tec_eff, dtype=float)
        self._dvfs_eff = np.asarray(dvfs_eff, dtype=int)
        self._fan_eff = int(fan_eff)

        div = (
            np.abs(np.asarray(tec_cmd) - self._tec_eff)
            > self.config.tec_tolerance
        )
        self._tec_streak = np.where(div, self._tec_streak + 1, 0)
        newly = (self._tec_streak >= k) & ~self._tec_bad
        if newly.any():
            self._tec_bad |= newly
            obs.incr("health.masked_actuators", int(newly.sum()))
            self._view = None

        div = np.asarray(dvfs_cmd) != self._dvfs_eff
        self._dvfs_streak = np.where(div, self._dvfs_streak + 1, 0)
        newly = (self._dvfs_streak >= k) & ~self._dvfs_bad
        if newly.any():
            self._dvfs_bad |= newly
            obs.incr("health.masked_actuators", int(newly.sum()))
            self._view = None

        if int(fan_cmd) != self._fan_eff:
            self._fan_streak += 1
            if (
                self._fan_streak >= self.config.fan_divergence_intervals
                and not self._fan_bad
            ):
                self._fan_bad = True
                obs.incr("health.masked_actuators")
                self._view = None
        else:
            self._fan_streak = 0

    # ------------------------------------------------------------------
    @property
    def n_masked(self) -> int:
        """Actuators currently masked (TEC devices + cores + fan)."""
        return (
            int(self._tec_bad.sum())
            + int(self._dvfs_bad.sum())
            + int(self._fan_bad)
        )

    def health(self) -> ActuatorHealth:
        """Current (cached) immutable health view."""
        if self._view is None:
            tec_ok = ~self._tec_bad
            dvfs_ok = ~self._dvfs_bad
            tec_ok.setflags(write=False)
            dvfs_ok.setflags(write=False)
            self._view = ActuatorHealth(
                tec_ok=tec_ok, dvfs_ok=dvfs_ok, fan_ok=not self._fan_bad
            )
        return self._view

    def reconcile(self, state: ActuatorState) -> ActuatorState:
        """Overwrite masked knobs with their observed effective values.

        This is the read-back step real firmware performs: once an
        actuator is known dead, the commanded state is reconciled to
        reality so the controller's estimator predicts with the truth
        instead of the wish.
        """
        if self.n_masked == 0:
            return state
        out = state
        if self._tec_bad.any() and not np.array_equal(
            out.tec[self._tec_bad], self._tec_eff[self._tec_bad]
        ):
            tec = out.tec.copy()
            tec[self._tec_bad] = self._tec_eff[self._tec_bad]
            out = out.with_tec_vector(tec)
        if self._dvfs_bad.any() and not np.array_equal(
            out.dvfs[self._dvfs_bad], self._dvfs_eff[self._dvfs_bad]
        ):
            dvfs = out.dvfs.copy()
            dvfs[self._dvfs_bad] = self._dvfs_eff[self._dvfs_bad]
            out = out.with_dvfs_vector(dvfs)
        if self._fan_bad and out.fan_level != self._fan_eff:
            out = out.with_fan(self._fan_eff)
        return out


# ----------------------------------------------------------------------
# Sensor validation
# ----------------------------------------------------------------------
class SensorValidator:
    """Model-based plausibility filter over the sensor bank.

    Each interval the engine hands in the raw (possibly faulty)
    readings and the estimator's own prediction of the same
    temperatures from the previous interval's committed candidate.
    Validation is asymmetric — *trust hot, doubt cold*:

    * A reading more than ``sensor_tolerance_c`` **below** the
      prediction is implausible. It is substituted by the prediction
      right away (provisionally), so neither the watchdog nor the
      estimator ever ingests it — a lying-cold sensor must not become
      its own alibi by dragging the model down to its value. After
      ``sensor_intervals`` consecutive implausible intervals the sensor
      is masked for good (sticky for the run).
    * A reading **above** the prediction always passes through: a
      sensor claiming heat may cost energy if it is wrong, but
      suppressing it could hide a real runaway. Hot-lying faults
      (stuck-hot, positive drift) therefore degrade efficiency, never
      safety — the direction a thermal guard must fail in.
    """

    def __init__(self, config: HealthConfig):
        self.config = config
        self._streak: np.ndarray | None = None
        self._bad: np.ndarray | None = None

    @property
    def n_masked(self) -> int:
        """Sensors currently masked."""
        return 0 if self._bad is None else int(self._bad.sum())

    def filter(
        self, readings_c: np.ndarray, predicted_c: np.ndarray | None
    ) -> np.ndarray:
        """Validated readings; masked entries come from the model."""
        if predicted_c is None:
            return readings_c  # no model yet (first interval)
        if self._streak is None:
            self._streak = np.zeros(readings_c.shape, dtype=int)
            self._bad = np.zeros(readings_c.shape, dtype=bool)
        # Positive = implausibly cool; hot readings are never doubted.
        residual = predicted_c - readings_c
        implausible = residual > self.config.sensor_tolerance_c
        globally_divergent = (
            float(implausible.mean()) > self.config.sensor_global_frac
        )
        if globally_divergent:
            # Global divergence: the model is wrong (broken actuator,
            # load step), not the sensors — sensor faults are local.
            # Hold the streaks and pass raw readings through until the
            # model re-converges; substituting model output here would
            # blind the watchdog with the very model that is wrong.
            implausible = np.zeros_like(implausible)
        else:
            self._streak = np.where(implausible, self._streak + 1, 0)
        newly = (self._streak >= self.config.sensor_intervals) & ~self._bad
        if newly.any():
            self._bad |= newly
            obs.incr("health.masked_sensors", int(newly.sum()))
        replace = self._bad | implausible
        if not replace.any():
            return readings_c
        out = readings_c.copy()
        out[replace] = predicted_c[replace]
        return out
