"""Adaptive CAT repartitioning: monitoring -> scheme -> masks, online.

The paper derives its partitioning scheme *offline* (Sec. IV/V) and
names runtime adaptation as future work (Sec. VIII).  This controller
closes that loop inside the service.  On every control tick it

1. **classifies** each request class active in the window with the
   online probe (:class:`repro.core.online.OnlineClassifier` — full
   LLC vs. polluter-slice throughput, the CMT-style measurement),
2. **sweeps** unseen classes across CAT allocations
   (:meth:`repro.workloads.mixed.ConcurrencyExperiment.llc_sweep`) and
   condenses each sweep into a
   :class:`~repro.core.advisor.SensitivityReport`,
3. **derives** a :class:`~repro.core.policy.PartitioningScheme` from
   the reports of the *currently active* classes
   (:func:`repro.core.advisor.derive_policy`), and
4. **programs** the engine: lowers the scheme to a
   :class:`~repro.engine.cache_control.CuidPolicy`, installs it on the
   :class:`~repro.engine.cache_control.CacheController`, and exposes
   per-class masks for the dispatch path (the compare-before-set
   association happens per dispatch, exactly as in the engine).

Classification and sweep results are cached per class name — the
expensive model probes run once per class, so steady-state ticks cost
microseconds and the controller can run at a short interval.  A tick
whose derived masks equal the installed ones changes nothing
(``changed=False``); convergence after a mix shift is therefore
directly observable as the tick index of the last ``changed`` decision.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import SystemSpec
from ..core.advisor import (
    CacheSensitivity,
    SensitivityReport,
    analyze_sweep,
    derive_policy,
)
from ..core.online import OnlineClassifier
from ..core.policy import PartitioningScheme
from ..engine.cache_control import CacheController
from ..errors import ServeError
from ..hardware.cat import mask_from_fraction
from ..obs import runtime
from ..workloads.mixed import ConcurrencyExperiment
from .arrivals import RequestClass

#: Default sweep grid: coarse (4 points) because the advisor only needs
#: the knee, and every point is one full model solve.
DEFAULT_SWEEP_WAYS = (2, 8, 14, 20)


def classify_cached(
    classifier: OnlineClassifier,
    cls: RequestClass,
    cuids: dict[str, str],
) -> str:
    """Classify a request class with a shared per-class-name cache.

    The memoized probe behind both the adaptive controller and the
    contention detector: the first caller pays the model probe, every
    later lookup (on any node, from either consumer) is a dict hit.
    """
    cuid = cuids.get(cls.name)
    if cuid is None:
        with runtime.tracer.span(
            "serve.controller.classify", cls=cls.name
        ):
            outcome = classifier.classify(cls.profile)
        cuid = outcome.cuid.value
        cuids[cls.name] = cuid
        runtime.metrics.counter(
            "serve.controller.classifications"
        ).inc()
    return cuid


@dataclass(frozen=True)
class ControlDecision:
    """One control tick's outcome."""

    tick: int
    time_s: float
    scheme: PartitioningScheme
    class_masks: dict[str, int]
    classifications: dict[str, str]
    changed: bool

    def to_dict(self) -> dict:
        return {
            "tick": self.tick,
            "time_s": self.time_s,
            "scheme": {
                "polluting_fraction": self.scheme.polluting_fraction,
                "sensitive_fraction": self.scheme.sensitive_fraction,
                "adaptive_sensitive_fraction": (
                    self.scheme.adaptive_sensitive_fraction
                ),
            },
            "class_masks": dict(sorted(self.class_masks.items())),
            "classifications": dict(
                sorted(self.classifications.items())
            ),
            "changed": self.changed,
        }


class AdaptiveController:
    """Periodic re-classification and CAT mask re-programming."""

    def __init__(
        self,
        spec: SystemSpec,
        cache_controller: CacheController,
        classifier: OnlineClassifier | None = None,
        experiment: ConcurrencyExperiment | None = None,
        interval_s: float = 1.0,
        sweep_ways: tuple[int, ...] = DEFAULT_SWEEP_WAYS,
        tolerance: float = 0.03,
    ) -> None:
        if interval_s <= 0:
            raise ServeError(
                f"control interval must be > 0: {interval_s}"
            )
        if not sweep_ways:
            raise ServeError("sweep_ways must not be empty")
        self.spec = spec
        self.cache_controller = cache_controller
        self.classifier = (
            classifier if classifier is not None
            else OnlineClassifier(spec)
        )
        self.experiment = (
            experiment if experiment is not None
            else ConcurrencyExperiment(spec)
        )
        self.interval_s = float(interval_s)
        self.sweep_ways = tuple(sweep_ways)
        self.tolerance = tolerance
        # Per-class caches: probes run once per class name.
        self._cuids: dict[str, str] = {}
        self._reports: dict[str, SensitivityReport] = {}
        self._installed_masks: dict[str, int] | None = None
        self.ticks = 0
        self.reconfigurations = 0
        self.change_times: list[float] = []
        self.decisions: list[ControlDecision] = []

    def share_analysis_caches(
        self,
        cuids: dict[str, str],
        reports: dict[str, SensitivityReport],
    ) -> None:
        """Adopt shared per-class analysis caches.

        A cluster's nodes run identical specs and calibrations, so the
        classification probe and way sweep for a class produce the same
        result on every node — sharing the dicts makes each class pay
        its discovery cost once per fleet instead of once per node.
        Results are unaffected (the caches only memoize pure probes).
        """
        self._cuids = cuids
        self._reports = reports

    # -- per-class analysis (cached) -----------------------------------

    def _report_for(self, cls: RequestClass) -> SensitivityReport:
        report = self._reports.get(cls.name)
        if report is None:
            with runtime.tracer.span(
                "serve.controller.sweep", cls=cls.name
            ):
                sweep = self.experiment.llc_sweep(
                    cls.profile,
                    ways_list=[
                        w for w in self.sweep_ways
                        if w <= self.spec.llc.ways
                    ],
                )
            report = analyze_sweep(
                cls.name, sweep, tolerance=self.tolerance
            )
            self._reports[cls.name] = report
            runtime.metrics.counter("serve.controller.sweeps").inc()
        return report

    def _cuid_for(self, cls: RequestClass) -> str:
        return classify_cached(self.classifier, cls, self._cuids)

    @staticmethod
    def _fraction_for(
        report: SensitivityReport, scheme: PartitioningScheme
    ) -> float:
        if report.sensitivity is CacheSensitivity.INSENSITIVE:
            return scheme.polluting_fraction
        if report.sensitivity is CacheSensitivity.SENSITIVE:
            return scheme.sensitive_fraction
        return scheme.adaptive_sensitive_fraction

    # -- the control loop ----------------------------------------------

    def tick(
        self, now: float, active_classes: list[RequestClass]
    ) -> ControlDecision:
        """Re-derive the scheme from the classes active right now.

        Installs the lowered policy on the cache controller when the
        derived per-class masks differ from the installed ones; the
        caller re-associates the worker threads of affected requests.
        """
        self.ticks += 1
        runtime.metrics.counter("serve.controller.ticks").inc()
        with runtime.tracer.span("serve.controller.tick"):
            unique = {cls.name: cls for cls in active_classes}
            classifications = {
                name: self._cuid_for(cls)
                for name, cls in sorted(unique.items())
            }
            reports = {
                name: self._report_for(cls)
                for name, cls in sorted(unique.items())
            }
            if reports:
                scheme = derive_policy(
                    list(reports.values()), name="serve_adaptive"
                )
            else:
                # Nothing running: keep whatever is installed; derive
                # nothing.  An idle system has no basis to repartition.
                scheme = PartitioningScheme(
                    name="serve_idle",
                    polluting_fraction=1.0,
                    sensitive_fraction=1.0,
                    adaptive_sensitive_fraction=1.0,
                )
            class_masks = {
                name: mask_from_fraction(
                    self.spec,
                    self._fraction_for(reports[name], scheme),
                )
                for name in reports
            }
            # Merge into the installed map: a class absent from this
            # window keeps its last mask — only a class whose *own*
            # mask moved triggers reprogramming, so a momentarily idle
            # class does not flap the configuration.
            merged = dict(self._installed_masks or {})
            merged.update(class_masks)
            changed = bool(class_masks) and merged != (
                self._installed_masks or {}
            )
            if changed:
                self.cache_controller.enable(
                    scheme.to_cuid_policy(self.spec)
                )
                self._installed_masks = merged
                self.reconfigurations += 1
                self.change_times.append(now)
                runtime.metrics.counter(
                    "serve.controller.reconfigurations"
                ).inc()
        decision = ControlDecision(
            tick=self.ticks,
            time_s=now,
            scheme=scheme,
            class_masks=class_masks,
            classifications=classifications,
            changed=changed,
        )
        self.decisions.append(decision)
        return decision

    def reset(self) -> None:
        """Forget the installed masks, as a restarted process does.

        Masks fall back to the full mask until the next
        reconfiguration.  The per-class probe caches, tick counters
        and decision history survive: they belong to the run, not to
        the process that crashed.
        """
        self._installed_masks = None

    def mask_for(self, cls: RequestClass) -> int:
        """The mask the current installed state assigns to a class.

        Full mask until the first reconfiguration — the service starts
        unpartitioned, exactly like the paper's baseline.
        """
        if self._installed_masks is None:
            return self.spec.full_mask
        mask = self._installed_masks.get(cls.name)
        return mask if mask is not None else self.spec.full_mask
