"""Design-space exploration of the co-design hyperparameters (Section IV).

The paper brute-forces the two training hyperparameters -- tree depth
(2..8) and Gini tolerance tau (0..0.03 in steps of 0.005) -- trains one
ADC-aware tree per combination, and then picks, per accuracy-loss constraint
(0 %, 1 %, 5 %), the most hardware-efficient design that still meets the
constraint.  :class:`DesignSpaceExplorer` reproduces that sweep and
:func:`select_best_design` the constrained selection.  Given points that
carry a comparator-offset Monte-Carlo summary (attached by
:func:`~repro.analysis.experiments.run_robust_exploration`),
:func:`select_best_design` can also constrain the selection by
``max_accuracy_drop`` -- the offset-aware co-design of Table II.

Every grid point is one :class:`~repro.core.design.DesignSpec`: the
explorer only fixes the knobs its points share.
"""

from __future__ import annotations

import numpy as np

# DesignPoint and proposed_hardware_report stay part of this module's interface.
from repro.core.design import DesignPoint, DesignSpec, proposed_hardware_report  # noqa: F401
from repro.core.executor import Executor, SerialExecutor
from repro.core.variation import simulate_offset_variation  # noqa: F401 (public re-export)
from repro.pdk.egfet import EGFETTechnology, default_technology

#: Default tau grid of the paper: 0 to 0.03 in increments of 0.005.
DEFAULT_TAUS: tuple[float, ...] = (0.0, 0.005, 0.010, 0.015, 0.020, 0.025, 0.030)

#: Default depth grid of the paper: 2 to 8 with a step of 1.
DEFAULT_DEPTHS: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8)


def grid_points(
    depths: tuple[int, ...], taus: tuple[float, ...]
) -> tuple[tuple[int, float], ...]:
    """The (depth, tau) grid in canonical depth-major order.

    Single source of truth for every consumer that enumerates the
    exploration grid -- the sweep itself, result ordering, and the sharded
    work-unit planner (:mod:`repro.core.sharding`) -- so grid positions,
    table rows and shard assignments can never disagree about order.
    """
    return tuple((depth, tau) for depth in depths for tau in taus)


class DesignSpaceExplorer:
    """Brute-force exploration of the (depth, tau) hyperparameter grid.

    Parameters
    ----------
    training_sigma:
        Comparator offset sigma **in volts** assumed during training.  When
        positive (and ``robustness_weight > 0``), every grid point is
        trained offset-aware: the trainer's split scores carry the analytic
        expected-flip penalty at this sigma (normalized internally by the
        technology's supply voltage), so thresholds avoid dense sample
        regions and the resulting designs are inherently more
        offset-tolerant -- without spending extra hardware on it.
    robustness_weight:
        Weight of the expected-flip penalty in the trainer's split score
        (ignored while ``training_sigma`` is 0; default 1.0).
    ppa_backend:
        Source of every grid point's digital area/power (default: the
        analytic cell-count model; see :mod:`repro.circuits.ppa`).  Accepts
        anything :func:`~repro.circuits.ppa.resolve_ppa_backend` does.  The
        backend must be picklable when the sweep fans out across processes.
    """

    def __init__(
        self,
        technology: EGFETTechnology | None = None,
        resolution_bits: int = 4,
        depths: tuple[int, ...] = DEFAULT_DEPTHS,
        taus: tuple[float, ...] = DEFAULT_TAUS,
        seed: int = 0,
        training_sigma: float = 0.0,
        robustness_weight: float = 1.0,
        ppa_backend=None,
    ):
        from repro.circuits.ppa import resolve_ppa_backend

        self.technology = technology if technology is not None else default_technology()
        self.resolution_bits = resolution_bits
        self.depths = tuple(depths)
        self.taus = tuple(taus)
        self.seed = seed
        if training_sigma < 0:
            raise ValueError("training_sigma must be >= 0")
        if robustness_weight < 0:
            raise ValueError("robustness_weight must be >= 0")
        self.training_sigma = training_sigma
        self.robustness_weight = robustness_weight
        self.ppa_backend = resolve_ppa_backend(ppa_backend)
        if not self.depths or not self.taus:
            raise ValueError("the exploration grid must not be empty")

    def spec(self, dataset_name: str, depth: int, tau: float) -> DesignSpec:
        """The :class:`DesignSpec` of one grid point under this explorer's knobs."""
        return DesignSpec(
            dataset_name,
            seed=self.seed,
            depth=depth,
            tau=tau,
            resolution_bits=self.resolution_bits,
            technology=self.technology,
            training_sigma=self.training_sigma,
            robustness_weight=self.robustness_weight,
        )

    def evaluate_point(
        self,
        X_train_levels: np.ndarray,
        y_train: np.ndarray,
        X_test_levels: np.ndarray,
        y_test: np.ndarray,
        n_classes: int,
        depth: int,
        tau: float,
        dataset_name: str = "",
    ) -> DesignPoint:
        """Train and cost one (depth, tau) combination."""
        return self.spec(dataset_name, depth, tau).evaluate_levels(
            X_train_levels, y_train, X_test_levels, y_test, n_classes,
            ppa_backend=self.ppa_backend,
        )

    def explore(
        self,
        X_train_levels: np.ndarray,
        y_train: np.ndarray,
        X_test_levels: np.ndarray,
        y_test: np.ndarray,
        n_classes: int,
        dataset_name: str = "",
        executor: Executor | None = None,
    ) -> list[DesignPoint]:
        """Evaluate the full depth x tau grid.

        Every training is independent (the paper parallelizes them across a
        server): each (depth, tau) point is submitted as one job to
        ``executor`` (default: in-process serial execution).  Because every
        job is seeded, serial and parallel runs return identical points in
        the same depth-major order.
        """
        executor = executor if executor is not None else SerialExecutor()
        tasks = [
            (X_train_levels, y_train, X_test_levels, y_test, n_classes, depth, tau,
             dataset_name)
            for depth, tau in grid_points(self.depths, self.taus)
        ]
        return executor.map(self.evaluate_point, tasks)


def select_best_design(
    points: list[DesignPoint],
    reference_accuracy: float,
    max_accuracy_loss: float,
    objective: str = "power",
    max_accuracy_drop: float | None = None,
) -> DesignPoint | None:
    """Pick the most hardware-efficient design meeting the accuracy constraint.

    Parameters
    ----------
    points:
        Evaluated design points.
    reference_accuracy:
        Accuracy of the baseline the loss is measured against.
    max_accuracy_loss:
        Maximum allowed absolute accuracy drop (0.0, 0.01 and 0.05 in the
        paper).
    objective:
        ``"power"`` (default, the binding constraint for self-powered
        operation) or ``"area"``.
    max_accuracy_drop:
        Optional robustness constraint: maximum allowed *mean* accuracy drop
        under comparator-offset variation.  Only points that carry a
        robustness summary (see
        :func:`~repro.analysis.experiments.run_robust_exploration`) can
        satisfy it;
        points without one are treated as infeasible, so a constrained
        selection never silently picks an unanalyzed design.

    Returns
    -------
    DesignPoint | None
        The selected point, or ``None`` when no point satisfies the
        constraints.
    """
    if objective not in {"power", "area"}:
        raise ValueError("objective must be 'power' or 'area'")
    floor = reference_accuracy - max_accuracy_loss
    feasible = [point for point in points if point.accuracy >= floor - 1e-12]
    if max_accuracy_drop is not None:
        feasible = [
            point
            for point in feasible
            if point.mean_accuracy_drop is not None
            and point.mean_accuracy_drop <= max_accuracy_drop + 1e-12
        ]
    if not feasible:
        return None
    if objective == "power":

        def key(p: DesignPoint):
            return (p.hardware.total_power_uw, p.hardware.total_area_mm2)

    else:

        def key(p: DesignPoint):
            return (p.hardware.total_area_mm2, p.hardware.total_power_uw)

    return min(feasible, key=key)
