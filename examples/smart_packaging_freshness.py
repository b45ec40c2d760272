"""Smart packaging: on-sensor food-freshness classification.

Printed electronics' flagship use case (paper, Section I) is disposable smart
packaging: a printed gas-sensor array on a food package classifies the
product as fresh / stale / spoiled, powered only by a printed energy
harvester.  This example builds that system end to end:

1. synthesize a gas-sensor freshness dataset (one channel per printed sensor:
   ethanol, ammonia, CO2, humidity, temperature, volatile sulphur),
2. train with the ADC-aware trainer and generate the bespoke ADC front end,
3. verify the synthesized unary logic against the software model,
4. stream "sensor readings" through the analog front end and the unary logic
   to emulate on-sensor inference,
5. check the whole tag (sensors + ADCs + logic) against the 2 mW harvester.

Run with::

    python examples/smart_packaging_freshness.py
"""

import numpy as np

from repro import (
    ADCAwareTrainer,
    UnaryDecisionTree,
    analyze_self_power,
    build_bespoke_frontend,
    default_technology,
)
from repro.circuits.verification import check_equivalence
from repro.core.exploration import proposed_hardware_report
from repro.datasets.base import Dataset
from repro.datasets.synthetic import make_classification_blobs
from repro.mltrees.evaluation import accuracy_score, train_test_split
from repro.mltrees.quantize import quantize_dataset

SENSOR_NAMES = [
    "ethanol", "ammonia", "co2", "humidity", "temperature", "volatile_sulphur",
]
CLASS_NAMES = ["fresh", "stale", "spoiled"]


def make_freshness_dataset(seed: int = 0) -> Dataset:
    """Synthetic gas-sensor freshness dataset (3 classes, 6 printed sensors)."""
    X, y = make_classification_blobs(
        n_samples=900,
        n_features=len(SENSOR_NAMES),
        n_classes=len(CLASS_NAMES),
        class_sep=2.1,
        noise_scale=1.0,
        label_noise=0.04,
        class_weights=[0.6, 0.25, 0.15],
        clusters_per_class=2,
        seed=seed,
    )
    return Dataset(
        name="freshness",
        X=X,
        y=y,
        feature_names=SENSOR_NAMES,
        class_names=CLASS_NAMES,
        description="Synthetic printed gas-sensor food-freshness monitoring task.",
    )


def main() -> None:
    technology = default_technology()
    dataset = make_freshness_dataset()
    X_train, X_test, y_train, y_test = train_test_split(
        dataset.X, dataset.y, test_size=0.3, seed=0
    )
    X_train_levels = quantize_dataset(X_train)
    X_test_levels = quantize_dataset(X_test)

    # --- train the ADC-aware decision tree ------------------------------- #
    trainer = ADCAwareTrainer(max_depth=5, gini_threshold=0.01, seed=0)
    tree = trainer.fit(X_train_levels, y_train, dataset.n_classes)
    accuracy = accuracy_score(y_test, tree.predict_levels(X_test_levels))
    print(f"trained freshness classifier: depth {tree.depth}, "
          f"{tree.n_decision_nodes} decision nodes, accuracy {accuracy * 100:.1f}%")

    # --- generate the printed hardware ----------------------------------- #
    unary = UnaryDecisionTree(tree)
    frontend = build_bespoke_frontend(unary, technology, feature_names=SENSOR_NAMES)
    print("\nbespoke ADC front end (one channel per used sensor):")
    for feature, adc in frontend.adcs.items():
        levels = ", ".join(str(level) for level in adc.retained_levels)
        print(f"  {adc.feature_name:17s} {adc.label:6s} retained levels: {levels:20s} "
              f"{adc.area_mm2:.2f} mm2, {adc.power_uw:.0f} uW")

    netlist = unary.to_netlist("freshness_tree")
    print(f"\nunary label logic: {netlist.n_gates} gates "
          f"({dict(netlist.cell_histogram())})")

    # --- verify the netlist against the software model -------------------- #
    def reference(assignment):
        digits = np.array([[assignment[name] for name in unary.digit_variables()]])
        label = unary.predict_digit_matrix(digits)[0]
        return {unary.class_output(c): (c == label) for c in range(unary.n_classes)}

    equivalence = check_equivalence(netlist, reference, n_random_vectors=500, seed=1)
    print(f"netlist vs model equivalence: "
          f"{'PASS' if equivalence.equivalent else 'FAIL'} "
          f"({equivalence.n_vectors} vectors)")

    # --- emulate on-sensor inference on streaming readings ---------------- #
    print("\non-sensor inference on 5 sampled packages:")
    rng = np.random.default_rng(7)
    sample_indices = rng.choice(len(X_test), size=5, replace=False)
    for index in sample_indices:
        reading = X_test[index]
        digits = frontend.convert(reading)
        row = np.array([[digits[feature][level] for feature, level in unary.comparators]])
        label = unary.predict_digit_matrix(row)[0]
        truth = CLASS_NAMES[y_test[index]]
        print(f"  reading {np.round(reading, 2)} -> {CLASS_NAMES[label]:8s} "
              f"(ground truth: {truth})")

    # --- self-power feasibility ------------------------------------------ #
    hardware = proposed_hardware_report(tree, technology, name="freshness tag")
    analysis = analyze_self_power(hardware, technology)
    print(f"\ncomplete tag power: {analysis.total_power_mw:.3f} mW "
          f"(classifier {analysis.classifier_power_mw:.3f} mW + "
          f"sensors {analysis.sensor_power_mw:.3f} mW)")
    print(f"printed harvester budget: {analysis.harvester_budget_mw:.1f} mW -> "
          f"{'SELF-POWERED tag' if analysis.is_self_powered else 'budget exceeded'} "
          f"({analysis.utilization * 100:.0f}% utilization)")


if __name__ == "__main__":
    main()
