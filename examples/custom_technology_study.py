"""Technology sensitivity study: what if the printed process changes?

The EGFET cost model shipped with the library is calibrated against the
paper's published numbers, but every constant lives in
:class:`repro.pdk.EGFETTechnology`, so a user can re-run the whole co-design
under a different process assumption: a :class:`repro.core.DesignSpec`
carries the technology, :func:`repro.core.reference_designs` builds the
baselines under it, :func:`repro.core.design.evaluate_family` trains and
costs the depth x tau exploration one tau family at a time, and
:func:`repro.core.select_designs` picks the design per accuracy-loss budget.
This example studies two questions on the seeds benchmark:

1. how do the co-design gains change if the comparator power scales more or
   less steeply with the reference level (the property the ADC-aware training
   exploits)?
2. how large can the classifier get before a weaker (1 mW) or stronger (5 mW)
   printed harvester stops covering it?

Run with::

    python examples/custom_technology_study.py
"""

from dataclasses import replace

from repro import default_technology, reference_designs, select_designs
from repro.analysis.render import render_table
from repro.core.design import DesignSpec, evaluate_family
from repro.core.exploration import DEFAULT_DEPTHS, DEFAULT_TAUS, grid_points
from repro.pdk.comparator import AnalogComparatorModel
from repro.pdk.harvester import PrintedEnergyHarvester


def run_with(technology):
    """The seeds co-design flow with every design costed under ``technology``."""
    base = DesignSpec("seeds", seed=0, technology=technology)
    points = {}
    for tau in DEFAULT_TAUS:
        family = [replace(base, depth=depth, tau=tau) for depth in DEFAULT_DEPTHS]
        points.update(((p.depth, p.tau), p) for p in evaluate_family(family))
    exploration = [points[grid] for grid in grid_points(DEFAULT_DEPTHS, DEFAULT_TAUS)]
    return select_designs(
        reference_designs(base, include_approximate_baseline=False), exploration
    )


def main() -> None:
    nominal = default_technology()

    # ------------------------------------------------------------------ #
    # 1. comparator power slope sweep
    # ------------------------------------------------------------------ #
    slope_rows = []
    for label, slope_scale in [("flat (0.25x)", 0.25), ("nominal (1x)", 1.0), ("steep (2x)", 2.0)]:
        comparator = AnalogComparatorModel(
            area_mm2=nominal.comparator.area_mm2,
            power_base_uw=nominal.comparator.power_base_uw,
            power_per_level_uw=nominal.comparator.power_per_level_uw * slope_scale,
        )
        technology = replace(nominal, comparator=comparator)
        result = run_with(technology)
        chosen = result.selected[0.01]
        table2 = result.table2_reduction(0.01)
        slope_rows.append(
            (label, chosen.hardware.adc_power_uw, chosen.hardware.total_power_mw,
             table2.power_factor)
        )
    print("comparator power-vs-level slope sensitivity (seeds, <=1% loss):")
    print(render_table(
        ["power slope", "ADC power (uW)", "total power (mW)", "power reduction vs [2] (x)"],
        slope_rows,
    ))

    # ------------------------------------------------------------------ #
    # 2. harvester budget sweep
    # ------------------------------------------------------------------ #
    harvester_rows = []
    for budget in (1.0, 2.0, 5.0):
        technology = replace(
            nominal, harvester=PrintedEnergyHarvester(budget_mw=budget)
        )
        result = run_with(technology)
        baseline_ok = result.baseline.hardware.total_power_mw <= budget
        analysis = result.self_power(0.01)
        harvester_rows.append(
            (f"{budget:.0f} mW", baseline_ok, analysis.is_self_powered,
             analysis.utilization * 100.0)
        )
    print("\nharvester budget sensitivity (seeds, <=1% loss):")
    print(render_table(
        ["harvester budget", "baseline self-powered", "co-design self-powered",
         "co-design utilization (%)"],
        harvester_rows,
    ))


if __name__ == "__main__":
    main()
