"""State-of-the-art baselines the paper compares against.

* :mod:`repro.baselines.mubarik` -- [2] Mubarik et al., MICRO 2020: exact
  fully parallel bespoke decision trees.  Every decision node is a digital
  comparator against a hardwired threshold, inputs arrive as binary words
  from conventional flash ADCs (per-input comparator banks plus a shared
  priority encoder).  This is the evaluation baseline of Table I.
* :mod:`repro.baselines.balaskas` -- [7] Balaskas et al., ISQED 2022:
  approximate bespoke decision trees obtained by per-input precision scaling
  (each input keeps only as many bits as needed to stay within the accuracy
  budget), paired with the smallest suitable conventional ADC per input and,
  when required, deeper trees to compensate the approximation-induced
  accuracy loss.
"""

from repro._lazy import lazy_exports

#: Each submodule and the public names it defines.
_EXPORTS = {
    "repro.baselines.mubarik": ("BaselineBespokeDesign", "build_comparator_tree_netlist"),
    "repro.baselines.balaskas": ("BalaskasApproximateDesign", "fit_balaskas_design"),
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
