"""Reference implementations the equivalence tests and benchmarks compare against.

Each module here keeps, verbatim, an implementation that production code
has replaced with a faster one.  No production path imports them; the
pytest ``pythonpath`` setting in ``pyproject.toml`` puts this directory's
parent on ``sys.path``, so tests and benchmarks import them as
``oracles.<module>``.

* :mod:`oracles.batch_logic` -- the ndarray label-logic evaluator, the
  reference of :class:`~repro.core.bitkernel.CompiledTreeKernel`;
* :mod:`oracles.variation` -- the per-sample Monte-Carlo loop, the
  reference of :func:`repro.core.variation._predict_with_offsets`;
* :mod:`oracles.legacy_split_search` -- the object-based split
  enumeration, the reference of the columnar trainers, and the two growth
  loops the shared ``CARTTrainer._grow`` replaced;
* :mod:`oracles.tree_walk` -- the linked-node tree, its recursive walk and
  the deep-copy ``approximate_tree``, the reference of the node-array
  :class:`~repro.mltrees.tree.DecisionTree`.
"""
