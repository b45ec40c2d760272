"""Reference implementations the equivalence tests and benchmarks compare against.

Each module here keeps, verbatim, an implementation that production code
has replaced with a faster one.  No production path imports them; the
pytest ``pythonpath`` setting in ``pyproject.toml`` puts this directory's
parent on ``sys.path``, so tests and benchmarks import them as
``oracles.<module>``.

* :mod:`oracles.batch_logic` -- the ndarray label-logic evaluator, the
  reference of :class:`~repro.core.bitkernel.CompiledTreeKernel`;
* :mod:`oracles.packed_kernel` -- the all-words evaluator of that kernel,
  the reference of its int-bitset and word paths;
* :mod:`oracles.variation` -- the per-sample Monte-Carlo loop, the
  reference of :func:`repro.core.variation._predict_with_offsets`;
* :mod:`oracles.legacy_split_search` -- the object-based split
  enumeration, the reference of the columnar trainers, and the two growth
  loops the production trainers replaced;
* :mod:`oracles.per_node_training` -- the per-node ADC-aware trainer (FIFO
  loop, cost partition, table-based split choice), the reference of the
  level-batched :class:`~repro.core.adc_aware_training.ADCAwareTrainer`,
  and the dropped ``margin`` column;
* :mod:`oracles.tree_walk` -- the linked-node tree, its recursive walk and
  the deep-copy ``approximate_tree``, the reference of the node-array
  :class:`~repro.mltrees.tree.DecisionTree`;
* :mod:`oracles.tree_state` -- the schema-3 pickle state of a tree (its
  node table as a numpy array), the reference of the packed node table,
  and pickles whose trees carry a node state the loader refuses;
* :mod:`oracles.tpe_scalar` -- the per-candidate, per-axis Parzen scorer,
  the reference of :class:`~repro.search.optimizer.ParetoTPESampler`'s
  array scorer;
* :mod:`oracles.two_level_reference` -- the ``Literal``/``frozenset``
  sum-of-products, its pair-scan minimizer, ``tree_to_paths`` and the
  netlists built from them, the reference of the integer cubes of
  :mod:`repro.circuits.two_level`;
* :mod:`oracles.unary_scalar` -- the one-sample predictors of a unary tree,
  the scalar reference of :class:`~repro.core.bitkernel.CompiledTreeKernel`.
"""
