"""Human-readable rendering of trained decision trees.

Two views are provided:

* :func:`render_tree_text` -- an indented text dump (feature names, grid
  thresholds, per-node class counts), useful in logs and examples;
* :func:`tree_to_dot` -- a Graphviz DOT description for documentation and
  debugging of the generated hardware (each decision node is one unary digit
  read in the proposed architecture).
"""

from __future__ import annotations

from repro.mltrees.tree import LEAF, DecisionTree


def _feature_label(feature: int, feature_names: list[str] | None) -> str:
    if feature_names is not None and 0 <= feature < len(feature_names):
        return feature_names[feature]
    return f"I{feature}"


def _class_label(label: int, class_names: list[str] | None) -> str:
    if class_names is not None and 0 <= label < len(class_names):
        return class_names[label]
    return f"class {label}"


def render_tree_text(
    tree: DecisionTree,
    feature_names: list[str] | None = None,
    class_names: list[str] | None = None,
) -> str:
    """Render ``tree`` as an indented text diagram."""
    scale = 2 ** tree.resolution_bits
    feature, threshold = tree.feature.tolist(), tree.threshold.tolist()
    split = tree.feature != LEAF
    prefix = (
        {0: ""}
        | dict.fromkeys(tree.left[split].tolist(), "[no ] ")
        | dict.fromkeys(tree.right[split].tolist(), "[yes] ")
    )
    lines: list[str] = []
    for node in tree.preorder():
        pad = "  " * int(tree.node_depth[node]) + prefix[node]
        n_samples = int(tree.n_samples[node])
        if feature[node] == LEAF:
            lines.append(
                f"{pad}-> {_class_label(int(tree.prediction[node]), class_names)} "
                f"(n={n_samples}, counts={tree.class_counts[node].tolist()})"
            )
            continue
        label = _feature_label(feature[node], feature_names)
        lines.append(
            f"{pad}{label} >= {threshold[node] / scale:.4g} "
            f"(level {threshold[node]}, n={n_samples})"
        )
    return "\n".join(lines)


def tree_to_dot(
    tree: DecisionTree,
    feature_names: list[str] | None = None,
    class_names: list[str] | None = None,
    graph_name: str = "decision_tree",
) -> str:
    """Render ``tree`` as a Graphviz DOT digraph."""
    scale = 2 ** tree.resolution_bits
    feature, threshold = tree.feature.tolist(), tree.threshold.tolist()
    lines = [f"digraph {graph_name} {{", "  node [shape=box, fontsize=10];"]
    for node in tree.preorder():
        if feature[node] == LEAF:
            label = (
                f"{_class_label(int(tree.prediction[node]), class_names)}\\n"
                f"n={int(tree.n_samples[node])}"
            )
            lines.append(
                f'  n{node} [label="{label}", style=filled, fillcolor=lightgrey];'
            )
            continue
        name = _feature_label(feature[node], feature_names)
        label = f"{name} >= {threshold[node] / scale:.4g}\\nlevel {threshold[node]}"
        lines.append(f'  n{node} [label="{label}"];')
        lines.append(f'  n{node} -> n{int(tree.left[node])} [label="no"];')
        lines.append(f'  n{node} -> n{int(tree.right[node])} [label="yes"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
