"""Model registry: promote trained design points into served artifacts.

The :class:`~repro.core.store.ResultStore` content-addresses every trained
design, but its entries are keyed by *experiment configuration* (including
the code version) and expire with upgrades.  A served model needs the
opposite: a stable, human-addressable identity.  :class:`ModelRegistry`
provides it by promoting a :class:`~repro.core.exploration.DesignPoint` to a
**named, versioned, content-addressed artifact**:

* the artifact *digest* is :func:`repro.core.store.content_digest` over the
  model's defining content (dataset, split seed, depth, tau, resolution,
  training knobs, technology, and the tree structure itself) -- no code
  version mixed in, so the identity survives package upgrades;
* the *name/version* pair is the serving handle: promoting new content under
  an existing name allocates the next version, while re-promoting identical
  content is idempotent (the existing version is returned).

On-disk layout (see ``docs/SERVING.md``)::

    <registry>/
      models/<digest>.pkl          # pickled ModelArtifact (tree included)
      manifests/<name>/v<N>.json   # light manifest: no tree, greppable

All writes go through :func:`repro.core.store.atomic_write` (temp file +
``os.replace``), like the result store's, so concurrent promotions never
expose partial artifacts.
"""

from __future__ import annotations

import json
import os
import pickle
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.adc.thermometer import WORD_BITS
from repro.core.bespoke_adc import build_bespoke_frontend
from repro.core.datasheet import generate_datasheet
from repro.core.design import DesignPoint
from repro.core.metrics import HardwareReport
from repro.core.store import atomic_write, code_version, content_digest
from repro.core.unary_tree import translate
from repro.mltrees.tree import LEAF, DecisionTree
from repro.pdk.egfet import EGFETTechnology, default_technology

#: Registry names are serving handles that land in paths and URLs.
_NAME_RE = re.compile(r"[a-z0-9][a-z0-9._-]{0,63}")


def default_registry_dir() -> Path:
    """Default location: ``$REPRO_REGISTRY_DIR`` or ``~/.cache/repro/registry``."""
    env = os.environ.get("REPRO_REGISTRY_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "registry"


@dataclass(frozen=True)
class ModelArtifact:
    """One promoted model: everything a scorer needs, in a single bundle.

    The heavy payload is the trained ``tree``; ``adc_config`` (the retained
    comparator levels of each bespoke ADC), the rendered ``datasheet`` and
    ``kernel_meta`` (size metrics of the tree's bit-parallel kernel)
    ride along so a serving host can inspect a model without re-deriving its
    hardware view.
    """

    name: str
    version: int
    digest: str
    dataset: str
    depth: int
    tau: float
    seed: int
    resolution_bits: int
    accuracy: float
    training_sigma: float
    robustness_weight: float
    tree: DecisionTree = field(repr=False)
    technology: EGFETTechnology = field(repr=False)
    hardware: HardwareReport = field(repr=False)
    adc_config: dict[int, tuple[int, ...]] = field(repr=False)
    kernel_meta: dict[str, int] = field(repr=False)
    datasheet: str = field(repr=False)
    created_utc: float = 0.0

    def manifest(self) -> dict:
        """The light JSON view stored under ``manifests/<name>/v<N>.json``."""
        return {
            "name": self.name,
            "version": self.version,
            "digest": self.digest,
            "dataset": self.dataset,
            "depth": self.depth,
            "tau": self.tau,
            "seed": self.seed,
            "resolution_bits": self.resolution_bits,
            "accuracy": self.accuracy,
            "training_sigma": self.training_sigma,
            "robustness_weight": self.robustness_weight,
            "kernel_meta": dict(self.kernel_meta),
            "created_utc": self.created_utc,
            "promoted_by": code_version(),
        }


def artifact_digest(
    point: DesignPoint,
    *,
    seed: int,
    resolution_bits: int,
    technology: EGFETTechnology,
    training_sigma: float = 0.0,
    robustness_weight: float = 1.0,
) -> str:
    """Content address of a design point's *model content*.

    Hashes what defines the served function -- the tree structure (the
    nested node form of :func:`_node_form` plus shape metadata) and the
    configuration that trained it --
    with **no code version mixed in**: retraining the same configuration
    under a newer package that produces the same tree re-promotes to the
    same digest (idempotent), while any structural change to the tree
    allocates a new version.
    """
    return content_digest(
        kind="repro-model-artifact",
        dataset=point.dataset,
        depth=point.depth,
        tau=point.tau,
        seed=seed,
        resolution_bits=resolution_bits,
        training_sigma=float(training_sigma),
        robustness_weight=float(robustness_weight),
        technology=technology,
        tree_root=_node_form(point.tree, 0),
        tree_shape=(
            point.tree.n_features,
            point.tree.n_classes,
            point.tree.resolution_bits,
        ),
    )


def _node_form(tree: DecisionTree, node: int) -> dict:
    """The subtree under ``node`` as the nested fields of a linked node record.

    This is the canonical form the digest has hashed since trees were linked
    records, so artifact identities survive the array layout.
    """
    is_leaf = int(tree.feature[node]) == LEAF
    return {
        "__dataclass__": "TreeNode",
        "node_id": node,
        "prediction": int(tree.prediction[node]),
        "n_samples": int(tree.n_samples[node]),
        "class_counts": tree.class_counts[node].tolist(),
        "feature": None if is_leaf else int(tree.feature[node]),
        "threshold_level": None if is_leaf else int(tree.threshold[node]),
        "left": None if is_leaf else _node_form(tree, int(tree.left[node])),
        "right": None if is_leaf else _node_form(tree, int(tree.right[node])),
        "depth": int(tree.node_depth[node]),
    }


class ModelRegistry:
    """Named, versioned store of promoted :class:`ModelArtifact` bundles.

    Examples
    --------
    >>> registry = ModelRegistry("/tmp/repro-registry")   # doctest: +SKIP
    >>> artifact = registry.promote(point, "cardio-posture")  # doctest: +SKIP
    >>> registry.load("cardio-posture").version           # doctest: +SKIP
    1
    """

    def __init__(self, registry_dir: str | Path | None = None):
        self.registry_dir = (
            Path(registry_dir) if registry_dir is not None else default_registry_dir()
        )
        if self.registry_dir.exists() and not self.registry_dir.is_dir():
            raise ValueError(
                f"registry_dir {str(self.registry_dir)!r} exists and is not a directory"
            )

    # ------------------------------------------------------------------ #
    # paths
    # ------------------------------------------------------------------ #
    @property
    def models_dir(self) -> Path:
        return self.registry_dir / "models"

    @property
    def manifests_dir(self) -> Path:
        return self.registry_dir / "manifests"

    def model_path(self, digest: str) -> Path:
        """Path of the pickled artifact with ``digest``."""
        return self.models_dir / f"{digest}.pkl"

    def manifest_path(self, name: str, version: int) -> Path:
        """Path of the manifest of ``name`` at ``version``."""
        return self.manifests_dir / name / f"v{version}.json"

    # ------------------------------------------------------------------ #
    # promotion
    # ------------------------------------------------------------------ #
    def promote(
        self,
        point: DesignPoint,
        name: str,
        *,
        seed: int = 0,
        resolution_bits: int = 4,
        technology: EGFETTechnology | None = None,
        training_sigma: float = 0.0,
        robustness_weight: float = 1.0,
    ) -> ModelArtifact:
        """Promote a trained design point to a named, versioned artifact.

        Idempotent on content: when ``name`` already has a version with the
        same content digest, that existing artifact is returned untouched.
        Otherwise the next version of ``name`` is allocated and both the
        pickled artifact and its manifest are written atomically.
        """
        if not _NAME_RE.fullmatch(name):
            raise ValueError(
                f"invalid model name {name!r}: want lowercase "
                "[a-z0-9._-], max 64 chars, leading alphanumeric"
            )
        technology = technology if technology is not None else default_technology()
        digest = artifact_digest(
            point,
            seed=seed,
            resolution_bits=resolution_bits,
            technology=technology,
            training_sigma=training_sigma,
            robustness_weight=robustness_weight,
        )
        for version in self.versions(name):
            manifest = self._read_manifest(name, version)
            if manifest.get("digest") == digest:
                return self.load(name, version)

        unary = translate(point.tree)
        if unary.n_inputs > 0:
            frontend = build_bespoke_frontend(unary, technology)
            adc_config = {
                int(feature): tuple(adc.retained_levels)
                for feature, adc in sorted(frontend.adcs.items())
            }
        else:  # degenerate single-leaf tree: nothing to digitize
            adc_config = {}
        kernel = unary.kernel
        artifact = ModelArtifact(
            name=name,
            version=self._next_version(name),
            digest=digest,
            dataset=point.dataset,
            depth=point.depth,
            tau=point.tau,
            seed=seed,
            resolution_bits=resolution_bits,
            accuracy=point.accuracy,
            training_sigma=float(training_sigma),
            robustness_weight=float(robustness_weight),
            tree=point.tree,
            technology=technology,
            hardware=point.hardware,
            adc_config=adc_config,
            kernel_meta={
                "n_digits": int(kernel.n_digits),
                "n_cubes": int(kernel.n_cubes),
                "n_literals": int(kernel.n_literals),
                "n_classes": int(kernel.n_classes),
                "word_bits": int(WORD_BITS),
            },
            datasheet=generate_datasheet(
                unary,
                name=f"{name} ({point.dataset}, depth={point.depth}, "
                f"tau={point.tau:g})",
                technology=technology,
            ),
            created_utc=time.time(),
        )
        atomic_write(
            self.model_path(digest),
            lambda handle: pickle.dump(artifact, handle, protocol=pickle.HIGHEST_PROTOCOL),
        )
        manifest = json.dumps(artifact.manifest(), sort_keys=True, indent=2)
        atomic_write(
            self.manifest_path(name, artifact.version),
            lambda handle: handle.write(manifest.encode("utf-8")),
        )
        return artifact

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #
    def list_models(self) -> list[str]:
        """Sorted names that have at least one promoted version."""
        if not self.manifests_dir.is_dir():
            return []
        return sorted(
            entry.name
            for entry in self.manifests_dir.iterdir()
            if entry.is_dir() and self.versions(entry.name)
        )

    def versions(self, name: str) -> list[int]:
        """Ascending promoted versions of ``name`` (empty when unknown)."""
        directory = self.manifests_dir / name
        if not directory.is_dir():
            return []
        versions = []
        for path in directory.glob("v*.json"):
            try:
                versions.append(int(path.stem[1:]))
            except ValueError:
                continue
        return sorted(versions)

    def resolve_version(self, name: str, version: int | None = None) -> int:
        """``version`` validated, or the latest version of ``name``."""
        known = self.versions(name)
        if not known:
            raise KeyError(f"no model named {name!r} in {self.registry_dir}")
        if version is None:
            return known[-1]
        if version not in known:
            raise KeyError(
                f"model {name!r} has no version {version} (known: {known})"
            )
        return version

    def manifest(self, name: str, version: int | None = None) -> dict:
        """The light manifest of ``name`` at ``version`` (default latest)."""
        return self._read_manifest(name, self.resolve_version(name, version))

    def load(self, name: str, version: int | None = None) -> ModelArtifact:
        """Load the full artifact of ``name`` at ``version`` (default latest)."""
        manifest = self.manifest(name, version)
        path = self.model_path(manifest["digest"])
        try:
            with open(path, "rb") as handle:
                return pickle.load(handle)
        except FileNotFoundError as exc:
            raise KeyError(
                f"manifest {manifest['name']}/v{manifest['version']} points at "
                f"missing artifact {path.name}"
            ) from exc

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _read_manifest(self, name: str, version: int) -> dict:
        with open(self.manifest_path(name, version), "r", encoding="utf-8") as handle:
            return json.load(handle)

    def _next_version(self, name: str) -> int:
        known = self.versions(name)
        return (known[-1] + 1) if known else 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ModelRegistry(registry_dir={str(self.registry_dir)!r})"


def promote_design(
    registry: ModelRegistry,
    dataset: str,
    depth: int,
    tau: float,
    *,
    name: str | None = None,
    seed: int = 0,
    resolution_bits: int = 4,
    technology: EGFETTechnology | None = None,
    training_sigma: float = 0.0,
    robustness_weight: float = 1.0,
    cache_dir: str | Path | None = None,
) -> ModelArtifact:
    """Train-or-reuse one ``(dataset, depth, tau)`` design point and promote it.

    The point is a :class:`~repro.core.design.DesignSpec`; its fast path is
    a **read-only** hit on the spec's result-store entry, written by any
    suite sweep, shard or search study that evaluated the same point --
    without writing a byte to the cache directory (the lookup store is
    opened with ``touch_on_get=False`` and its stats are never flushed).
    On a miss the point is trained with the same recipe, again without
    touching the cache.  Every field of the request is part of the spec, so
    the promoted tree always matches the manifest's configuration.
    """
    from repro.core.design import DesignSpec
    from repro.core.store import ResultStore, default_cache_dir

    spec = DesignSpec(
        dataset, seed, depth, tau, resolution_bits,
        technology=technology if technology is not None else default_technology(),
        training_sigma=training_sigma,
        robustness_weight=robustness_weight,
    )
    store = ResultStore(
        cache_dir if cache_dir is not None else default_cache_dir(),
        touch_on_get=False,
    )
    point = store.get(spec.key())
    if point is None:
        point = spec.evaluate()
    return registry.promote(
        point,
        name if name is not None else f"{spec.dataset}-d{spec.depth}",
        seed=seed,
        resolution_bits=spec.resolution_bits,
        technology=spec.technology,
        training_sigma=training_sigma,
        robustness_weight=robustness_weight,
    )
