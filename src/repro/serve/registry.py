"""Model registry: promote trained design points into served artifacts.

The :class:`~repro.core.store.ResultStore` content-addresses every trained
design, but its entries are keyed by *experiment configuration* (including
the code version) and expire with upgrades.  A served model needs the
opposite: a stable, human-addressable identity.  :func:`promote_design`,
the registry's only writer, turns one :class:`~repro.core.design.DesignSpec`
into a **named, versioned, content-addressed artifact** whose
configuration, tree and label all come from that spec, and
:class:`ModelRegistry` stores, lists and loads the artifacts:

* the artifact *digest* (:func:`artifact_digest`) is
  :func:`repro.core.store.content_digest` over the spec's key fields and
  the tree's :meth:`~repro.mltrees.tree.DecisionTree.digest` -- no code
  version mixed in, so the identity survives package upgrades;
* the *name/version* pair is the serving handle: promoting new content under
  an existing name allocates the next version, while re-promoting identical
  content is idempotent (the existing version is returned).

On-disk layout (see ``docs/SERVING.md``)::

    <registry>/
      models/<name>/<digest>.pkl   # pickled ModelArtifact (tree included)
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
from repro.core.design import DesignSpec
from repro.core.metrics import HardwareReport
from repro.core.store import (
    ResultStore,
    atomic_write,
    code_version,
    content_digest,
    default_cache_dir,
)
from repro.core.unary_tree import translate
from repro.errors import InputError
from repro.mltrees.tree import DecisionTree
from repro.pdk.egfet import EGFETTechnology, default_technology

#: Registry names are serving handles that land in paths and URLs.
_NAME_RE = re.compile(r"[a-z0-9][a-z0-9._-]{0,63}")


class RegistryInputError(InputError):
    """A registry directory or model name the registry refuses."""


class RegistryLookupError(RegistryInputError, KeyError):
    """A model, version or model file the registry does not hold or cannot load."""

    # KeyError's own str() is the repr of its argument; print the message.
    __str__ = InputError.__str__


def _check_name(name: str) -> str:
    """``name``, refused unless it is a registry name (never a path)."""
    if not _NAME_RE.fullmatch(name):
        raise RegistryInputError(
            f"invalid model name {name!r}: want lowercase "
            "[a-z0-9._-], max 64 chars, leading alphanumeric"
        )
    return name


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


def artifact_digest(spec: DesignSpec, tree: DecisionTree) -> str:
    """Content address of a promoted model: the spec that trained it and its tree.

    Hashes the spec's key fields (the fields its store key hashes, with the
    technology's digest) and :meth:`DecisionTree.digest`, with **no code
    version mixed in**: retraining the same spec under a newer package that
    produces the same tree re-promotes to the same digest (idempotent),
    while any change to the tree allocates a new version.
    """
    return content_digest(
        kind="repro-model-artifact", spec=spec._key_fields(), tree=tree.digest()
    )


class ModelRegistry:
    """Named, versioned store of promoted :class:`ModelArtifact` bundles.

    Examples
    --------
    >>> registry = ModelRegistry("/tmp/repro-registry")   # doctest: +SKIP
    >>> artifact = promote_design(registry, "cardio", 4, 0.01,
    ...                           name="cardio-posture")  # doctest: +SKIP
    >>> registry.load("cardio-posture").version           # doctest: +SKIP
    1
    """

    def __init__(self, registry_dir: str | Path | None = None):
        self.registry_dir = (
            Path(registry_dir) if registry_dir is not None else default_registry_dir()
        )
        if self.registry_dir.exists() and not self.registry_dir.is_dir():
            raise RegistryInputError(
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

    def model_path(self, name: str, digest: str) -> Path:
        """Path of the pickled artifact of ``name`` with ``digest``.

        Keyed by name too: each artifact pickles its own ``name`` and
        ``version``, so equal content promoted under two names is two files.
        """
        return self.models_dir / name / f"{digest}.pkl"

    def manifest_path(self, name: str, version: int) -> Path:
        """Path of the manifest of ``name`` at ``version``."""
        return self.manifests_dir / name / f"v{version}.json"

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
            if entry.is_dir() and _NAME_RE.fullmatch(entry.name) and self.versions(entry.name)
        )

    def versions(self, name: str) -> list[int]:
        """Ascending promoted versions of ``name`` (empty when unknown).

        Raises :class:`RegistryInputError` when ``name`` is not a registry
        name, so no lookup resolves a path outside the registry.
        """
        directory = self.manifests_dir / _check_name(name)
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
            raise RegistryLookupError(f"no model named {name!r} in {self.registry_dir}")
        if version is None:
            return known[-1]
        if version not in known:
            raise RegistryLookupError(
                f"model {name!r} has no version {version} (known: {known})"
            )
        return version

    def manifest(self, name: str, version: int | None = None) -> dict:
        """The light manifest of ``name`` at ``version`` (default latest)."""
        return self._read_manifest(name, self.resolve_version(name, version))

    def load(self, name: str, version: int | None = None) -> ModelArtifact:
        """Load the full artifact of ``name`` at ``version`` (default latest)."""
        manifest = self.manifest(name, version)
        label = f"{manifest['name']}/v{manifest['version']}"
        path = self.model_path(name, manifest["digest"])
        try:
            with open(path, "rb") as handle:
                artifact = pickle.load(handle)
        except FileNotFoundError as exc:
            raise RegistryLookupError(
                f"manifest {label} points at missing artifact {path.name}"
            ) from exc
        except (pickle.UnpicklingError, EOFError, AttributeError, ImportError,
                IndexError, TypeError, ValueError) as exc:
            # Truncated, foreign, or holding a tree layout this code no longer
            # reads (the linked trees of schema-2 artifacts).
            reason = f"{type(exc).__name__}: {exc}"
        else:
            if isinstance(artifact, ModelArtifact):
                return artifact
            reason = f"it holds a {type(artifact).__name__}"
        raise RegistryLookupError(
            f"artifact {path} of {label} cannot be loaded ({reason}); re-promote it"
        )

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _read_manifest(self, name: str, version: int) -> dict:
        with open(self.manifest_path(name, version), "r", encoding="utf-8") as handle:
            return json.load(handle)

    def _write(self, artifact: ModelArtifact) -> None:
        """Write ``artifact`` and its manifest, each atomically."""
        atomic_write(
            self.model_path(artifact.name, artifact.digest),
            lambda handle: pickle.dump(artifact, handle, protocol=pickle.HIGHEST_PROTOCOL),
        )
        manifest = json.dumps(artifact.manifest(), sort_keys=True, indent=2)
        atomic_write(
            self.manifest_path(artifact.name, artifact.version),
            lambda handle: handle.write(manifest.encode("utf-8")),
        )

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

    The request is one :class:`~repro.core.design.DesignSpec`.  Its point
    comes from a **read-only** hit on the spec's result-store entry, written
    by any suite sweep, shard or search study that evaluated the same spec
    (the lookup store is opened with ``touch_on_get=False`` and its stats are
    never flushed), or else from :meth:`DesignSpec.evaluate`, again without
    touching the cache.  Every configuration field of the artifact is read
    from the spec, so the promoted tree always matches its manifest.

    Idempotent on content: when ``name`` (default ``<dataset>-d<depth>``)
    already has a version with the same :func:`artifact_digest`, that
    artifact is returned untouched, or written again under that version if
    its model file cannot be loaded.  Otherwise the next version of ``name``
    is allocated and the artifact and its manifest are written atomically.
    """
    spec = DesignSpec(
        dataset, seed, depth, tau, resolution_bits,
        technology=technology if technology is not None else default_technology(),
        training_sigma=training_sigma,
        robustness_weight=robustness_weight,
    )
    name = name if name is not None else f"{spec.dataset}-d{spec.depth}"
    _check_name(name)
    store = ResultStore(
        cache_dir if cache_dir is not None else default_cache_dir(),
        touch_on_get=False,
    )
    point = store.get(spec.key())
    if point is None:
        point = spec.evaluate()
    digest = artifact_digest(spec, point.tree)
    versions = registry.versions(name)
    same = [v for v in versions if registry._read_manifest(name, v).get("digest") == digest]
    if same:
        try:
            return registry.load(name, same[0])
        except RegistryLookupError:  # its model file is missing or unreadable: write it again
            version = same[0]
    else:
        version = versions[-1] + 1 if versions else 1

    unary = translate(point.tree)
    if unary.n_inputs > 0:
        frontend = build_bespoke_frontend(unary, spec.technology)
        adc_config = {
            int(feature): tuple(adc.retained_levels)
            for feature, adc in sorted(frontend.adcs.items())
        }
    else:  # degenerate single-leaf tree: nothing to digitize
        adc_config = {}
    kernel = unary.kernel
    artifact = ModelArtifact(
        name=name,
        version=version,
        digest=digest,
        dataset=spec.dataset,
        depth=spec.depth,
        tau=spec.tau,
        seed=spec.seed,
        resolution_bits=spec.resolution_bits,
        accuracy=point.accuracy,
        training_sigma=spec.training_sigma,
        robustness_weight=spec.robustness_weight,
        tree=point.tree,
        technology=spec.technology,
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
            name=f"{name} ({spec.dataset}, depth={spec.depth}, tau={spec.tau:g})",
            technology=spec.technology,
        ),
        created_utc=time.time(),
    )
    registry._write(artifact)
    return artifact
