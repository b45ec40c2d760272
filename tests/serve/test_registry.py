"""Tests for the model registry: promotion, versioning, content addressing."""

import json
import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.adc.thermometer import WORD_BITS
from repro.core.datasheet import generate_datasheet
from repro.core.design import DesignSpec
from repro.core.unary_tree import UnaryDecisionTree
from repro.datasets.synthetic import make_classification_blobs
from repro.mltrees.evaluation import train_test_split
from repro.mltrees.quantize import quantize_dataset
from repro.pdk.egfet import default_technology
from repro.serve.registry import (
    ModelRegistry,
    artifact_digest,
    default_registry_dir,
    promote_design,
)


#: A ``ModelArtifact`` of ``design_points[2]`` promoted as ``blobs-legacy``
#: and pickled while trees were still linked ``TreeNode`` records.
LEGACY_ARTIFACT = Path(__file__).parent / "fixtures" / "legacy_artifact_schema2.pkl"

#: ``artifact_digest`` of ``design_points[2]`` (seed 0, 4 bits, default
#: technology), recorded before trees were stored as node arrays.  A change
#: here re-versions every promoted model.
PINNED_DIGEST = "16b57ba92f55149378d5025727fdecfea882bd63018d53dbca6a18177c10f976"


@pytest.fixture(scope="module")
def design_points():
    """Two small trained design points with different content (depth 2 vs 3)."""
    X, y = make_classification_blobs(
        n_samples=200, n_features=4, n_classes=3, class_sep=2.0, seed=5
    )
    X_train, X_test, y_train, y_test = train_test_split(X, y, test_size=0.3, seed=0)
    split = (
        quantize_dataset(X_train, 4),
        y_train,
        quantize_dataset(X_test, 4),
        y_test,
    )
    return {
        depth: DesignSpec("blobs", 0, depth, 0.0).evaluate_levels(*split, 3)
        for depth in (2, 3)
    }


@pytest.fixture
def registry(tmp_path):
    return ModelRegistry(tmp_path / "registry")


class TestPromotion:
    def test_promote_load_roundtrip(self, registry, design_points):
        point = design_points[2]
        artifact = registry.promote(point, "blobs-posture")
        assert artifact.name == "blobs-posture"
        assert artifact.version == 1
        assert artifact.dataset == "blobs"
        assert artifact.depth == 2
        assert artifact.accuracy == point.accuracy

        loaded = registry.load("blobs-posture")
        assert loaded.digest == artifact.digest
        assert loaded.version == 1
        # The served function survives the pickle roundtrip bit-identically.
        assert loaded.tree == point.tree

    def test_promote_is_idempotent_on_content(self, registry, design_points):
        first = registry.promote(design_points[2], "m")
        again = registry.promote(design_points[2], "m")
        assert (again.version, again.digest) == (first.version, first.digest)
        assert registry.versions("m") == [1]

    def test_new_content_allocates_next_version(self, registry, design_points):
        v1 = registry.promote(design_points[2], "m")
        v2 = registry.promote(design_points[3], "m")
        assert (v1.version, v2.version) == (1, 2)
        assert v1.digest != v2.digest
        assert registry.versions("m") == [1, 2]
        # Default load resolves to the latest version ...
        assert registry.load("m").version == 2
        # ... while pinned loads still reach the old artifact.
        assert registry.load("m", 1).digest == v1.digest

    def test_same_content_under_two_names(self, registry, design_points):
        a = registry.promote(design_points[2], "name-a")
        b = registry.promote(design_points[2], "name-b")
        assert a.digest == b.digest
        assert sorted(registry.list_models()) == ["name-a", "name-b"]

    @pytest.mark.parametrize(
        "bad_name", ["", "UPPER", "-leading-dash", ".hidden", "with space", "a" * 65]
    )
    def test_invalid_names_rejected(self, registry, design_points, bad_name):
        with pytest.raises(ValueError, match="invalid model name"):
            registry.promote(design_points[2], bad_name)


class TestDigest:
    def test_digest_is_deterministic(self, design_points):
        technology = default_technology()
        kwargs = dict(seed=0, resolution_bits=4, technology=technology)
        assert artifact_digest(design_points[2], **kwargs) == artifact_digest(
            design_points[2], **kwargs
        )

    def test_digest_separates_content(self, design_points):
        technology = default_technology()
        kwargs = dict(seed=0, resolution_bits=4, technology=technology)
        d2 = artifact_digest(design_points[2], **kwargs)
        d3 = artifact_digest(design_points[3], **kwargs)
        assert d2 != d3

    def test_digest_is_pinned(self, design_points):
        digest = artifact_digest(
            design_points[2], seed=0, resolution_bits=4, technology=default_technology()
        )
        assert digest == PINNED_DIGEST

    def test_digest_sensitive_to_training_knobs(self, design_points):
        technology = default_technology()
        base = artifact_digest(
            design_points[2], seed=0, resolution_bits=4, technology=technology
        )
        shifted = artifact_digest(
            design_points[2],
            seed=0,
            resolution_bits=4,
            technology=technology,
            training_sigma=0.04,
        )
        assert base != shifted


class TestManifest:
    def test_manifest_fields_and_kernel_meta(self, registry, design_points):
        point = design_points[3]
        artifact = registry.promote(point, "blobs-d3")
        manifest = registry.manifest("blobs-d3")
        assert manifest["name"] == "blobs-d3"
        assert manifest["version"] == 1
        assert manifest["digest"] == artifact.digest
        assert manifest["accuracy"] == point.accuracy

        kernel = UnaryDecisionTree(point.tree).kernel
        assert manifest["kernel_meta"] == {
            "n_digits": kernel.n_digits,
            "n_cubes": kernel.n_cubes,
            "n_literals": kernel.n_literals,
            "n_classes": kernel.n_classes,
            "word_bits": WORD_BITS,
        }

    def test_manifest_is_light_json_on_disk(self, registry, design_points):
        artifact = registry.promote(design_points[2], "m")
        path = registry.manifest_path("m", 1)
        on_disk = json.loads(path.read_text())
        assert on_disk["digest"] == artifact.digest
        assert "tree" not in on_disk  # the heavy payload stays in the pickle
        # Small enough to grep through thousands of manifests.
        assert path.stat().st_size < 4096

    def test_artifact_bundles_serving_extras(self, registry, design_points):
        artifact = registry.promote(design_points[2], "m")
        # Bespoke ADC config: per-feature retained comparator levels.
        for feature, levels in artifact.adc_config.items():
            assert isinstance(feature, int)
            assert all(0 <= level <= 16 for level in levels)
        assert artifact.datasheet  # rendered, human-readable
        assert artifact.kernel_meta["n_classes"] == 3

    def test_promote_minimizes_each_label_once(
        self, registry, design_points, count_minimizations
    ):
        # The ADC config, the kernel metrics and the datasheet share one
        # unary translation.
        point = pickle.loads(pickle.dumps(design_points[3]))  # a never-compiled tree
        artifact = registry.promote(point, "blobs-once")
        assert len(count_minimizations) == point.tree.n_classes
        assert artifact.datasheet == generate_datasheet(
            point.tree,
            name="blobs-once (blobs, depth=3, tau=0)",
            technology=default_technology(),
        )


class TestLegacyArtifacts:
    @pytest.fixture
    def legacy_registry(self, registry):
        """A registry holding the legacy artifact as ``blobs-legacy`` v1."""
        artifact = pickle.loads(LEGACY_ARTIFACT.read_bytes())
        model = registry.model_path(artifact.digest)
        manifest = registry.manifest_path(artifact.name, artifact.version)
        for path in (model, manifest):
            path.parent.mkdir(parents=True, exist_ok=True)
        model.write_bytes(LEGACY_ARTIFACT.read_bytes())
        manifest.write_text(json.dumps(artifact.manifest()), encoding="utf-8")
        return registry

    def test_loads_and_scores_identically(self, legacy_registry, design_points):
        point = design_points[2]
        loaded = legacy_registry.load("blobs-legacy")
        assert loaded.digest == PINNED_DIGEST
        assert loaded.tree == point.tree
        levels = np.random.default_rng(0).integers(0, 16, size=(200, point.tree.n_features))
        expected = point.tree.predict_levels(levels)
        np.testing.assert_array_equal(loaded.tree.predict_levels(levels), expected)
        np.testing.assert_array_equal(
            UnaryDecisionTree(loaded.tree).kernel.predict_levels(levels), expected
        )

    def test_repromote_returns_the_legacy_version(self, legacy_registry, design_points):
        again = legacy_registry.promote(design_points[2], "blobs-legacy")
        assert (again.version, again.digest) == (1, PINNED_DIGEST)
        assert legacy_registry.versions("blobs-legacy") == [1]


class TestLookupErrors:
    def test_unknown_name_raises_keyerror(self, registry):
        with pytest.raises(KeyError, match="ghost"):
            registry.load("ghost")
        with pytest.raises(KeyError):
            registry.manifest("ghost")
        assert registry.versions("ghost") == []
        assert registry.list_models() == []

    def test_unknown_version_raises_keyerror(self, registry, design_points):
        registry.promote(design_points[2], "m")
        with pytest.raises(KeyError, match="version"):
            registry.load("m", 7)

    def test_registry_dir_must_be_a_directory(self, tmp_path):
        clash = tmp_path / "not-a-dir"
        clash.write_text("occupied")
        with pytest.raises(ValueError, match="not a directory"):
            ModelRegistry(clash)

    def test_default_registry_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_REGISTRY_DIR", str(tmp_path / "custom"))
        assert default_registry_dir() == tmp_path / "custom"


class TestPromoteDesign:
    def test_trains_promotes_and_never_writes_the_cache(self, tmp_path):
        """The suite-cache lookup is read-only: a promote against an empty
        cache directory trains the point and leaves the cache empty."""
        cache_dir = tmp_path / "cache"
        registry = ModelRegistry(tmp_path / "registry")
        artifact = promote_design(
            registry, "vertebral_2c", 2, 0.0, cache_dir=cache_dir
        )
        assert artifact.name == "vertebral_2c-d2"
        assert artifact.depth == 2
        assert 0.0 <= artifact.accuracy <= 1.0
        cache_files = [p for p in cache_dir.rglob("*") if p.is_file()]
        assert cache_files == []

    def test_cold_promote_translates_the_tree_once(self, tmp_path, count_minimizations):
        """The translation that costs the trained point also serves the
        artifact: its ADC config, kernel metrics and datasheet."""
        artifact = promote_design(
            ModelRegistry(tmp_path / "registry"), "cardio", 3, 0.0,
            cache_dir=tmp_path / "cache",
        )
        assert artifact.tree.n_classes == 3
        assert len(count_minimizations) == artifact.tree.n_classes

    def test_repromote_is_idempotent(self, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        kwargs = dict(cache_dir=tmp_path / "cache")
        first = promote_design(registry, "vertebral_2c", 2, 0.0, **kwargs)
        again = promote_design(registry, "vertebral_2c", 2, 0.0, **kwargs)
        assert (again.version, again.digest) == (first.version, first.digest)

    def test_warm_store_hit_matches_the_cold_promote(self, tmp_path):
        """A promote served from a suite's design-point entry promotes the
        very tree (and digest) a cold promote trains."""
        from repro.analysis.experiments import run_benchmark_suite
        from repro.core.store import ResultStore

        cold = promote_design(
            ModelRegistry(tmp_path / "cold"), "vertebral_2c", 3, 0.01,
            cache_dir=tmp_path / "empty",
        )
        store = ResultStore(tmp_path / "warm-cache")
        run_benchmark_suite(
            datasets=("vertebral_2c",), include_approximate_baseline=False,
            depths=(3,), taus=(0.01,), store=store,
        )
        before = sorted(p.name for p in store.cache_dir.iterdir())
        warm = promote_design(
            ModelRegistry(tmp_path / "warm"), "vertebral_2c", 3, 0.01,
            cache_dir=store.cache_dir,
        )
        assert warm.digest == cold.digest
        assert warm.tree == cold.tree
        assert sorted(p.name for p in store.cache_dir.iterdir()) == before

    def test_warm_store_never_serves_another_resolution(self, tmp_path):
        """Regression: a warm suite cache used to hand a 6-bit promote the
        suite's 4-bit tree under a manifest saying 6 bits."""
        from repro.analysis.experiments import run_benchmark_suite
        from repro.core.store import ResultStore

        cold = promote_design(
            ModelRegistry(tmp_path / "cold"), "vertebral_2c", 3, 0.01,
            resolution_bits=6, cache_dir=tmp_path / "empty",
        )
        store = ResultStore(tmp_path / "warm-cache")
        # The full paper grid with Table II's variant: the suite entry the
        # old lookup read.
        run_benchmark_suite(
            datasets=("vertebral_2c",), include_approximate_baseline=True,
            store=store,
        )
        warm = promote_design(
            ModelRegistry(tmp_path / "warm"), "vertebral_2c", 3, 0.01,
            resolution_bits=6, cache_dir=store.cache_dir,
        )
        assert warm.resolution_bits == 6
        assert warm.tree.resolution_bits == 6
        assert warm.digest == cold.digest
        assert warm.tree == cold.tree
