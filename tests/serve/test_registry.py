"""Tests for the model registry: promotion, versioning, content addressing."""

import asyncio
import json
import pickle
from pathlib import Path

import pytest

from oracles.tree_state import MALFORMED_CASES, pickle_malformed
from repro.adc.thermometer import WORD_BITS
from repro.core.datasheet import generate_datasheet
from repro.core.design import DesignSpec
from repro.core.store import ResultStore
from repro.core.unary_tree import UnaryDecisionTree
from repro.datasets.registry import load_dataset
from repro.mltrees.quantize import quantize_dataset
from repro.pdk.egfet import default_technology
from repro.serve.registry import (
    ModelRegistry,
    RegistryInputError,
    RegistryLookupError,
    artifact_digest,
    default_registry_dir,
    promote_design,
)
from repro.serve.scorer import AsyncScorer


#: A ``ModelArtifact`` pickled while trees were still linked ``TreeNode``
#: records (registry schema 2).  This code cannot read it.
LEGACY_ARTIFACT = Path(__file__).parent / "fixtures" / "legacy_artifact_schema2.pkl"

#: ``artifact_digest`` of ``DesignSpec("seeds", 0, 2, 0.0)`` and its trained
#: tree.  A change here re-versions every promoted model.
PINNED_DIGEST = "bf03b3bcfe44147692808bf6f40c9381be4664fb9a4a9b4a1fd11a3f5b3dc3b7"


def seeds_spec(depth: int, **knobs) -> DesignSpec:
    return DesignSpec("seeds", 0, depth, 0.0, **knobs)


@pytest.fixture(scope="module")
def design_points():
    """Two small trained design points with different content (depth 2 vs 3)."""
    return {depth: seeds_spec(depth).evaluate() for depth in (2, 3)}


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory, design_points):
    """A result store holding both design points, so promotions hit it."""
    store = ResultStore(tmp_path_factory.mktemp("cache"))
    for depth, point in design_points.items():
        store.put(seeds_spec(depth).key(), point)
    return store.cache_dir


@pytest.fixture
def registry(tmp_path):
    return ModelRegistry(tmp_path / "registry")


@pytest.fixture
def promote(registry, cache_dir):
    """Promote the seeds point of ``depth`` under ``name`` from the store."""

    def promote(depth, name, **kwargs):
        return promote_design(
            registry, "seeds", depth, 0.0, name=name, cache_dir=cache_dir, **kwargs
        )

    return promote


class TestPromotion:
    def test_promote_load_roundtrip(self, registry, promote, design_points):
        point = design_points[2]
        artifact = promote(2, "seeds-posture")
        assert artifact.name == "seeds-posture"
        assert artifact.version == 1
        assert artifact.dataset == "seeds"
        assert artifact.depth == 2
        assert artifact.accuracy == point.accuracy

        loaded = registry.load("seeds-posture")
        assert loaded.digest == artifact.digest
        assert loaded.version == 1
        # The served function survives the pickle roundtrip bit-identically.
        assert loaded.tree == point.tree

    def test_promote_is_idempotent_on_content(self, registry, promote):
        first = promote(2, "m")
        again = promote(2, "m")
        assert (again.version, again.digest) == (first.version, first.digest)
        assert registry.versions("m") == [1]

    def test_new_content_allocates_next_version(self, registry, promote):
        v1 = promote(2, "m")
        v2 = promote(3, "m")
        assert (v1.version, v2.version) == (1, 2)
        assert v1.digest != v2.digest
        assert registry.versions("m") == [1, 2]
        # Default load resolves to the latest version ...
        assert registry.load("m").version == 2
        # ... while pinned loads still reach the old artifact.
        assert registry.load("m", 1).digest == v1.digest

    def test_same_content_under_two_names(self, registry, promote):
        a = promote(2, "name-a")
        b = promote(2, "name-b")
        assert a.digest == b.digest
        assert sorted(registry.list_models()) == ["name-a", "name-b"]

    def test_each_name_loads_its_own_artifact(self, registry, promote):
        """Equal content under two names is two model files, not one overwritten."""
        promote(2, "name-a")
        promote(3, "name-a")
        promote(2, "name-b")
        for name, version in (("name-a", 2), ("name-b", 1)):
            loaded = registry.load(name)
            assert (loaded.name, loaded.version) == (name, version)
            assert f"{name} (seeds, depth={loaded.depth}, tau=0)" in loaded.datasheet
        first = registry.load("name-a", 1)
        assert (first.name, first.version, first.depth) == ("name-a", 1, 2)
        assert "name-a (seeds, depth=2, tau=0)" in first.datasheet
        assert registry.model_path("name-a", first.digest) != registry.model_path(
            "name-b", first.digest
        )

    def test_an_old_layout_model_file_is_rewritten_on_re_promote(self, registry, promote):
        """A model file at ``models/<digest>.pkl`` is missing to this code.

        Re-promoting writes it under ``models/<name>/`` at the same version.
        """
        first = promote(2, "m")
        new_path = registry.model_path("m", first.digest)
        new_path.rename(registry.models_dir / f"{first.digest}.pkl")
        with pytest.raises(KeyError, match="missing artifact"):
            registry.load("m")
        again = promote(2, "m")
        assert (again.version, again.digest) == (first.version, first.digest)
        assert registry.versions("m") == [1]
        assert registry.load("m").tree == first.tree

    @pytest.mark.parametrize(
        "bad_name", ["", "UPPER", "-leading-dash", ".hidden", "with space", "a" * 65]
    )
    def test_invalid_names_rejected(self, registry, promote, bad_name):
        with pytest.raises(ValueError, match="invalid model name"):
            promote(2, bad_name)
        assert registry.list_models() == []


class TestDigest:
    def test_digest_is_deterministic(self, design_points):
        tree = design_points[2].tree
        assert artifact_digest(seeds_spec(2), tree) == artifact_digest(seeds_spec(2), tree)

    def test_digest_separates_content(self, design_points):
        d2 = artifact_digest(seeds_spec(2), design_points[2].tree)
        d3 = artifact_digest(seeds_spec(3), design_points[3].tree)
        assert d2 != d3

    def test_digest_is_pinned(self, design_points):
        assert artifact_digest(seeds_spec(2), design_points[2].tree) == PINNED_DIGEST

    def test_digest_sensitive_to_training_knobs(self, design_points):
        tree = design_points[2].tree
        base = artifact_digest(seeds_spec(2), tree)
        shifted = artifact_digest(seeds_spec(2, training_sigma=0.04), tree)
        assert base != shifted

    def test_digest_sensitive_to_the_tree(self, design_points):
        tree = design_points[2].tree
        moved = tree.with_thresholds(tree.threshold + 1)
        assert artifact_digest(seeds_spec(2), tree) != artifact_digest(seeds_spec(2), moved)


class TestServedLabel:
    """An artifact's configuration, tree and served labels come from one spec."""

    def test_three_bit_promotion_agrees_everywhere(self, registry, tmp_path):
        artifact = promote_design(
            registry, "seeds", 4, 0.0, resolution_bits=3, seed=1,
            cache_dir=tmp_path / "cache",
        )
        manifest = registry.manifest(artifact.name)
        assert artifact.resolution_bits == manifest["resolution_bits"] == 3
        assert artifact.tree.resolution_bits == 3
        assert artifact.seed == manifest["seed"] == 1

        rows = load_dataset("seeds", seed=1).X
        expected = artifact.tree.predict_levels(quantize_dataset(rows, 3))

        async def scenario():
            async with AsyncScorer(registry.load(artifact.name)) as scorer:
                return await asyncio.gather(*(scorer.score(row) for row in rows))

        assert asyncio.run(scenario()) == expected.tolist()

    def test_store_hit_and_cold_promotion_share_the_digest(self, tmp_path):
        spec = DesignSpec("seeds", 1, 4, 0.0, 3)
        store = ResultStore(tmp_path / "warm")
        store.put(spec.key(), spec.evaluate())
        kwargs = dict(seed=1, resolution_bits=3)
        cold = promote_design(
            ModelRegistry(tmp_path / "cold-reg"), "seeds", 4, 0.0,
            cache_dir=tmp_path / "empty", **kwargs,
        )
        warm = promote_design(
            ModelRegistry(tmp_path / "warm-reg"), "seeds", 4, 0.0,
            cache_dir=store.cache_dir, **kwargs,
        )
        assert warm.digest == cold.digest == artifact_digest(spec, cold.tree)
        assert warm.tree == cold.tree


class TestManifest:
    def test_manifest_fields_and_kernel_meta(self, registry, promote, design_points):
        point = design_points[3]
        artifact = promote(3, "seeds-d3")
        manifest = registry.manifest("seeds-d3")
        assert manifest["name"] == "seeds-d3"
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

    def test_manifest_is_light_json_on_disk(self, registry, promote):
        artifact = promote(2, "m")
        path = registry.manifest_path("m", 1)
        on_disk = json.loads(path.read_text())
        assert on_disk["digest"] == artifact.digest
        assert "tree" not in on_disk  # the heavy payload stays in the pickle
        # Small enough to grep through thousands of manifests.
        assert path.stat().st_size < 4096

    def test_artifact_bundles_serving_extras(self, promote):
        artifact = promote(2, "m")
        # Bespoke ADC config: per-feature retained comparator levels.
        for feature, levels in artifact.adc_config.items():
            assert isinstance(feature, int)
            assert all(0 <= level <= 16 for level in levels)
        assert artifact.datasheet  # rendered, human-readable
        assert artifact.kernel_meta["n_classes"] == 3

    def test_promote_minimizes_each_label_once(self, promote, count_minimizations):
        # A store hit unpickles a never-compiled tree; the ADC config, the
        # kernel metrics and the datasheet share its one unary translation.
        artifact = promote(3, "seeds-once")
        assert len(count_minimizations) == artifact.tree.n_classes
        assert artifact.datasheet == generate_datasheet(
            artifact.tree,
            name="seeds-once (seeds, depth=3, tau=0)",
            technology=default_technology(),
        )


class TestUnreadableArtifacts:
    """A model file the registry cannot load fails with a named ``KeyError``."""

    def _plant(self, registry, payload: bytes):
        """``payload`` as the model file of ``planted`` v1."""
        digest = "f" * 64
        model = registry.model_path("planted", digest)
        manifest = registry.manifest_path("planted", 1)
        for path in (model, manifest):
            path.parent.mkdir(parents=True, exist_ok=True)
        model.write_bytes(payload)
        manifest.write_text(
            json.dumps({"name": "planted", "version": 1, "digest": digest}),
            encoding="utf-8",
        )
        return model

    @pytest.mark.parametrize(
        "payload",
        [
            pytest.param(LEGACY_ARTIFACT.read_bytes(), id="schema2-linked-tree"),
            pytest.param(LEGACY_ARTIFACT.read_bytes()[:200], id="truncated"),
            pytest.param(b"", id="empty"),
            pytest.param(b"not a pickle", id="garbage"),
            pytest.param(pickle.dumps({"name": "planted"}), id="foreign-pickle"),
        ],
    )
    def test_load_names_the_file_and_says_re_promote(self, registry, payload):
        model = self._plant(registry, payload)
        with pytest.raises(KeyError, match="re-promote") as raised:
            registry.load("planted")
        assert model.name in raised.value.args[0]
        assert "planted/v1" in raised.value.args[0]

    @pytest.mark.parametrize("case", MALFORMED_CASES)
    def test_a_malformed_tree_names_the_file(self, registry, promote, case):
        artifact = promote(2, "m")
        model = registry.model_path("m", artifact.digest)
        model.write_bytes(pickle_malformed(artifact, case))
        with pytest.raises(KeyError, match="re-promote") as raised:
            registry.load("m")
        assert model.name in raised.value.args[0]
        assert "m/v1" in raised.value.args[0]

    def test_re_promoting_rewrites_an_unreadable_model_file(self, registry, promote):
        first = promote(2, "m")
        model = registry.model_path("m", first.digest)
        model.write_bytes(model.read_bytes()[:100])
        with pytest.raises(KeyError, match="re-promote"):
            registry.load("m")
        again = promote(2, "m")
        assert (again.version, again.digest) == (first.version, first.digest)
        assert registry.versions("m") == [1]
        assert registry.load("m").tree == first.tree


class TestLookupErrors:
    def test_unknown_name_raises_keyerror(self, registry):
        with pytest.raises(KeyError, match="ghost"):
            registry.load("ghost")
        with pytest.raises(KeyError):
            registry.manifest("ghost")
        assert registry.versions("ghost") == []
        assert registry.list_models() == []

    def test_unknown_version_raises_keyerror(self, registry, promote):
        promote(2, "m")
        with pytest.raises(KeyError, match="version"):
            registry.load("m", 7)

    def test_a_lookup_error_prints_its_message(self, registry):
        with pytest.raises(RegistryLookupError) as raised:
            registry.manifest("ghost")
        assert str(raised.value) == f"no model named 'ghost' in {registry.registry_dir}"

    @pytest.mark.parametrize("lookup", ["versions", "manifest", "load"])
    def test_a_path_is_not_a_model_name(self, registry, promote, lookup):
        """``manifests/../m`` would resolve outside ``manifests/``: refuse it."""
        promote(2, "m")
        with pytest.raises(RegistryInputError, match="invalid model name '../m'"):
            getattr(registry, lookup)("../m")

    def test_list_skips_a_directory_that_is_not_a_model_name(self, registry, promote):
        promote(2, "m")
        stray = registry.manifests_dir / "Not A Name"
        stray.mkdir()
        (stray / "v1.json").write_text("{}")
        assert registry.list_models() == ["m"]

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
