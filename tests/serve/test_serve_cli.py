"""Golden tests for the ``registry`` and ``serve smoke`` CLI commands."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.serve.registry import ModelRegistry

DATASET = "vertebral_2c"  # smallest real benchmark: fast to train shallow

#: A registry artifact of linked ``TreeNode`` trees, which this code cannot read.
LEGACY_ARTIFACT = Path(__file__).parent / "fixtures" / "legacy_artifact_schema2.pkl"


@pytest.fixture
def registry_dir(tmp_path):
    return str(tmp_path / "registry")


@pytest.fixture
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


def promote(registry_dir, cache_dir, *extra):
    return main(
        [
            "registry",
            "promote",
            "--dataset",
            DATASET,
            "--depth",
            "2",
            "--registry-dir",
            registry_dir,
            "--cache-dir",
            cache_dir,
            *extra,
        ]
    )


class TestRegistryCli:
    def test_promote_then_list_then_show(
        self, registry_dir, cache_dir, capsys
    ):
        assert promote(registry_dir, cache_dir) == 0
        out = capsys.readouterr().out
        assert f"promoted {DATASET}-d2/v1" in out
        assert "kernel" in out and "cubes" in out

        assert main(["registry", "list", "--registry-dir", registry_dir]) == 0
        assert f"{DATASET}-d2/v1" in capsys.readouterr().out

        assert (
            main(["registry", "show", f"{DATASET}-d2", "--registry-dir", registry_dir])
            == 0
        )
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["name"] == f"{DATASET}-d2"
        assert manifest["version"] == 1
        assert manifest["depth"] == 2
        assert len(manifest["digest"]) == 64

    def test_promote_is_idempotent_across_invocations(
        self, registry_dir, cache_dir, capsys
    ):
        assert promote(registry_dir, cache_dir) == 0
        first = capsys.readouterr().out
        assert promote(registry_dir, cache_dir) == 0
        assert capsys.readouterr().out == first  # same version, same digest

    def test_custom_name(self, registry_dir, cache_dir, capsys):
        assert promote(registry_dir, cache_dir, "--name", "posture-prod") == 0
        assert "promoted posture-prod/v1" in capsys.readouterr().out

    def test_list_json(self, registry_dir, cache_dir, capsys):
        promote(registry_dir, cache_dir)
        capsys.readouterr()
        assert main(["registry", "list", "--json", "--registry-dir", registry_dir]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert [e["name"] for e in entries] == [f"{DATASET}-d2"]

    def test_list_empty_registry(self, registry_dir, capsys):
        assert main(["registry", "list", "--registry-dir", registry_dir]) == 0
        assert "no models" in capsys.readouterr().out

    def test_show_datasheet(self, registry_dir, cache_dir, capsys):
        promote(registry_dir, cache_dir)
        capsys.readouterr()
        assert (
            main(
                [
                    "registry",
                    "show",
                    f"{DATASET}-d2",
                    "--datasheet",
                    "--registry-dir",
                    registry_dir,
                ]
            )
            == 0
        )
        assert DATASET in capsys.readouterr().out

    def test_show_unknown_model_exits_2(self, registry_dir, capsys):
        assert (
            main(["registry", "show", "ghost", "--registry-dir", registry_dir]) == 2
        )
        assert "ghost" in capsys.readouterr().err

    def test_show_datasheet_of_a_schema2_artifact_exits_2(
        self, registry_dir, cache_dir, capsys
    ):
        """A model file this code cannot read is a usage error, not a traceback."""
        promote(registry_dir, cache_dir)
        registry = ModelRegistry(registry_dir)
        model = registry.model_path(registry.manifest(f"{DATASET}-d2")["digest"])
        model.write_bytes(LEGACY_ARTIFACT.read_bytes())
        capsys.readouterr()
        argv = ["registry", "show", f"{DATASET}-d2", "--datasheet", "--registry-dir", registry_dir]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("registry show: ")
        assert model.name in err and "re-promote" in err


class TestServeSmokeCli:
    def smoke(self, registry_dir, cache_dir, *extra):
        return main(
            [
                "serve",
                "smoke",
                "--dataset",
                DATASET,
                "--depth",
                "2",
                "--rate",
                "400",
                "--duration",
                "0.25",
                "--registry-dir",
                registry_dir,
                "--cache-dir",
                cache_dir,
                *extra,
            ]
        )

    def test_smoke_passes_and_writes_json(
        self, registry_dir, cache_dir, tmp_path, capsys
    ):
        out_json = tmp_path / "smoke.json"
        assert self.smoke(registry_dir, cache_dir, "--json", str(out_json)) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == f"serving {DATASET}-d2/v1:"
        assert "SLO ok" in out
        assert "0 cache writes during serving" in out

        payload = json.loads(out_json.read_text())
        assert payload["model"] == f"{DATASET}-d2/v1"
        assert "engine" not in payload
        assert payload["n_errors"] == 0
        assert payload["cache_writes_during_serving"] == 0
        assert payload["slo_failures"] == []
        assert payload["n_requests"] == 100  # 400 req/s * 0.25 s

    def test_smoke_fails_on_impossible_slo(
        self, registry_dir, cache_dir, tmp_path, capsys
    ):
        out_json = tmp_path / "smoke.json"
        code = self.smoke(
            registry_dir,
            cache_dir,
            "--p99-slo-ms",
            "1e-9",
            "--json",
            str(out_json),
        )
        assert code == 1
        assert "exceeds" in capsys.readouterr().err
        payload = json.loads(out_json.read_text())
        assert payload["slo_failures"]
