"""Run-manifest determinism, serialization, and workload description."""

import json

import numpy as np
import pytest

from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    RunManifest,
    describe_workload,
    git_sha,
)
from repro.workload.models import ThetaModel


def _manifest(seed=7, sha="abc123"):
    return RunManifest.create(
        kind="test",
        seed=seed,
        config={"nodes": 64, "policy": "fcfs-easy"},
        workload=describe_workload(ThetaModel.scaled(64)),
        summary={"avg_wait": 12.5},
        sha=sha,
    )


class TestDeterminism:
    def test_same_inputs_identical_minus_timestamp(self):
        a, b = _manifest(), _manifest()
        da, db = a.as_dict(), b.as_dict()
        da.pop("created_unix")
        db.pop("created_unix")
        assert da == db

    def test_stable_digest_ignores_timestamp(self):
        assert _manifest().stable_digest() == _manifest().stable_digest()

    def test_digest_sensitive_to_inputs(self):
        assert _manifest(seed=7).stable_digest() != _manifest(seed=8).stable_digest()

    def test_no_timestamp_mode_fully_deterministic(self):
        a = RunManifest.create("test", seed=1, timestamp=False, sha="x")
        b = RunManifest.create("test", seed=1, timestamp=False, sha="x")
        assert a == b
        assert a.created_unix is None


class TestSerialization:
    def test_write_read_round_trip(self, tmp_path):
        manifest = _manifest()
        path = manifest.write(tmp_path / "m.json")
        loaded = RunManifest.read(path)
        assert loaded == manifest
        assert loaded.stable_digest() == manifest.stable_digest()

    def test_schema_stamped_and_checked(self, tmp_path):
        path = _manifest().write(tmp_path / "m.json")
        doc = json.loads(path.read_text())
        assert doc["schema"] == MANIFEST_SCHEMA
        doc["schema"] = "something/else"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="unknown manifest schema"):
            RunManifest.read(path)

    def test_numpy_values_coerced(self):
        manifest = RunManifest.create(
            "test", summary={"x": np.float64(1.5), "n": np.int64(3)}, sha="x"
        )
        assert manifest.summary == {"x": 1.5, "n": 3}
        json.dumps(manifest.as_dict())  # must not raise


class TestHelpers:
    def test_describe_workload_extracts_params(self):
        model = ThetaModel.scaled(64)
        desc = describe_workload(model)
        assert desc["name"] == model.name
        assert desc["num_nodes"] == 64
        assert "offered_load" in desc and desc["offered_load"] > 0

    def test_describe_workload_tolerates_foreign_objects(self):
        assert describe_workload(object()) == {}

    def test_git_sha_in_repo(self):
        sha = git_sha()
        assert sha == "unknown" or len(sha) == 12

    def test_git_sha_outside_repo(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert git_sha() == "unknown"
