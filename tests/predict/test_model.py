"""Model artifact: deterministic fit, CRC guard, mismatch refusals."""

import json
import os
from dataclasses import replace

import numpy as np
import pytest

from repro.predict.errors import PredictError
from repro.predict.features import FEATURE_NAMES
from repro.predict.model import MODEL_SCHEMA_VERSION, Model, fit

GEOMETRY = {"n_nodes": 64, "nodes_per_rack": 18, "n_slots": 16}


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(3)
    n = 400
    X = rng.poisson(2.0, size=(n, len(FEATURE_NAMES))).astype(float)
    logits = 0.8 * X[:, 2] - 3.0
    y = rng.random(n) < 1.0 / (1.0 + np.exp(-logits))
    y[:2] = (True, False)
    return X, y, fit(X, y, geometry=GEOMETRY, window_s=3600.0)


class TestFit:
    def test_fit_is_deterministic(self, fitted):
        X, y, model = fitted
        again = fit(X, y, geometry=GEOMETRY, window_s=3600.0)
        assert again._canonical() == model._canonical()
        assert again.model_id == model.model_id

    def test_calibration_is_monotone(self, fitted):
        _, _, model = fitted
        assert np.all(np.diff(model.cal_x) > 0)
        assert np.all(np.diff(model.cal_y) >= 0)

    def test_scores_are_probabilities(self, fitted):
        X, _, model = fitted
        s = model.score(X)
        assert np.all((s >= 0.0) & (s <= 1.0))

    def test_single_class_refused(self):
        X = np.zeros((10, len(FEATURE_NAMES)))
        with pytest.raises(PredictError, match="single-class"):
            fit(X, np.ones(10, dtype=bool), geometry=GEOMETRY,
                window_s=3600.0)

    def test_wrong_width_refused_at_scoring(self, fitted):
        _, _, model = fitted
        with pytest.raises(PredictError, match="feature width"):
            model.score(np.zeros((5, 3)))


class TestArtifact:
    def test_save_load_round_trip(self, fitted, tmp_path):
        X, _, model = fitted
        path = tmp_path / "model.json"
        saved_id = model.save(path)
        back = Model.load(path)
        assert back.model_id == saved_id == model.model_id
        assert back.score(X).tobytes() == model.score(X).tobytes()
        assert back.threshold == model.threshold
        assert back.geometry == model.geometry

    def test_save_leaves_no_tmp_file(self, fitted, tmp_path):
        _, _, model = fitted
        model.save(tmp_path / "model.json")
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    def test_save_is_fsync_ordered(self, fitted, tmp_path, monkeypatch):
        # Data fsync before the rename, directory fsync after it.
        import repro.predict.model as model_mod

        calls = []

        def record(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            return wrapper

        monkeypatch.setattr(os, "fsync", record("fsync", os.fsync))
        monkeypatch.setattr(os, "replace", record("replace", os.replace))
        monkeypatch.setattr(
            model_mod, "fsync_dir", record("fsync_dir", model_mod.fsync_dir)
        )
        _, _, model = fitted
        model.save(tmp_path / "model.json")
        assert calls[:3] == ["fsync", "replace", "fsync_dir"]
        assert calls.count("replace") == 1

    def test_tampered_value_refused(self, fitted, tmp_path):
        _, _, model = fitted
        path = tmp_path / "model.json"
        model.save(path)
        doc = json.loads(path.read_text())
        doc["threshold"] = doc["threshold"] / 2.0
        path.write_text(json.dumps(doc))
        with pytest.raises(PredictError, match="integrity"):
            Model.load(path)

    def test_truncated_file_refused(self, fitted, tmp_path):
        _, _, model = fitted
        path = tmp_path / "model.json"
        model.save(path)
        path.write_text(path.read_text()[:-30])
        with pytest.raises(PredictError, match="cannot read"):
            Model.load(path)

    def test_missing_file_has_hint(self, tmp_path):
        with pytest.raises(PredictError, match="hint"):
            Model.load(tmp_path / "nope.json")

    def test_foreign_artifact_kind_refused(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"kind": "rollup-snapshot"}))
        with pytest.raises(PredictError) as exc:
            Model.load(path)
        msg = str(exc.value)
        assert "found" in msg and "expected" in msg and "predict-model" in msg

    def test_wrong_model_schema_refused(self, fitted, tmp_path):
        _, _, model = fitted
        path = tmp_path / "model.json"
        model.save(path)
        doc = json.loads(path.read_text())
        doc["schema"] = MODEL_SCHEMA_VERSION + 1
        path.write_text(json.dumps(doc))
        with pytest.raises(PredictError, match="model schema version"):
            Model.load(path)

    def test_foreign_feature_schema_refused(self, fitted, tmp_path):
        """Satellite contract: mismatched feature-schema version is a
        found/expected + recovery-hint error."""
        _, _, model = fitted
        stale = replace(model, feature_schema_version=99)
        path = tmp_path / "model.json"
        stale.save(path)
        with pytest.raises(PredictError) as exc:
            Model.load(path)
        msg = str(exc.value)
        assert "found 99" in msg
        assert "expected 1" in msg
        assert "hint" in msg and "retrain" in msg

    def test_foreign_feature_names_refused(self, fitted, tmp_path):
        _, _, model = fitted
        path = tmp_path / "model.json"
        model.save(path)
        doc = json.loads(path.read_text())
        # The canonical payload (and so the CRC) is rebuilt from the
        # loader's own FEATURE_NAMES, so tampering only the declared
        # names slips past the integrity check and must be caught by
        # the layout comparison itself.
        doc["feature_names"][0] = "something_else"
        path.write_text(json.dumps(doc))
        with pytest.raises(PredictError, match="feature names"):
            Model.load(path)


class TestGeometryGuard:
    def test_foreign_fleet_geometry_refused(self, fitted):
        _, _, model = fitted
        with pytest.raises(PredictError) as exc:
            model.check_nodes([GEOMETRY["n_nodes"] + 7])
        msg = str(exc.value)
        assert "fleet geometry" in msg
        assert f"node id {GEOMETRY['n_nodes'] + 7}" in msg
        assert "hint" in msg

    def test_in_fleet_nodes_pass(self, fitted):
        _, _, model = fitted
        model.check_nodes([0, GEOMETRY["n_nodes"] - 1])
        model.check_nodes([])
