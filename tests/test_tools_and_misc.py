"""Tests for auxiliary pieces: the Cyclone V bring-up stage, the
calibration tool, pretrained-bundle error handling, and full-model
codegen."""

import json

import numpy as np
import pytest

from repro.verify import verify_cyclone_bringup


class TestCycloneBringup:
    def test_stage_passes(self):
        result = verify_cyclone_bringup()
        assert result.passed, result

    def test_reports_fit_fraction(self):
        result = verify_cyclone_bringup()
        assert 0.0 < result.details["alm_fraction"] < 1.0
        assert result.details["bit_exact"] is True


class TestCalibrationTool:
    def test_report_runs_and_is_tight(self, capsys, reference_bundle):
        import tools.calibrate as calibrate

        calibrate.main()
        out = capsys.readouterr().out
        assert "Calibration report" in out
        assert "worst relative error" in out
        # every anchor row present
        for anchor in ("ALUT", "registers", "DSP", "latency"):
            assert anchor in out
        worst = float(out.rsplit("worst relative error:", 1)[1]
                      .strip().rstrip("%"))
        assert worst < 50.0  # no anchor drifts past 50 %


class TestPretrainedErrors:
    def test_missing_weights_raise_helpfully(self, monkeypatch, tmp_path):
        import repro.pretrained.bundle as bundle_mod

        monkeypatch.setattr(bundle_mod, "DATA_DIR", tmp_path)
        with pytest.raises(FileNotFoundError, match="pretrain"):
            bundle_mod.load_reference_bundle(train_if_missing=False)

    def test_bundle_available_flag(self, monkeypatch, tmp_path):
        import repro.pretrained.bundle as bundle_mod

        monkeypatch.setattr(bundle_mod, "DATA_DIR", tmp_path)
        assert not bundle_mod.bundle_available()

    def test_train_if_missing_writes_only_the_missing_files(
            self, monkeypatch, tmp_path):
        # Only unet_bn.npz is missing from the shipped data: training it
        # must leave the shipped weights and metadata entries alone (the
        # golden records and pinned integer bits depend on them).
        import shutil

        import repro.pretrained.bundle as bundle_mod
        from repro.nn.training import History
        from repro.nn.zoo import build_unet
        from repro.nn.zoo.unet import UNetConfig

        data = tmp_path / "data"
        shutil.copytree(bundle_mod.DATA_DIR, data)
        assert not (data / "unet_bn.npz").exists()
        shipped = {p.name: p.read_bytes() for p in data.iterdir()}
        meta = json.loads(shipped["metadata.json"])
        monkeypatch.setattr(bundle_mod, "DATA_DIR", data)
        calls = []

        def fake_unet(dataset, batchnorm_standardizer=False, **kwargs):
            calls.append(("unet", batchnorm_standardizer))
            model = build_unet(UNetConfig(
                batchnorm_standardizer=batchnorm_standardizer), seed=1)
            return model, History(loss=[0.5], val_loss=[0.6])

        def fake_mlp(dataset, **kwargs):  # pragma: no cover - must not run
            calls.append(("mlp", False))
            raise AssertionError("the shipped MLP was retrained")

        monkeypatch.setattr(bundle_mod, "train_reference_unet", fake_unet)
        monkeypatch.setattr(bundle_mod, "train_reference_mlp", fake_mlp)
        b = bundle_mod.load_reference_bundle(include_bn=True,
                                             train_if_missing=True)
        assert calls == [("unet", True)]
        for name in ("unet.npz", "mlp.npz"):
            assert (data / name).read_bytes() == shipped[name], name
        assert (data / "unet_bn.npz").exists()
        assert b.unet_bn is not None
        new_meta = json.loads((data / "metadata.json").read_text())
        assert {k: new_meta[k] for k in meta} == meta     # entries kept
        assert new_meta["unet_bn"]["final_loss"] == 0.5
        # a second load trains nothing
        bundle_mod.load_reference_bundle(include_bn=True,
                                         train_if_missing=True)
        assert calls == [("unet", True)]


class TestFullModelCodegen:
    def test_unet_project_emits(self, reference_hls_unet):
        from repro.hls.codegen import emit_project

        files = emit_project(reference_hls_unet, include_weights=False)
        # every weighted layer has a header
        names = {"enc1_conv", "enc2_conv", "bottleneck_conv", "dec2_conv",
                 "dec1_conv", "head_dense"}
        for name in names:
            assert f"firmware/weights/w_{name}.h" in files
        params = files["firmware/parameters.h"]
        assert "N_INPUTS  = 260" in params
        assert "N_OUTPUTS = 520" in params
        # layer-based formats visible in the typedefs
        assert "head_sigmoid_result_t" in params

    def test_unet_component_wires_skip_connections(self, reference_hls_unet):
        from repro.hls.codegen import emit_project

        files = emit_project(reference_hls_unet, include_weights=False)
        comp = files["firmware/unet_hls.cpp"]
        # the concat call receives both the upsample and the encoder path
        assert "dec1_up_out" in comp and "enc1_relu_out" in comp


class TestCLIFigures:
    def test_fig5c_prints_histogram(self, capsys):
        from repro.experiments.cli import main as cli_main

        assert cli_main(["fig5c", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "latency distribution" in out
        assert "#" in out
