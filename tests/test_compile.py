"""Bit-identity and API tests for the graph compiler (repro.hls.compile).

The compiled plan is only allowed to exist because every rewrite is
proven bit-identical at compile time; the tests here pin the proofs from
the outside:

* activation LUTs reproduce the naive kernel on **every** representable
  raw word of the producer format (exhaustive, U-Net and MLP),
* compiled ``predict`` equals the naive executor for several batch
  sizes,
* a full 260-frame ``CentralNodeRuntime`` stream produces identical
  :class:`FrameRecord` sequences on the compiled and naive boards, with
  and without an active fault injector,
* a batch-norm kernel left in the design runs as its naive kernel, at
  wide formats and at the paper's 16 bits,
* convs lower to per-tap GEMMs reading their producers' zero-edged
  buffers, with the decoder concats folded in as split-K and the
  decoder up-samples as output phases (or refused, with the reason
  recorded, and built); the plan is a pure
  function of the model, holds scratch sized by the largest batch seen,
  pickles, imports scipy's BLAS when built or unpickled and leaves it
  unimported when it has no conv,
* the compile levels (0 and 2 only), the arena planner, ``RunStats``
  telemetry and the CLI ``--compile-level`` plumbing behave as
  documented.
"""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.fixed import FixedPointFormat, Overflow, Rounding
from repro.hls import HLSConfig, convert
from repro.hls.compile import _LUTStep, _build_lut, _lut_span_ok
from repro.nn import (
    AveragePooling1D,
    BatchNormalization,
    Concatenate,
    Conv1D,
    Dense,
    Flatten,
    Input,
    MaxPooling1D,
    Model,
    ReLU,
    Sigmoid,
    UpSampling1D,
)
from repro.soc.board import AchillesBoard
from repro.soc.faults import FaultInjector, HubDelayFault, NoisyMonitorFault
from repro.soc.runtime import CentralNodeRuntime

STRATEGY = "Layer-based Precision ac_fixed<16, x>"


# ----------------------------------------------------------------------
# Fixtures: fresh conversions (never the shared ``converted`` cache —
# other tests pin naive-path behaviour on that instance).
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def ref_bundle():
    from repro.experiments.common import bundle

    return bundle()


@pytest.fixture(scope="module")
def unet_naive(ref_bundle):
    from repro.experiments.common import reference_configs

    return convert(ref_bundle.unet, reference_configs()[STRATEGY])


@pytest.fixture(scope="module")
def unet_compiled(ref_bundle):
    from repro.experiments.common import reference_configs

    model = convert(ref_bundle.unet, reference_configs()[STRATEGY])
    model.compile(level=2)
    return model


@pytest.fixture(scope="module")
def mlp_compiled(ref_bundle):
    from repro.hls.precision import uniform_config

    model = convert(ref_bundle.mlp,
                    uniform_config(16, 7, model=ref_bundle.mlp))
    model.compile(level=2)
    return model


@pytest.fixture(scope="module")
def unet_frames(ref_bundle):
    ds = ref_bundle.dataset
    return ds.unet_inputs(ds.x_eval[:33])


def _lut_kernels(model):
    """(kernel, producer result format) pairs eligible for a LUT."""
    out = []
    for kernel in model.kernels:
        if not kernel.supports_lut:
            continue
        in_fmt = model.get_kernel(kernel.input_names[0]).config.result
        if _lut_span_ok(in_fmt):
            out.append((kernel, in_fmt))
    return out


# ----------------------------------------------------------------------
# Exhaustive LUT bit-identity
# ----------------------------------------------------------------------
class TestLUTExhaustive:
    def _check_all_raw_words(self, model):
        pairs = _lut_kernels(model)
        assert pairs, "model has no LUT-able activations"
        for kernel, in_fmt in pairs:
            raw = np.arange(in_fmt.raw_min, in_fmt.raw_max + 1,
                            dtype=np.int64)
            x = raw.astype(np.float64) * in_fmt.lsb
            x = np.broadcast_to(x, (1,) + x.shape).copy()
            step = _LUTStep(kernel, in_fmt, _build_lut(kernel, in_fmt))
            got = step.run([x], np.empty_like(x))
            want = kernel.forward([x])
            assert np.array_equal(got, want), (
                f"{kernel.name}: LUT diverged on some raw word")

    def test_unet_every_activation_every_raw_word(self, unet_naive):
        self._check_all_raw_words(unet_naive)

    def test_word_outside_the_format_raises(self, unet_naive):
        """The gather takes in wrap mode after an explicit range check: a
        word one past either end of the producer format is refused, not
        wrapped onto the other end of the table."""
        kernel, in_fmt = _lut_kernels(unet_naive)[0]
        step = _LUTStep(kernel, in_fmt, _build_lut(kernel, in_fmt))
        for raw in (in_fmt.raw_min - 1, in_fmt.raw_max + 1):
            x = np.full((1, 3), raw * in_fmt.lsb)
            with pytest.raises(IndexError):
                step.run([x], np.empty_like(x))

    def test_mlp_every_activation_every_raw_word(self, mlp_compiled):
        self._check_all_raw_words(mlp_compiled)


# ----------------------------------------------------------------------
# Compiled predict == naive executor
# ----------------------------------------------------------------------
class TestCompiledPredict:
    @pytest.mark.parametrize("n", [1, 5, 33])
    def test_unet_level2_matches_naive(self, unet_compiled, unet_frames, n):
        x = unet_frames[:n]
        assert np.array_equal(unet_compiled.predict(x),
                              unet_compiled.predict(x, executor="naive"))

    def test_mlp_matches_naive(self, mlp_compiled, rng):
        x = rng.normal(0.0, 1.0,
                       size=(17,) + tuple(mlp_compiled.input_shape))
        assert np.array_equal(mlp_compiled.predict(x),
                              mlp_compiled.predict(x, executor="naive"))

    @pytest.mark.parametrize("level", [2])
    def test_tiny_matches_naive(self, tiny_model, rng, level):
        model = convert(tiny_model, HLSConfig())
        model.compile(level=level)
        x = rng.normal(0.0, 2.0, size=(33,) + tuple(model.input_shape))
        for n in (1, 2, 7, 33):
            assert np.array_equal(model.predict(x[:n]),
                                  model.predict(x[:n], executor="naive")), n

    def test_covers_partition_kernels(self, unet_compiled):
        """Every naive kernel is covered by exactly one compiled step."""
        covered = []
        for step in unet_compiled.compiled_plan.steps:
            covered.extend(step.covers)
        assert sorted(covered) == sorted(
            k.name for k in unet_compiled.kernels)

    def test_report_shape(self, unet_compiled):
        report = unet_compiled.compile(level=2).describe()
        assert "compile level 2" in report
        plan_report = unet_compiled.compiled_plan.report
        assert plan_report.luts, "U-Net should lower activation LUTs"
        assert plan_report.fused, "U-Net should fuse MAC pipelines"
        assert plan_report.arena_words > 0


# ----------------------------------------------------------------------
# Conv lowering: per-tap GEMMs over zero-edged streams, split-K concats
# ----------------------------------------------------------------------
def _plan_signature(plan):
    """Everything a plan computes with, as comparable plain values."""
    sig = []
    for step in plan.steps:
        arrays = {k: v for k, v in vars(step).items()
                  if isinstance(v, np.ndarray)}
        taps = [(r, e, w.tobytes())
                for operand in getattr(step, "w_taps", [])
                for r, e, w in operand]
        sig.append((type(step).__name__, step.name, step.inputs, step.pad,
                    step.reads_padded, step.covers, getattr(step, "conv", None),
                    getattr(step, "in_pads", None),
                    {k: v.tobytes() for k, v in arrays.items()}, taps))
    return sig


class TestConvLowering:
    def test_decoder_concats_fold_into_their_convs(self, unet_compiled):
        """Both decoder convs read the low-resolution stream (the
        up-sample folds in as output phases) and the skip (the concat
        folds in as split-K); neither routing step is built."""
        plan = unet_compiled.compiled_plan
        kinds = {type(step).__name__ for step in plan.steps}
        assert not kinds & {"_ConcatStep", "_KernelStep", "_UpSampleStep"}
        convs = {step.name: step for step in plan.steps
                 if getattr(step, "conv", None)}
        assert convs["dec2_relu"].inputs == ["bottleneck_relu", "enc2_relu"]
        assert convs["dec1_relu"].inputs == ["dec2_relu", "enc1_relu"]
        for level in (1, 2):
            step = convs[f"dec{level}_relu"]
            assert step.covers[:3] == [f"dec{level}_up", f"dec{level}_concat",
                                       f"dec{level}_conv"]
            assert step.conv["up"] == (0, 2)
            # s = 2, k = 3, pad (1, 1): 4 GEMMs over the low-res rows
            # (W0 | W1+W2 and W0+W1 | W2) and 3 over the skip
            assert [(r, e) for r, e, _ in step.w_taps[0]] == [
                (0, 0), (0, 1), (1, 1), (1, 2)]
            assert len(step.w_taps[1]) == 3
        for step in convs.values():
            assert step.conv["formulation"] == "per_tap"
            assert all(step.reads_padded), step.name  # no pad copy
        assert unet_compiled.compiled_plan.report.fallbacks == {}

    def test_compiling_twice_yields_identical_plans(self, ref_bundle):
        from repro.experiments.common import reference_configs

        model = convert(ref_bundle.unet, reference_configs()[STRATEGY])
        model.compile(level=2)
        first = _plan_signature(model.compiled_plan)
        model.compile(level=2)
        assert _plan_signature(model.compiled_plan) == first

    def test_scratch_sized_by_largest_batch(self, ref_bundle, unet_frames):
        from repro.experiments.common import reference_configs

        def fresh():
            model = convert(ref_bundle.unet, reference_configs()[STRATEGY])
            model.compile(level=2)
            return model

        x = np.concatenate([unet_frames] * 2)[:32]
        once = fresh()
        once.predict(x)
        every = fresh()
        for n in range(1, 33):
            every.predict(x[:n])
        held = every.compiled_plan.held_bytes()
        assert held == once.compiled_plan.held_bytes()
        assert held > 0

    @pytest.mark.parametrize("level", [2])
    def test_inexact_partial_sums_fall_back_with_their_concat(self, level):
        """A bias on a finer grid than the products, with a bound large
        enough that bias-first partial sums could leave the exact window:
        the conv keeps its naive kernel, and the concat it would have
        folded is built again ahead of it."""
        grid = FixedPointFormat(16, 20)  # lsb 16: a coarse input grid
        inp = Input((16, 1), name="in")
        cat = Concatenate(name="cat")(ReLU(name="a")(inp),
                                      ReLU(name="b")(inp))
        out = Flatten(name="f")(Conv1D(2, 3, seed=0, name="c")(cat))
        model = Model(inp, out)
        conv = next(layer for layer in model.layers if layer.name == "c")
        conv.params["kernel"] = np.full((3, 2, 2), 0.25)
        conv.params["bias"] = np.array([0.5 + 3 * 2.0**-36,
                                        -0.25 - 5 * 2.0**-36])
        cfg = HLSConfig()
        for name in ("in", "a", "b", "cat"):
            cfg.set_layer(name, result=grid)
        cfg.set_layer("c", weight=FixedPointFormat(48, 12))  # lsb 2**-36

        hm = convert(model, cfg)
        report = hm.compile(level=level)
        assert report.fallbacks["c"] == "conv partial sums leave exact window"
        kinds = [(type(step).__name__, step.name)
                 for step in hm.compiled_plan.steps]
        assert kinds.index(("_ConcatStep", "cat")) \
            < kinds.index(("_KernelStep", "c"))
        x = np.random.default_rng(3).normal(0.0, 2.0**17, size=(7, 16, 1))
        for n in (1, 2, 7):
            assert np.array_equal(hm.predict(x[:n]),
                                  hm.predict(x[:n], executor="naive")), n

    def test_inexact_partial_sums_fall_back_with_their_up_sample(self):
        """The same refused conv with an up-sample among its operands:
        the up-sample it would have folded is built too, ahead of the
        concat."""
        grid = FixedPointFormat(16, 20)
        inp = Input((16, 1), name="in")
        a = MaxPooling1D(2, name="p")(ReLU(name="a")(inp))
        cat = Concatenate(name="cat")(UpSampling1D(2, name="u")(a),
                                      ReLU(name="b")(inp))
        out = Flatten(name="f")(Conv1D(2, 3, seed=0, name="c")(cat))
        model = Model(inp, out)
        conv = next(layer for layer in model.layers if layer.name == "c")
        conv.params["kernel"] = np.full((3, 2, 2), 0.25)
        conv.params["bias"] = np.array([0.5 + 3 * 2.0**-36,
                                        -0.25 - 5 * 2.0**-36])
        cfg = HLSConfig()
        for name in ("in", "a", "p", "u", "b", "cat"):
            cfg.set_layer(name, result=grid)
        cfg.set_layer("c", weight=FixedPointFormat(48, 12))

        hm = convert(model, cfg)
        report = hm.compile(level=2)
        assert report.fallbacks["c"] == "conv partial sums leave exact window"
        assert report.fallbacks["u"] == "its conv keeps its kernel"
        kinds = [(type(step).__name__, step.name)
                 for step in hm.compiled_plan.steps]
        assert kinds.index(("_UpSampleStep", "u")) \
            < kinds.index(("_ConcatStep", "cat")) \
            < kinds.index(("_KernelStep", "c"))
        x = np.random.default_rng(3).normal(0.0, 2.0**17, size=(7, 16, 1))
        for n in (1, 2, 7):
            assert np.array_equal(hm.predict(x[:n]),
                                  hm.predict(x[:n], executor="naive")), n

    def test_one_up_sample_folds_per_conv(self, rng):
        """Two cast-free up-samples into one concat: the first folds as
        output phases, the second is built and read at full resolution;
        an average pool (a naive kernel) cannot write zero edges, so the
        phased operand is copied into the conv's own edged scratch."""
        inp = Input((12, 1), name="in")
        x = ReLU(name="r")(Conv1D(3, 3, seed=1, name="c0")(inp))
        lo = AveragePooling1D(2, name="avg")(x)
        cat = Concatenate(name="cat")(UpSampling1D(2, name="u1")(lo),
                                      UpSampling1D(2, name="u2")(
                                          MaxPooling1D(2, name="max")(x)),
                                      x)
        y = ReLU(name="r1")(Conv1D(4, 5, seed=2, name="c1")(cat))
        model = Model(inp, Flatten(name="f")(y))
        hm = convert(model, HLSConfig())
        report = hm.compile(level=2)
        assert report.fallbacks["u2"] == "another up-sample folds into the conv"
        steps = {step.name: step for step in hm.compiled_plan.steps}
        assert "u1" not in steps and "u2" in steps
        conv = steps["r1"]
        assert conv.inputs == ["avg", "u2", "r"]
        assert conv.covers[:3] == ["u1", "cat", "c1"]
        assert conv.conv["up"] == (0, 2)
        assert conv.in_pads == [(1, 1), (2, 2), (2, 2)]
        assert conv.reads_padded == [False, True, True]
        x = rng.normal(0.0, 2.0, size=(33, 12, 1))
        for n in (1, 2, 7, 33):
            assert np.array_equal(hm.predict(x[:n]),
                                  hm.predict(x[:n], executor="naive")), n

    def test_compiled_unet_pickles(self, unet_compiled, unet_frames):
        want = unet_compiled.predict(unet_frames)  # scratch + BLAS live
        clone = pickle.loads(pickle.dumps(unet_compiled))
        assert np.array_equal(clone.predict(unet_frames), want)
        assert np.array_equal(clone.predict(unet_frames[:3]), want[:3])

    def test_dense_only_plan_never_imports_scipy(self):
        code = (
            "import sys\n"
            "from repro import CartpolePlant, RuntimeConfig, build_runtime\n"
            "from repro.plants import run_closed_loop\n"
            "plant = CartpolePlant()\n"
            "rt = build_runtime(plant.default_model(), plant=plant,\n"
            "                   config=RuntimeConfig(compile_level=2))\n"
            "assert rt.board.ip.hls_model.compile_level == 2\n"
            "run_closed_loop(rt, plant.session(0), 20, seed=1)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True, timeout=300,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "[]"

    def test_unpickled_conv_plan_imports_blas_before_its_first_step(
            self, tiny_model, tmp_path):
        """A fresh worker unpickles its plan and then runs it: the BLAS
        import lands in the unpickle, so the first profiled ``predict``
        imports nothing and no step's time holds an import."""
        model = convert(tiny_model, HLSConfig())
        model.compile(level=2)
        path = tmp_path / "model.pkl"
        path.write_bytes(pickle.dumps(model))
        code = (
            "import pickle, sys\n"
            "import numpy as np\n"
            f"model = pickle.loads(open({str(path)!r}, 'rb').read())\n"
            "assert 'scipy.linalg.blas' in sys.modules\n"
            "before = set(sys.modules)\n"
            "model.predict(np.zeros((2,) + tuple(model.input_shape)),\n"
            "              profile=True)\n"
            "assert 'r1' in model.last_run_stats.step_times  # c1 + r1\n"
            "print(sorted(set(sys.modules) - before))\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True, timeout=300,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "[]"


# ----------------------------------------------------------------------
# Runtime streams (the acceptance pin: full control loop, 260 frames)
# ----------------------------------------------------------------------
class TestRuntimeStreams:
    N_FRAMES = 260

    def _run(self, model, frames, specs=None):
        rt = CentralNodeRuntime(
            board=AchillesBoard(model),
            injector=(FaultInjector(specs, seed=3)
                      if specs is not None else None),
            batch_inference=True,
        )
        return rt.run(frames, seed=7)

    def test_fault_free_records_identical(self, ref_bundle, unet_naive,
                                          unet_compiled):
        frames = ref_bundle.dataset.x_eval[: self.N_FRAMES]
        rec_naive = self._run(unet_naive, frames)
        rec_compiled = self._run(unet_compiled, frames)
        assert rec_naive == rec_compiled

    def test_injected_records_identical(self, ref_bundle, unet_naive,
                                        unet_compiled):
        specs = [NoisyMonitorFault(rate=0.3, sigma=0.5),
                 HubDelayFault(rate=0.2, delay_s=1e-4)]
        frames = ref_bundle.dataset.x_eval[: self.N_FRAMES]
        rec_naive = self._run(unet_naive, frames, specs=specs)
        rec_compiled = self._run(unet_compiled, frames, specs=specs)
        assert rec_naive == rec_compiled
        assert any(r.fault_kinds for r in rec_compiled)


# ----------------------------------------------------------------------
# Batch-norm: folded by the conversion pass, never by the compiler
# ----------------------------------------------------------------------
def _bn_model():
    inp = Input((12, 1), name="in")
    x = Conv1D(3, 3, seed=0, name="c")(inp)
    x = BatchNormalization(name="bn")(x)
    x = ReLU(name="r")(x)
    x = Dense(2, seed=1, name="d")(x)
    x = Sigmoid(name="s")(x)
    out = Flatten(name="f")(x)
    m = Model(inp, out)
    xs = np.random.default_rng(0).normal(1.5, 2.0, size=(64, 12, 1))
    m.forward(xs, training=True)  # non-trivial batch-norm statistics
    return m


def _wide_bn_config():
    """Formats wide enough that the conv's result grid holds the full
    product precision (the quantization between conv and BN is the
    identity)."""
    cfg = HLSConfig(strategy="wide-bn")
    f16_8 = FixedPointFormat(16, 8, rounding=Rounding.RND,
                             overflow=Overflow.SAT)
    wide = FixedPointFormat(44, 28, rounding=Rounding.TRN,
                            overflow=Overflow.SAT)  # 16 fraction bits
    cfg.set_layer("in", result=f16_8)
    cfg.set_layer("c", weight=f16_8, result=wide)
    cfg.set_layer("bn", weight=f16_8)
    return cfg


class TestBatchNorm:
    @pytest.mark.parametrize("make_config", [_wide_bn_config, HLSConfig],
                             ids=["wide", "16-bit"])
    def test_bn_runs_as_naive_kernel_step(self, make_config, rng):
        """Folding a batch-norm is a rewrite of the design
        (``repro.hls.passes.fuse.fuse_batchnorm``); one left in the
        design runs its naive kernel inside the compiled plan, at wide
        formats and at 16 bits alike."""
        x = rng.normal(0.0, 2.0, size=(7, 12, 1))
        model = convert(_bn_model(), make_config())
        model.compile(level=2)
        kinds = {step.name: type(step).__name__
                 for step in model.compiled_plan.steps}
        assert kinds["bn"] == "_KernelStep"
        for n in (1, 2, 7):
            assert np.array_equal(
                model.predict(x[:n]),
                model.predict(x[:n], executor="naive")), n


# ----------------------------------------------------------------------
# Compile API, telemetry, CLI plumbing
# ----------------------------------------------------------------------
class TestCompileAPI:
    def test_invalid_level_raises(self, mlp_compiled):
        with pytest.raises(ValueError):
            mlp_compiled.compile(level=3)
        assert mlp_compiled.compiled  # refused call left the plan alone

    def test_level_1_refused_naming_valid_levels(self, mlp_compiled,
                                                 capsys):
        """Level 1 is gone everywhere a level is accepted, and every
        refusal names the valid levels."""
        from repro.experiments.cli import main
        from repro.experiments.common import converted_at, set_compile_level

        valid = "must be 0 or 2"
        for bad in (1, True):
            with pytest.raises(ValueError, match=valid):
                repro.RuntimeConfig(compile_level=bad)
        with pytest.raises(ValueError, match=valid):
            mlp_compiled.compile(level=1)
        assert mlp_compiled.compile_level == 2
        with pytest.raises(ValueError, match=valid):
            set_compile_level(1)
        with pytest.raises(ValueError, match=valid):
            converted_at(STRATEGY, 1)
        with pytest.raises(SystemExit):
            main(["--compile-level", "1", "--list"])
        assert "choose from 0, 2" in capsys.readouterr().err

    def test_level0_uninstalls(self, ref_bundle, rng):
        from repro.hls.precision import uniform_config

        model = convert(ref_bundle.mlp,
                        uniform_config(16, 7, model=ref_bundle.mlp))
        model.compile(level=2)
        assert model.compiled
        report = model.compile(level=0)
        assert report.level == 0
        assert not model.compiled
        x = rng.normal(0.0, 1.0, size=(3,) + tuple(model.input_shape))
        model.predict(x)
        assert not model.last_run_stats.compiled

    def test_compiled_true_without_plan_raises(self, ref_bundle, rng):
        from repro.hls.precision import uniform_config

        model = convert(ref_bundle.mlp,
                        uniform_config(16, 7, model=ref_bundle.mlp))
        x = rng.normal(0.0, 1.0, size=(2,) + tuple(model.input_shape))
        with pytest.raises(ValueError):
            model.predict(x, executor="plan")

    def test_runstats_telemetry(self, mlp_compiled, rng):
        x = rng.normal(0.0, 1.0,
                       size=(4,) + tuple(mlp_compiled.input_shape))
        mlp_compiled.predict(x)
        stats = mlp_compiled.last_run_stats
        assert stats.compiled
        assert stats.step_times is None

        mlp_compiled.predict(x, profile=True)
        times = mlp_compiled.last_run_stats.step_times
        assert times is not None
        assert set(times) == {s.name
                              for s in mlp_compiled.compiled_plan.steps}
        assert all(t >= 0.0 for t in times.values())

        mlp_compiled.predict(x, executor="naive", profile=True)
        stats = mlp_compiled.last_run_stats
        assert not stats.compiled
        assert set(stats.step_times) == {k.name
                                         for k in mlp_compiled.kernels}

    def test_trace_stays_naive(self, mlp_compiled, rng):
        x = rng.normal(0.0, 1.0,
                       size=(2,) + tuple(mlp_compiled.input_shape))
        streams = mlp_compiled.trace(x)
        assert set(streams) == {k.name for k in mlp_compiled.kernels}
        assert not mlp_compiled.last_run_stats.compiled

    def test_set_compile_level_validates(self):
        from repro.experiments.common import (get_compile_level,
                                              set_compile_level)

        assert get_compile_level() == 0
        with pytest.raises(ValueError):
            set_compile_level(5)
        try:
            set_compile_level(2)
            assert get_compile_level() == 2
        finally:
            set_compile_level(0)

    def test_cli_accepts_compile_level(self, capsys):
        from repro.experiments.cli import main

        assert main(["--compile-level", "2", "--list"]) == 0
        assert "table1" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            main(["--compile-level", "7", "--list"])
