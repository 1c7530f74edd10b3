"""Library micro-benchmarks: inference throughput of the three engines.

Unlike the table/figure regenerations (measured once), these run multiple
rounds — they track the performance of the reproduction's own kernels:

* float U-Net forward (the numpy framework),
* fixed-point U-Net forward (the bit-accurate HLS twin),
* the graph-compiled fixed-point forward and control loop,
* the vectorised SoC latency sampler.
"""

import numpy as np
import pytest

from repro.experiments.common import bundle, converted, reference_configs
from repro.soc.board import AchillesBoard


@pytest.fixture(scope="module")
def frames():
    b = bundle()
    return b.dataset.unet_inputs(b.dataset.x_eval[:32])


@pytest.fixture(scope="module")
def compiled_unet():
    """Fresh conversion with the level-2 compiled plan installed — the
    shared ``converted`` cache must stay on the naive executor."""
    from repro.hls.converter import convert

    model = convert(bundle().unet,
                    reference_configs()["Layer-based Precision ac_fixed<16, x>"])
    model.compile(level=2)
    return model


def test_float_unet_forward(benchmark, frames):
    b = bundle()
    out = benchmark.pedantic(lambda: b.unet.forward(frames),
                             rounds=3, iterations=1)
    assert out.shape == (32, 520)


def test_fixed_unet_forward(benchmark, frames):
    hls_model = converted("Layer-based Precision ac_fixed<16, x>")
    out = benchmark.pedantic(lambda: hls_model.predict(frames),
                             rounds=3, iterations=1)
    assert out.shape == (32, 520)


def test_fixed_unet_forward_per_frame(benchmark, frames):
    """Frame-at-a-time baseline for the batched forward above."""
    hls_model = converted("Layer-based Precision ac_fixed<16, x>")
    out = benchmark.pedantic(
        lambda: np.concatenate([hls_model.predict(frames[i:i + 1])
                                for i in range(len(frames))]),
        rounds=3, iterations=1)
    assert out.shape == (32, 520)
    # The speedup is only reportable because the bits agree.
    assert np.array_equal(out, hls_model.predict(frames))


def test_compiled_unet_forward(benchmark, frames, compiled_unet):
    """Batched forward on the level-2 compiled plan."""
    out = benchmark.pedantic(lambda: compiled_unet.predict(frames),
                             rounds=3, iterations=1)
    assert out.shape == (32, 520)
    # The speedup is only reportable because the bits agree.
    assert np.array_equal(out, compiled_unet.predict(frames,
                                                     executor="naive"))


def test_runtime_batched_block(benchmark):
    """Fault-free control loop on the batched fast path (32 frames)."""
    from repro.soc.runtime import CentralNodeRuntime

    hls_model = converted("Layer-based Precision ac_fixed<16, x>")
    frames = bundle().dataset.x_eval[:32]

    def run_block():
        rt = CentralNodeRuntime(board=AchillesBoard(hls_model))
        return rt.run(frames, seed=7)

    records = benchmark.pedantic(run_block, rounds=3, iterations=1)
    assert len(records) == 32


def test_runtime_compiled_block(benchmark, compiled_unet):
    """Fault-free control loop on the compiled plan (32 frames)."""
    from repro.soc.runtime import CentralNodeRuntime

    frames = bundle().dataset.x_eval[:32]

    def run_block():
        rt = CentralNodeRuntime(board=AchillesBoard(compiled_unet))
        return rt.run(frames, seed=7)

    records = benchmark.pedantic(run_block, rounds=3, iterations=1)
    assert len(records) == 32


def test_latency_sampler(benchmark):
    hls_model = converted("Layer-based Precision ac_fixed<16, x>")
    board = AchillesBoard(hls_model)
    lat = benchmark.pedantic(
        lambda: board.sample_latency_distribution(100_000, seed=0),
        rounds=3, iterations=1,
    )
    assert lat.shape == (100_000,)


def test_event_driven_frame(benchmark):
    hls_model = converted("Layer-based Precision ac_fixed<16, x>")
    board = AchillesBoard(hls_model)
    b = bundle()
    frame = b.dataset.x_eval[0]
    timing = benchmark.pedantic(lambda: board.process_frame(frame),
                                rounds=3, iterations=1)
    assert timing.total > 0
