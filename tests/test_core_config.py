"""StreamGrid configuration objects."""

import pytest

from repro.core import (
    SplittingConfig,
    StreamGridConfig,
    TerminationConfig,
)
from repro.core.config import StreamingSessionConfig
from repro.core.cotraining import baseline_config, cs_config, cs_dt_config
from repro.core.splitting import naive_partition, splitting_for_chunks
from repro.errors import ValidationError
from repro.spatial import chunk_windows


def test_default_splitting_is_paper_setting():
    config = SplittingConfig()
    assert config.shape == (3, 3, 1)
    assert config.kernel == (2, 2, 1)
    assert config.n_chunks == 9
    assert config.n_windows == 4        # "equivalent to 4 chunks"
    assert config.equivalent_chunks == 4


def test_serial_splitting_counts():
    config = SplittingConfig(shape=(4, 1, 1), kernel=(2, 1, 1),
                             mode="serial")
    assert config.n_chunks == 4
    assert config.n_windows == 3


def test_splitting_validations():
    with pytest.raises(ValidationError):
        SplittingConfig(shape=(0, 1, 1))
    with pytest.raises(ValidationError):
        SplittingConfig(shape=(2, 2, 1), kernel=(3, 1, 1))
    with pytest.raises(ValidationError):
        SplittingConfig(mode="other")


@pytest.mark.parametrize("shape,kernel,stride,mode", [
    ((5, 1, 1), (2, 1, 1), (2, 1, 1), "spatial"),   # chunk 4 left over
    ((5, 1, 1), (2, 1, 1), (2, 1, 1), "serial"),
    ((7, 1, 1), (2, 1, 1), (3, 1, 1), "serial"),    # stride > kernel
    ((3, 3, 1), (2, 2, 1), (1, 2, 1), "spatial"),   # axis 1 skips row 2
], ids=["spatial-tail", "serial-tail", "serial-gaps", "spatial-axis1"])
def test_splitting_rejects_windows_that_skip_chunks(shape, kernel, stride,
                                                    mode):
    with pytest.raises(ValidationError, match="outside every window"):
        SplittingConfig(shape=shape, kernel=kernel, stride=stride,
                        mode=mode)


def test_splitting_accepts_strides_that_cover_every_chunk():
    spatial = SplittingConfig(shape=(5, 3, 1), kernel=(3, 1, 1),
                              stride=(2, 1, 1))
    covered = {chunk for window in chunk_windows(
        spatial.shape, spatial.kernel, spatial.stride)
        for chunk in window.chunk_ids}
    assert covered == set(range(spatial.n_chunks))
    # Serial mode uses axis 0 only: the other strides are never read.
    serial = SplittingConfig(shape=(6, 1, 1), kernel=(2, 1, 1),
                             stride=(2, 3, 3), mode="serial")
    assert serial.n_windows == 3


def test_termination_validations():
    with pytest.raises(ValidationError):
        TerminationConfig(deadline_fraction=0.0)
    with pytest.raises(ValidationError):
        TerminationConfig(deadline_fraction=1.5)
    with pytest.raises(ValidationError):
        TerminationConfig(deadline_steps=0)
    assert TerminationConfig(deadline_fraction=0.25).deadline_fraction \
        == 0.25


def test_streaming_session_validations():
    # Drift knobs: a zero or negative interval would break the
    # frames-since-calibration cadence arithmetic outright.
    with pytest.raises(ValidationError):
        StreamingSessionConfig(drift_interval=0)
    with pytest.raises(ValidationError):
        StreamingSessionConfig(drift_interval=-2)
    with pytest.raises(ValidationError):
        StreamingSessionConfig(drift_queries=0)
    with pytest.raises(ValidationError):
        StreamingSessionConfig(drift_tolerance=-0.5)
    # Result-cache knobs.
    with pytest.raises(ValidationError):
        StreamingSessionConfig(cache_max_entries=0)
    with pytest.raises(ValidationError):
        StreamingSessionConfig(cache_max_entries=-8)
    config = StreamingSessionConfig()
    assert config.result_cache and config.cache_max_entries > 0
    off = StreamingSessionConfig(result_cache=False, cache_max_entries=7)
    assert not off.result_cache and off.cache_max_entries == 7


def test_variant_names():
    assert baseline_config().variant_name == "Base"
    assert cs_config().variant_name == "CS"
    assert cs_dt_config().variant_name == "CS+DT"
    assert StreamGridConfig(use_splitting=False,
                            use_termination=True).variant_name == "DT"


def test_naive_partition_kernel_one():
    naive = naive_partition(SplittingConfig())
    assert naive.kernel == (1, 1, 1)
    assert naive.shape == (3, 3, 1)
    assert naive.n_windows == 9


def test_splitting_for_chunks():
    assert splitting_for_chunks(1).n_windows == 1
    for n in (2, 4, 8, 16):
        assert splitting_for_chunks(n).n_windows == n
    with pytest.raises(ValidationError):
        splitting_for_chunks(0)
