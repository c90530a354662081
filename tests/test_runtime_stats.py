"""The runtime's one counter block: field-driven snapshot / delta / absorb.

:class:`repro.runtime.RuntimeStats` is the only counter store of the
runtime; sessions, the fleet and frames move counts between blocks with
``absorb(block.delta(before))``.  These checks pin the algebra for every
field kind: counters, the ``segments_live`` gauge, the histograms and
the ``degradations`` log.
"""

from dataclasses import fields

from repro.runtime import RuntimeStats
from repro.streaming import SessionStats


def _move(block: RuntimeStats, step: int) -> None:
    """Move every field kind of *block* by an amount tied to *step*."""
    block.retries += step
    block.cache_hits += 2 * step
    block.state_bytes_shipped += 100 * step
    block.segments_live = 3 + step
    block.degradations.append(f"step-{step}")
    block.absorb({"bucket_sizes": {2: step, 4 + step: 1},
                  "arena_units_fused": {step: 1}})


def test_block_snapshot_delta_absorb():
    # A delta since birth rebuilds the whole block.
    block = RuntimeStats()
    _move(block, 1)
    _move(block, 2)
    rebuilt = RuntimeStats()
    rebuilt.absorb(block.delta(None))
    assert rebuilt.snapshot() == block.snapshot()

    # A delta since a snapshot adds exactly what moved after it.
    source = RuntimeStats()
    _move(source, 1)
    before = source.snapshot()
    _move(source, 2)
    delta = source.delta(before)
    assert 5 not in delta["bucket_sizes"]    # moved only before
    target = RuntimeStats(retries=5, segments_live=9, degradations=["a"],
                          bucket_sizes={2: 7})
    target.absorb(delta)
    assert target.retries == 7
    assert target.cache_hits == 4
    assert target.state_bytes_shipped == 200
    assert target.segments_live == 5         # a gauge takes the level
    assert target.degradations == ["a", "step-2"]
    assert target.bucket_sizes == {2: 9, 6: 1}
    assert target.arena_units_fused == {2: 1}

    # A session block absorbs runtime fields only.
    stats = SessionStats(frames=4, calibrations=2, rollbacks=1)
    session_only = {spec.name: getattr(stats, spec.name)
                    for spec in fields(SessionStats)
                    if spec.name not in RuntimeStats.__dataclass_fields__}
    stats.absorb(block.delta(None))
    assert stats.snapshot() == block.snapshot()
    assert {name: getattr(stats, name) for name in session_only} \
        == session_only
