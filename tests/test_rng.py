import numpy as np
import pytest

from urnlab.rng import (
    BLOCK,
    REPL_SHIFT,
    BlockSource,
    bulk_gaussians,
    bulk_uniforms,
    splitmix64,
    stream_states,
    stream_words,
)
from oracles import ScalarRng, scalar_block_values


def test_splitmix64_known_sequence():
    # reference values computed from the published mixing constants
    state = 0
    outs = []
    for _ in range(3):
        state, z = splitmix64(state)
        outs.append(z)
    assert outs[0] == 0xE220A8397B1DCDAF
    assert outs[1] == 0x6E789E6AA1B965F4
    assert outs[2] == 0x06C45D188009454F


def test_stream_words_are_splitmix_outputs():
    # stream s takes splitmix outputs 4s..4s+3 of the plain sequence
    state = 12345
    seq = []
    for _ in range(12):
        state, z = splitmix64(state)
        seq.append(z)
    for s in range(3):
        assert stream_words(12345, s) == seq[4 * s:4 * s + 4]


def test_stream_states_matches_scalar():
    got = stream_states(7, np.arange(5))
    for s in range(5):
        assert [int(w) for w in got[s]] == stream_words(7, s)


def test_zero_state_fallback():
    # contrived: no realistic seed hits it, so exercise the rule directly
    w = stream_words(0, 0)
    assert any(w)
    st = stream_states(0, [0])
    assert st.any()


def test_vector_uniforms_bitwise_match_scalar():
    states = stream_states(99, np.arange(4))
    vec = bulk_uniforms(states, 64)
    for s in range(4):
        rng = ScalarRng(99, s)
        ref = [rng.uniform() for _ in range(64)]
        assert vec[s].tolist() == ref


def test_vector_gaussians_bitwise_match_scalar():
    states = stream_states(2024, np.arange(6))
    vec = bulk_gaussians(states, 33)
    for s in range(6):
        ref = ScalarRng(2024, s).gaussians(33)
        assert vec[s].tolist() == ref


def test_gaussian_consumption_is_per_stream():
    # a rejection in one stream must not disturb the others
    big = stream_states(5, np.arange(50))
    one = stream_states(5, np.array([17]))
    assert bulk_gaussians(big, 20)[17].tolist() == bulk_gaussians(one, 20)[0].tolist()


def test_uniform_range_and_moments():
    states = stream_states(1, np.arange(8))
    u = bulk_uniforms(states, 4096).ravel()
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.01
    assert abs(u.var() - 1.0 / 12.0) < 0.005


def test_gaussian_moments():
    states = stream_states(3, np.arange(16))
    g = bulk_gaussians(states, 4096).ravel()
    n = g.size
    assert abs(g.mean()) < 4.0 / np.sqrt(n)
    assert abs(g.var() - 1.0) < 0.02
    assert abs((g ** 3).mean()) < 0.03


def test_block_source_matches_scalar_reference():
    src = BlockSource(42, [0, 3], kind="gaussian")
    a = src.take(100)
    b = src.take(BLOCK)  # crosses a block boundary
    got0 = np.concatenate([a[0], b[0]])
    got3 = np.concatenate([a[1], b[1]])
    assert got0.tolist() == scalar_block_values(42, 0, 100 + BLOCK)
    assert got3.tolist() == scalar_block_values(42, 3, 100 + BLOCK)


def test_block_source_chunking_invariance():
    # identical values no matter how the take() calls are sliced
    one = BlockSource(7, [1], kind="uniform").take(3 * BLOCK)
    src = BlockSource(7, [1], kind="uniform")
    parts = [src.take(k) for k in (5, BLOCK - 5, BLOCK + 1, BLOCK - 1)]
    assert np.concatenate([p[0] for p in parts]).tolist() == one[0].tolist()


def test_block_source_replicate_independence():
    # a replicate's noise must not depend on which batch it sits in
    lone = BlockSource(11, [2]).take(10)[0]
    batch = BlockSource(11, [0, 1, 2, 3]).take(10)[2]
    assert lone.tolist() == batch.tolist()


def test_block_cache_not_carried_across_blocks():
    # block b of replicate r re-seeds from stream (r<<shift)|b from scratch
    vals = scalar_block_values(13, 1, BLOCK + 4)
    rng = ScalarRng(13, (1 << REPL_SHIFT) | 1)
    assert vals[BLOCK:] == rng.gaussians(4)


def test_block_source_rejects_bad_kind():
    with pytest.raises(ValueError):
        BlockSource(0, [0], kind="exponential")


def test_stream_rng_matches_block_source():
    from urnlab.rng import StreamRng

    rng = StreamRng(21, replicate=5, kind="gaussian")
    a = [rng.gaussian() for _ in range(7)]
    b = rng.gaussians(BLOCK)
    ref = scalar_block_values(21, 5, 7 + BLOCK)
    assert a == ref[:7]
    assert b.tolist() == ref[7:]


def test_stream_rng_kind_guard():
    from urnlab.rng import StreamRng

    rng = StreamRng(0, 0, kind="uniform")
    assert 0.0 <= rng.uniform() < 1.0
    with pytest.raises(ValueError):
        rng.gaussians(2)
