import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from urnlab import rng as rng_module
from urnlab.rng import (
    BLOCK,
    GROUP,
    REPL_SHIFT,
    SLOTS,
    TILE,
    BlockSource,
    bulk_gaussians,
    bulk_uniforms,
    replicate_indices,
    stream_states,
)
from urnlab.errors import InvalidArgumentError
from oracles import ScalarRng, scalar_block_values, splitmix64, stream_words


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
    src = BlockSource(42, [0, 3], "gaussian", 100 + BLOCK)
    a = src.take(100)
    b = src.take(BLOCK)  # crosses a block boundary
    got0 = np.concatenate([a[0], b[0]])
    got3 = np.concatenate([a[1], b[1]])
    assert got0.tolist() == scalar_block_values(42, 0, 100 + BLOCK)
    assert got3.tolist() == scalar_block_values(42, 3, 100 + BLOCK)


def test_block_source_chunking_invariance():
    # identical values no matter how the take() calls are sliced
    one = BlockSource(7, [1], "uniform", 3 * BLOCK).take(3 * BLOCK)
    src = BlockSource(7, [1], "uniform", 3 * BLOCK)
    parts = [src.take(k) for k in (5, BLOCK - 5, BLOCK + 1, BLOCK - 1)]
    assert np.concatenate([p[0] for p in parts]).tolist() == one[0].tolist()


def test_block_source_replicate_independence():
    # a replicate's noise must not depend on which batch it sits in
    lone = BlockSource(11, [2], "gaussian", 10).take(10)[0]
    batch = BlockSource(11, [0, 1, 2, 3], "gaussian", 10).take(10)[2]
    assert lone.tolist() == batch.tolist()


def test_block_cache_not_carried_across_blocks():
    # block b of replicate r re-seeds from stream (r<<shift)|b from scratch
    vals = scalar_block_values(13, 1, BLOCK + 4)
    rng = ScalarRng(13, (1 << REPL_SHIFT) | 1)
    assert vals[BLOCK:] == rng.gaussians(4)


def test_block_source_rejects_bad_kind():
    with pytest.raises(InvalidArgumentError, match="exponential"):
        BlockSource(0, [0], "exponential", 1)


def test_block_source_rejects_a_draw_it_cannot_make():
    # the budget is BLOCK << REPL_SHIFT values per replicate; a draw above
    # it fails when the source is opened, not when the stepping reaches it
    budget = BLOCK << REPL_SHIFT
    BlockSource(0, [0], "uniform", budget)
    with pytest.raises(InvalidArgumentError, match="budget"):
        BlockSource(0, [0], "uniform", budget + 1)
    src = BlockSource(0, [0, 1], "gaussian", 5)
    src.take(3)
    with pytest.raises(InvalidArgumentError, match="declared draw of 5"):
        src.take(3)
    with pytest.raises(InvalidArgumentError):
        BlockSource(0, [0], "uniform", 0).take(1)


def _take_all(src, takes):
    """The takes' values side by side, up to the first take past the
    source's draw, which must raise."""
    got, drawn = [], 0
    for k in takes:
        drawn += k
        if drawn > src.total:
            with pytest.raises(InvalidArgumentError):
                src.take(k)
            break
        got.append(src.take(k))
    return np.concatenate([np.empty((src.repl.size, 0))] + got, axis=1)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, (1 << 64) - 1),
       repl=st.lists(st.integers(0, 40), min_size=1, max_size=3, unique=True),
       kind=st.sampled_from(["gaussian", "uniform"]),
       takes=st.lists(st.integers(1, BLOCK + 300), min_size=1, max_size=3),
       known=st.sampled_from(["none", "below", "exact", "above"]))
def test_known_draw_never_changes_values(seed, repl, kind, takes, known):
    draw = sum(takes)
    total = {"none": 0, "below": draw // 2, "exact": draw,
             "above": draw + BLOCK + 1}[known]
    src = BlockSource(seed, repl, kind, total)
    got = _take_all(src, takes)
    for row, r in zip(got, repl):
        assert row.tolist() == scalar_block_values(seed, r, got.shape[1], kind)
    # refills make the declared draw, and nothing beyond
    assert src._made == total if total >= draw else src._made <= total


SHORT_TOTALS = [1, 2, 7, 8, TILE - 1, TILE, TILE + 1, BLOCK - 1, BLOCK,
                BLOCK + 1, 2 * BLOCK + 1808]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, (1 << 64) - 1),
       repl=st.lists(st.integers(0, 40), min_size=1, max_size=3, unique=True),
       kind=st.sampled_from(["gaussian", "uniform"]),
       total=st.one_of(st.sampled_from(SHORT_TOTALS), st.integers(1, 2 * BLOCK + 300)),
       past=st.sampled_from([0, 1, 2, TILE + 1, BLOCK]),
       data=st.data())
def test_short_last_block_and_its_remake_never_change_values(
        seed, repl, kind, total, past, data):
    # takes up to the declared draw end in its short last block; a take
    # past it raises
    cuts = data.draw(st.lists(st.integers(0, total), max_size=3))
    ends = sorted(set(cuts) | {0, total})
    takes = [b - a for a, b in zip(ends, ends[1:])]
    takes += [past] if past else []
    src = BlockSource(seed, repl, kind, total)
    got = _take_all(src, takes)
    assert got.shape[1] == total
    for row, r in zip(got, repl):
        assert row.tolist() == scalar_block_values(seed, r, total, kind)


@pytest.mark.parametrize("kind", ["gaussian", "uniform"])
def test_known_draw_is_made_and_no_more(monkeypatch, kind):
    made = []  # values per replicate of each bulk call
    for name in ("bulk_gaussians", "bulk_uniforms"):
        def counted(states, count, *args, real=getattr(rng_module, name), **kw):
            out = real(states, count, *args, **kw)
            made.append(out.size // 3)
            return out
        monkeypatch.setattr(rng_module, name, counted)
    for t in SHORT_TOTALS:
        made.clear()
        src = BlockSource(5, [0, 9, 4], kind, total=t)
        src.take(t // 3)
        src.take(t - t // 3)
        assert sum(made) == t, t
    # a take past the draw raises and makes nothing
    made.clear()
    with pytest.raises(InvalidArgumentError):
        src.take(1)
    assert made == []


def test_refill_cap_keeps_one_block_per_replicate(monkeypatch):
    # a cap below one block per replicate still opens one block per refill;
    # a one-block uniform refill is made only as it is taken and is not
    # stored, while a gaussian one is made whole
    monkeypatch.setattr(rng_module, "REFILL_VALUES", BLOCK)
    made = []  # values per replicate of each bulk call
    for name in ("bulk_gaussians", "bulk_uniforms"):
        def counted(states, count, *args, real=getattr(rng_module, name), **kw):
            made.append(count)
            return real(states, count, *args, **kw)
        monkeypatch.setattr(rng_module, name, counted)
    src = BlockSource(4, [0, 6], "uniform", total=3 * BLOCK)
    first = src.take(1)
    assert made == [1] and src._buf is None
    rest = src.take(2 * BLOCK)
    assert sum(made) == 2 * BLOCK + 1 and src._buf is None
    got = np.concatenate([first, rest], axis=1)
    for row, r in zip(got, (0, 6)):
        assert row.tolist() == scalar_block_values(4, r, 2 * BLOCK + 1, "uniform")
    made.clear()
    src = BlockSource(4, [0, 6], "gaussian", total=3 * BLOCK)
    src.take(1)
    assert made == [BLOCK] and src._buf.shape == (2, BLOCK)


def _accepted(seed, stream, attempts):
    """Polar acceptances among a scalar stream's first `attempts` tries."""
    rng = ScalarRng(seed, stream)
    hits = 0
    for _ in range(attempts):
        u = 2.0 * rng.uniform() - 1.0
        v = 2.0 * rng.uniform() - 1.0
        hits += 0.0 < u * u + v * v < 1.0
    return hits


def test_polar_rounds_match_scalar():
    # found by search over seed 0: stream 30 has its 2048 pairs after 20
    # rounds of TILE attempts and drops the rest of its 21st round, while
    # its neighbours need the 21st round and continue from their own state
    pairs = BLOCK // 2
    assert _accepted(0, 30, 20 * TILE) >= pairs
    assert _accepted(0, 29, 20 * TILE) < pairs
    assert _accepted(0, 31, 20 * TILE) < pairs
    streams = [29, 30, 31]
    vec = bulk_gaussians(stream_states(0, streams), BLOCK)
    for row, s in zip(vec, streams):
        assert row.tolist() == ScalarRng(0, s).gaussians(BLOCK)


def test_vector_group_boundaries_match_scalar():
    S = GROUP + GROUP // 2
    checked = [0, GROUP - 1, GROUP, S - 1]
    uni = bulk_uniforms(stream_states(8, np.arange(S)), BLOCK)
    gau = bulk_gaussians(stream_states(8, np.arange(S)), BLOCK)
    for s in checked:
        rng = ScalarRng(8, s)
        assert uni[s].tolist() == [rng.uniform() for _ in range(BLOCK)]
        assert gau[s].tolist() == ScalarRng(8, s).gaussians(BLOCK)


def test_wide_group_temporaries_stay_within_slots():
    # at 1000 streams the work arrays hold 32 rows, not TILE: a gaussian
    # call keeps about 3 MiB beside its output (11.3 MiB at TILE rows), a
    # uniform one into a given `out` under 1 MiB (3.1 MiB at TILE rows)
    S = 1000
    states = stream_states(3, np.arange(S))
    tracemalloc.start()
    try:
        g = bulk_gaussians(states.copy(), BLOCK)
        gauss = tracemalloc.get_traced_memory()[1] - g.nbytes
    finally:
        tracemalloc.stop()
    out = np.empty((BLOCK, S))
    tracemalloc.start()
    try:
        bulk_uniforms(states, BLOCK, out=out)
        uni = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gauss <= 16 * SLOTS * 8, gauss
    assert uni <= 4 * SLOTS * 8, uni


WIDTHS = [1, 3, 255, 256, 257, 1000, GROUP + 1]
# counts across the ends of tiles (32, 127 and 128 rows at the wide
# widths) and of polar rounds
COUNTS = [1, 2, 31, 33, 127, 128, 129, 255, 257, 1001]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, (1 << 64) - 1),
       S=st.sampled_from(WIDTHS),
       slots=st.sampled_from(["1", "7", "S-1", "S", "300S"]),
       tile=st.sampled_from([1, 128]),
       count=st.sampled_from(COUNTS),
       kind=st.sampled_from(["gaussian", "uniform"]),
       takes=st.lists(st.sampled_from([1, 33, 129, BLOCK - 1, BLOCK]),
                      min_size=1, max_size=3))
@example(seed=1, S=GROUP + 1, slots="1", tile=128, count=129, kind="gaussian",
         takes=[BLOCK - 1, 33])  # one-row rounds; a take crosses a block end
@example(seed=2, S=1000, slots="S-1", tile=1, count=1001, kind="uniform",
         takes=[33, BLOCK])
def test_work_array_sizes_never_change_values(seed, S, slots, tile, count,
                                              kind, takes):
    # neither the generator's output tile nor the polar round size may
    # change a value: every width and count gives the values the default
    # SLOTS and TILE give, bit for bit
    slots = {"1": 1, "7": 7, "S-1": S - 1, "S": S, "300S": 300 * S}[slots]
    states = stream_states(seed, np.arange(S))

    def draw():
        src = BlockSource(seed, np.arange(S), kind, sum(takes))
        return (bulk_uniforms(states.copy(), count),
                bulk_gaussians(states.copy(), count),
                np.concatenate([src.take(k) for k in takes], axis=1))

    want = draw()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rng_module, "SLOTS", slots)
        mp.setattr(rng_module, "TILE", tile)
        got = draw()
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, (1 << 64) - 1),
       R=st.sampled_from([1, 3, 300]),
       kind=st.sampled_from(["gaussian", "uniform"]),
       known=st.sampled_from(["below", "exact", "above"]),
       takes=st.lists(st.tuples(st.sampled_from([0, 1, 7, BLOCK - 1, BLOCK,
                                                 BLOCK + 1, 2 * BLOCK]),
                                st.sampled_from(["new", "rows", "steps"])),
                      min_size=1, max_size=4))
def test_takes_into_any_layout_never_change_values(seed, R, kind, known, takes):
    # without `out`, a take that is a whole fresh refill gets the refill
    # itself; with `out`, C-order or a step-major buffer's transpose, the
    # values are copied in. Either way no take shares memory with another.
    # A take past the draw raises.
    draw = sum(k for k, _ in takes)
    total = {"below": draw // 2, "exact": draw, "above": draw + BLOCK + 1}[known]
    repl = 5 * np.arange(R) + 2
    src = BlockSource(seed, repl, kind, total)
    got, drawn = [], 0
    for k, how in takes:
        drawn += k
        if drawn > total:
            with pytest.raises(InvalidArgumentError):
                src.take(k)
            break
        if how == "new":
            a = src.take(k)
        else:
            out = np.empty((R, k)) if how == "rows" else np.empty((k, R)).T
            a = src.take(k, out=out)
            assert a is out
        assert a.shape == (R, k)
        got.append(a)
    for i, a in enumerate(got):
        assert not any(np.shares_memory(a, b) for b in got[i + 1:])
    vals = np.concatenate([np.empty((R, 0))] + got, axis=1)
    for i in sorted({0, R // 2, R - 1}):
        assert vals[i].tolist() == scalar_block_values(
            seed, repl[i], vals.shape[1], kind)


@pytest.mark.parametrize("kind, order", [("gaussian", "C_CONTIGUOUS"),
                                         ("uniform", "F_CONTIGUOUS")])
def test_whole_refill_is_handed_over_in_its_layout(monkeypatch, kind, order):
    # gaussians are stored stream-major, uniforms step-major (the transpose
    # of a (k, R) array). A take of exactly one fresh gaussian refill
    # returns it; a one-block uniform refill is stepped into each take, so
    # a take holds the generator's output and the source keeps no buffer
    monkeypatch.setattr(rng_module, "REFILL_VALUES", BLOCK)  # one block a refill
    made = []
    for name in ("bulk_gaussians", "bulk_uniforms"):
        def recorded(states, count, *args, real=getattr(rng_module, name), **kw):
            made.append(real(states, count, *args, **kw))
            return made[-1]
        monkeypatch.setattr(rng_module, name, recorded)
    src = BlockSource(1, [0, 4, 9], kind, total=2 * BLOCK + 10)
    first = src.take(BLOCK)
    assert len(made) == 1 and np.shares_memory(first, made[0])
    assert first.flags[order]
    second = src.take(10)  # part of the next refill, in the same layout
    assert second.flags[order]
    if kind == "gaussian":  # a copy out of the stored refill
        assert not np.shares_memory(src._buf, first)
        assert not np.shares_memory(second, made[1])
    else:  # made in place, ten values a replicate, nothing stored
        assert src._buf is None and made[1].shape == (3, 10)
        assert np.shares_memory(second, made[1])
    assert src.take(BLOCK).shape == (3, BLOCK)
    for row, r in zip(np.concatenate([first, second], axis=1), (0, 4, 9)):
        assert row.tolist() == scalar_block_values(1, r, BLOCK + 10, kind)


# draw ends at, or one either side of, a block end
NEAR_ENDS = [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK - 1, 2 * BLOCK, 2 * BLOCK + 1]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, (1 << 64) - 1),
       R=st.sampled_from([1, 3, 128, 129, 300, 1000]),
       cuts=st.lists(st.one_of(st.sampled_from(NEAR_ENDS),
                               st.integers(1, 2 * BLOCK + 300)),
                     min_size=1, max_size=4, unique=True),
       hows=st.lists(st.sampled_from(["new", "rows", "steps"]),
                     min_size=4, max_size=4),
       known=st.sampled_from(["below", "exact", "above"]))
@example(seed=3, R=1000, cuts=[BLOCK - 1, 2 * BLOCK + 1],
         hows=["steps"] * 4, known="exact")  # a take spans two block ends
@example(seed=3, R=129, cuts=[BLOCK, 2 * BLOCK], hows=["new", "rows", "new", "new"],
         known="above")  # takes end on block ends
@example(seed=3, R=128, cuts=[5, BLOCK + 5], hows=["new"] * 4,
         known="exact")  # a take crosses the last block's start
def test_live_uniform_takes_never_change_values(seed, R, cuts, hows, known):
    # uniform takes stepped from live generator rows, into a new array, a
    # C-order one or a step-major buffer's transpose, equal the scalar
    # reference; a take past the draw raises. Above 128 replicates every
    # refill is one block a replicate and none is stored.
    ends = [0] + sorted(cuts)
    takes = [b - a for a, b in zip(ends, ends[1:])]
    draw = ends[-1]
    total = {"below": draw - takes[-1] // 2 - 1, "exact": draw,
             "above": draw + BLOCK + 1}[known]
    repl = 7 * np.arange(R) + 1
    src = BlockSource(seed, repl, "uniform", total)
    got, drawn = [], 0
    for k, how in zip(takes, hows):
        drawn += k
        if drawn > total:
            with pytest.raises(InvalidArgumentError, match="declared draw"):
                src.take(k)
            break
        if how == "new":
            a = src.take(k)
        else:
            out = np.empty((R, k)) if how == "rows" else np.empty((k, R)).T
            assert src.take(k, out=out) is out
            a = out
        got.append(a)
        assert src._buf is None or R <= 128
    vals = np.concatenate([np.empty((R, 0))] + got, axis=1)
    assert vals.shape[1] == (draw if total >= draw else draw - takes[-1])
    for i in sorted({0, R // 2, R - 1}):
        assert vals[i].tolist() == scalar_block_values(
            seed, repl[i], vals.shape[1], "uniform")


# ==== replicate indices ====

def test_replicate_indices_normalizes_counts_and_indices():
    assert np.array_equal(replicate_indices(3), [0, 1, 2])
    assert replicate_indices(np.int32(2)).dtype == np.int64
    top = (1 << (64 - REPL_SHIFT)) - 1
    got = replicate_indices(np.array([top, 0], dtype=np.uint64))
    assert got.dtype == np.int64 and got.tolist() == [top, 0]
    assert replicate_indices(range(2, 4)).tolist() == [2, 3]
    assert replicate_indices([]).size == 0


@pytest.mark.parametrize("bad, named", [
    ([-1], "-1"),
    ([0, 1 << (64 - REPL_SHIFT)], str(1 << (64 - REPL_SHIFT))),
    ([(1 << (65 - REPL_SHIFT)) - 1], str((1 << (65 - REPL_SHIFT)) - 1)),
    ([1 << 70], str(1 << 70)),
    ([0, 1.5], "1.5"),
    ([True], "True"),
    (np.array([2.0]), "2.0"),
])
def test_replicate_indices_refuse_what_would_alias(bad, named):
    with pytest.raises(InvalidArgumentError, match=rf"index {named} is not"):
        replicate_indices(bad)
    with pytest.raises(InvalidArgumentError, match=rf"index {named} is not"):
        BlockSource(0, bad, "uniform", 1)


@pytest.mark.parametrize("bad", [-1, 2.0, True])
def test_replicate_count_must_be_a_non_negative_integer(bad):
    with pytest.raises(InvalidArgumentError, match="replicate count"):
        replicate_indices(bad)


def test_top_replicate_index_has_streams_of_its_own():
    top = (1 << (64 - REPL_SHIFT)) - 1
    got = BlockSource(3, [top], "uniform", 5).take(5)[0]
    assert got.tolist() == scalar_block_values(3, top, 5, "uniform")
    other = BlockSource(3, [top - 1], "uniform", 5).take(5)[0]
    assert not np.array_equal(got, other)


def test_engines_refuse_a_negative_replicate_index():
    from urnlab.gauss import GaussProcessSpec, simulate_paths
    from oracles import friedman_urn
    from urnlab.sa import LinearDrift, SAProcessSpec, linear_paths, run_sa
    from urnlab.urn import run_urn_batch

    spec = GaussProcessSpec(H=np.eye(1), gamma_root=np.eye(1), G1=np.zeros(1),
                            grid=np.array([1.0, 2.0]))
    calls = [lambda: run_urn_batch(friedman_urn(), 5, 0, [5], [-1]),
             lambda: linear_paths([[1.0]], [0.0], 5, 0, [5], [-1], [[1.0]]),
             lambda: run_sa(SAProcessSpec(dim=1, drift=LinearDrift([[1.0]]),
                                          theta0=[0.0]), 5, 0, [5], [-1]),
             lambda: simulate_paths(spec, 0, [-1])]
    for call in calls:
        with pytest.raises(InvalidArgumentError, match="index -1 is not"):
            call()
