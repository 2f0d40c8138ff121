import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import goodpants
from goodpants import elementwise, streams
from goodpants.complexes import build_xp, grow_until
from goodpants.holonomy import RepParams

ENTROPIES = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**200]
# the sweeps' streams: delta, two-planes and angle-change
SWEEP_ENTROPIES = [(s, tag) for s in (0, 7, 2**32 + 5) for tag in (0x6C5, 0x2B1, 0x3A7)]
# from 2^32 a key is two uint32 words, which take one more mixing round
KEYS = [0, 511, 512, 2**32 - 1, 2**32, 2**40]
# one word, a QI sample's words, and either side of a chunk
LENGTHS = [1, 14, 4095, 4096, 4097]
# seeds of fresh streams read a scalar at a time: a 40-digit int takes
# five uint32 words, one more than the pool, and the tuples are the
# sweeps' entropies
FRESH_ENTROPIES = [
    0, 3, 2**32, 2**40, 2**64 + 5, 1234567890123456789012345678901234567890,
    (3001, 0x6C5), (2**40, 0x3A7),
]


# the L=16 complex: 145 circles, so 290 draws
LARGE_COMPLEX = grow_until(build_xp(1, 3), 16)


def numpy_words(entropy, k, key=None):
    spawn_key = () if key is None else (key,)
    sequence = np.random.SeedSequence(entropy, spawn_key=spawn_key)
    return np.random.PCG64(sequence).random_raw(k)


@pytest.mark.parametrize("entropy", ENTROPIES + SWEEP_ENTROPIES)
def test_stream_words_match_numpy(entropy):
    for k in LENGTHS:
        assert streams.Stream(entropy).words(k).tolist() == numpy_words(entropy, k).tolist()


@pytest.mark.parametrize("entropy", ENTROPIES + SWEEP_ENTROPIES)
def test_stream_reads_in_pieces_and_by_iteration(entropy):
    want = numpy_words(entropy, 3 * 4096 + 10).tolist()
    stream = streams.Stream(entropy)
    pieces = [stream.words(k).tolist() for k in (1, 4095, 1, 4097, 3 * 4096 + 10 - 8194)]
    assert sum(pieces, []) == want
    # a word at a time, across every chunk end
    stream = streams.Stream(entropy)
    assert [int(stream.words(1)[0]) for _ in want] == want


@pytest.mark.parametrize("entropy", ENTROPIES + [(5, 0x3A7)])
@pytest.mark.parametrize("k", LENGTHS)
def test_spawned_words_match_numpy(entropy, k):
    got = streams.spawned_words(entropy, KEYS, k)
    assert got.shape == (len(KEYS), k)
    for key, row in zip(KEYS, got):
        assert row.tolist() == numpy_words(entropy, k, key).tolist(), key


def test_spawned_words_follow_seed_sequence_spawn():
    children = np.random.SeedSequence(3).spawn(4)
    got = streams.spawned_words(3, range(4), 20)
    for row, child in zip(got, children):
        assert row.tolist() == np.random.PCG64(child).random_raw(20).tolist()


@pytest.mark.parametrize("entropy", [0, 1, 2**32 + 1])
def test_uniform_and_random_match_the_generator(entropy):
    stream, generator = streams.Stream(entropy), np.random.default_rng(np.random.SeedSequence(entropy))
    assert stream.uniform(12.0, 20.0) == generator.uniform(12.0, 20.0)
    assert type(stream.uniform(0.0, 1.0)) is float
    generator.uniform(0.0, 1.0)
    assert stream.uniform(-0.3, 0.3, 150).tolist() == generator.uniform(-0.3, 0.3, 150).tolist()
    assert stream.random(5000).tolist() == generator.random(5000).tolist()


@pytest.mark.parametrize("entropy", [0, (7, 0x6C5)])
def test_mixed_reads_keep_one_position(entropy):
    # raw words, uniform and random draws in turn, across chunk ends,
    # read what one numpy Generator and its bit generator do
    stream, generator = streams.Stream(entropy), np.random.default_rng(np.random.SeedSequence(entropy))
    raw = generator.bit_generator.random_raw
    for k in (1, 4094, 3, 1, 4096, 2, 5000, 1, 7):
        assert stream.words(k).tolist() == raw(k).tolist()
        assert stream.uniform(-0.3, 0.3) == generator.uniform(-0.3, 0.3)
        assert stream.uniform(-0.3, 0.3, k).tolist() == generator.uniform(-0.3, 0.3, k).tolist()
        assert stream.random(k).tolist() == generator.random(k).tolist()


@pytest.mark.parametrize("entropy", [0, (7, 0x3A7)])
def test_integers_mix_with_whole_word_reads(entropy):
    # integers, scalar and array uniform, random and raw words in turn,
    # across chunk ends: a whole-word read between two integers draws
    # leaves the carried high half for the second, as numpy does
    stream, generator = streams.Stream(entropy), np.random.default_rng(np.random.SeedSequence(entropy))
    raw = generator.bit_generator.random_raw
    for k in (1, 4093, 2, 1, 4096, 3, 5000, 1, 7):
        for lo, hi in ((1, 4), (0, 3_000_000_000), (-5, 2**32 - 5)):
            assert stream.integers(lo, hi) == generator.integers(lo, hi)
            assert stream.uniform(-0.3, 0.3) == generator.uniform(-0.3, 0.3)
        assert stream.uniform(2.0, 5.0, k).tolist() == generator.uniform(2.0, 5.0, k).tolist()
        assert stream.integers(0, 8) == generator.integers(0, 8)
        assert stream.random(k).tolist() == generator.random(k).tolist()
        assert stream.integers(0, 8) == generator.integers(0, 8)
        assert stream.words(k).tolist() == raw(k).tolist()


def _generator_call(script):
    """One call of a Generator method, chosen by the script."""
    op = script.randrange(5)
    if op == 0:
        lo = script.uniform(-5.0, 5.0)
        return "uniform", (lo, lo + script.uniform(0.0, 30.0))
    if op == 1:
        return "uniform", (0.0, 1.0)
    if op == 2:
        return "integers", (1, 4)
    if op == 3:
        return "integers", (0, 8)
    # about 30% of 32-bit draws are rejected on this range
    return "integers", (0, 3_000_000_000)


@pytest.mark.parametrize("seeds, n_calls", [(range(200), 300), (range(200, 204), 12000)])
def test_same_draws_as_the_generator(seeds, n_calls):
    # angle-change's scalar draws; the longer runs cross a chunk of words
    for seed in seeds:
        sequence = np.random.SeedSequence((seed, 0x3A7))
        generator = np.random.default_rng(sequence)
        # a fresh generator, like a fresh Stream, carries no half word
        assert generator.bit_generator.state["has_uint32"] == 0
        stream = streams.Stream((seed, 0x3A7))
        script = random.Random(seed)
        for _ in range(n_calls):
            name, args = _generator_call(script)
            got, want = getattr(stream, name)(*args), getattr(generator, name)(*args)
            assert type(got) is (float if name == "uniform" else int)
            assert got == want, (seed, name, args)


def planted(words):
    """A Stream whose next words are ``words``."""
    stream = streams.Stream(0)
    stream._words = np.array(words, dtype=np.uint64)
    return stream


def test_lemire_rejects_the_lowest_products():
    # integers(1, 4) multiplies a 32-bit draw x by 3 and rejects the
    # products whose low word is below 2^32 mod 3 = 1: only x = 0
    stream = planted([0, 0xFFFFFFFF, 0xABCDEF0123456789, 7 << 11, 5 << 32 | 1])
    # halves 0 and 0 of the first word are rejected; 0xFFFFFFFF * 3
    # has high word 2
    assert stream.integers(1, 4) == 3
    # a whole word for a double leaves the second word's high half, 0,
    # carried; on eight values 2^32 mod 8 = 0, so a product of 0 is kept
    assert stream.uniform(0.0, 1.0) == (0xABCDEF0123456789 >> 11) * 2.0**-53
    assert stream.integers(0, 8) == 0
    assert stream.uniform(2.0, 4.0) == 2.0 + 2.0 * 7 * 2.0**-53
    # 2^32 values take x itself: the low half, then the high half
    assert stream.integers(0, 2**32) == 1
    assert stream.integers(10, 10 + 2**32) == 15
    assert stream._pos == 5


@pytest.mark.parametrize("lo, hi", [(5, 5), (5, 3), (5, 6), (0, 2**32 + 1)])
def test_integers_refuse_ranges_outside_2_to_2_32(lo, hi):
    # numpy refuses hi <= lo and draws nothing for one value; past 2^32
    # values every product would be rejected, so the draw would never end
    with pytest.raises(ValueError):
        streams.Stream(0).integers(lo, hi)


@pytest.mark.parametrize("entropy", FRESH_ENTROPIES)
@pytest.mark.parametrize("n", [1, 577, 5000])
@pytest.mark.parametrize("lo, hi", [(-0.1, 0.1), (12.0, 20.0)])
def test_fresh_uniform_matches_the_generator_and_stream(entropy, n, lo, hi):
    # scalar reads of a fresh Stream, stepped in Python ints, against
    # one array read; 577 is the L=64 complex's circles, and 5000 runs
    # past one chunk of the array read
    stream = streams.Stream(entropy)
    got = [stream.uniform(lo, hi) for _ in range(n)]
    generator = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
    assert got == generator.uniform(lo, hi, n).tolist()
    assert got == streams.Stream(entropy).uniform(lo, hi, n).tolist()
    assert all(type(v) is float for v in got)


@pytest.mark.parametrize("seed", [0, 3, 11, 2**40, 2**64 + 5])
@pytest.mark.parametrize("scale", [0.1, 1.0, 2.5])
def test_rep_params_random_matches_the_generator(seed, scale):
    for x in (build_xp(2, 3), LARGE_COMPLEX):
        params = RepParams.random(x, R=20.0, tau=1.0, seed=seed, scale=scale)
        generator = np.random.default_rng(np.random.SeedSequence(seed))
        n = len(x.circles)
        assert list(params.xi) == generator.uniform(-scale, scale, n).tolist()
        assert list(params.eta) == generator.uniform(-scale, scale, n).tolist()
        assert all(type(v) is float for v in params.xi + params.eta)


def test_qi_sampler_reads_numpy_children():
    # certify_qi's sample i: numpy's integers(2, 6), then 3n - 2 doubles,
    # on the generator of child i
    keys = [0, 1, 511, 512, 4096]
    words = streams.spawned_words(4, keys, 3 * elementwise._QI_MAX_SEG - 1)
    n_seg = streams.first_integers(words[:, 0], 2, elementwise._QI_MAX_SEG + 1)
    assert n_seg.dtype == np.int64
    for i, row, n in zip(keys, words, n_seg.tolist()):
        generator = np.random.default_rng(np.random.SeedSequence(4, spawn_key=(i,)))
        assert n == generator.integers(2, 6)
        assert streams.unit_doubles(row[1 : 3 * n - 1]).tolist() == generator.random(3 * n - 2).tolist()


@pytest.mark.parametrize("lo, hi", [(0, 2), (-3, 5), (7, 7 + 2**32)])
def test_first_integers_match_the_generator(lo, hi):
    words = streams.spawned_words(9, range(64), 1)[:, 0]
    got = streams.first_integers(words, lo, hi).tolist()
    want = [
        np.random.default_rng(np.random.SeedSequence(9, spawn_key=(i,))).integers(lo, hi)
        for i in range(64)
    ]
    assert got == want


@pytest.mark.parametrize("lo, hi", [(0, 1), (0, 3), (0, 6), (0, 2**33)])
def test_first_integers_refuse_ranges_that_can_reject(lo, hi):
    with pytest.raises(ValueError):
        streams.first_integers(np.zeros(2, dtype=np.uint64), lo, hi)


def test_negative_entropy_is_refused():
    for entropy in (-1, (3, -1)):
        with pytest.raises(ValueError):
            streams.Stream(entropy)
        with pytest.raises(ValueError):
            RepParams.random(build_xp(2, 3), R=20.0, tau=1.0, seed=entropy)


# one read of each kind: scalar uniform, integers on a range that
# rejects about 30% of its 32-bit draws, and the three array reads
READS = st.one_of(
    st.tuples(st.just("uniform"), st.just(None)),
    st.tuples(st.just("integers"), st.sampled_from([(1, 4), (0, 8), (0, 3_000_000_000)])),
    st.tuples(st.sampled_from(["random", "uniform_n", "words"]), st.integers(0, 5000)),
)


@settings(max_examples=60, deadline=None)
@given(
    entropy=st.sampled_from(ENTROPIES + SWEEP_ENTROPIES),
    scalars=st.lists(st.sampled_from(["uniform", "integers"]), min_size=1, max_size=20),
    reads=st.lists(READS, max_size=30),
)
def test_interleaved_reads_match_the_generator(entropy, scalars, reads):
    # scalar reads first, in Python ints; then any mix, so that scalar
    # reads take the words an array read buffered, across chunk ends
    stream, generator = streams.Stream(entropy), np.random.default_rng(np.random.SeedSequence(entropy))
    raw = generator.bit_generator.random_raw
    reads = [(name, None if name == "uniform" else (0, 8)) for name in scalars] + reads
    for name, arg in reads:
        if name == "uniform":
            got, want = stream.uniform(-0.3, 0.3), generator.uniform(-0.3, 0.3)
            assert type(got) is float
        elif name == "integers":
            got, want = stream.integers(*arg), generator.integers(*arg)
            assert type(got) is int
        elif name == "random":
            got, want = stream.random(arg).tolist(), generator.random(arg).tolist()
        elif name == "uniform_n":
            got, want = stream.uniform(2.0, 5.0, arg).tolist(), generator.uniform(2.0, 5.0, arg).tolist()
        else:
            got, want = stream.words(arg).tolist(), raw(arg).tolist()
        assert got == want, (name, arg)


def test_scalar_reads_load_no_numpy():
    src = str(Path(goodpants.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    probe = (
        "import sys\n"
        "from goodpants.streams import Stream\n"
        "stream = Stream((3, 0x2B1))\n"
        "for _ in range(5000):\n"
        "    stream.uniform(0.0, 1.0)\n"
        "    stream.integers(0, 8)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
