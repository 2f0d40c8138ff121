import numpy as np
import pytest

from goodpants import holonomy, streams
from goodpants.complexes import build_xp
from goodpants.holonomy import RepParams

ENTROPIES = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**200]
# the sweeps' streams: delta, two-planes and angle-change
SWEEP_ENTROPIES = [(s, tag) for s in (0, 7, 2**32 + 5) for tag in (0x6C5, 0x2B1, 0x3A7)]
# from 2^32 a key is two uint32 words, which take one more mixing round
KEYS = [0, 511, 512, 2**32 - 1, 2**32, 2**40]
# one word, a QI sample's words, and either side of a chunk
LENGTHS = [1, 14, 4095, 4096, 4097]


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
    words = iter(streams.Stream(entropy))
    got = [next(words) for _ in want]
    assert got == want
    assert all(type(w) is int for w in got)


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


@pytest.mark.parametrize("seed", [0, 3, 11, 2**40])
@pytest.mark.parametrize("scale", [0.1, 1.0, 2.5])
def test_rep_params_random_matches_the_generator(seed, scale):
    x = build_xp(2, 3)
    params = RepParams.random(x, R=20.0, tau=1.0, seed=seed, scale=scale)
    generator = np.random.default_rng(np.random.SeedSequence(seed))
    n = len(x.circles)
    assert list(params.xi) == generator.uniform(-scale, scale, n).tolist()
    assert list(params.eta) == generator.uniform(-scale, scale, n).tolist()
    assert all(type(v) is float for v in params.xi + params.eta)


def test_qi_sampler_reads_numpy_children():
    # certify_qi's sample i: numpy's integers(2, 6), then 3n - 2 doubles,
    # on the generator of child i
    for i in (0, 1, 511, 512, 4096):
        generator = np.random.default_rng(np.random.SeedSequence(4, spawn_key=(i,)))
        n = int(generator.integers(2, 6))
        words = streams.spawned_words(4, [i], 3 * holonomy._QI_MAX_SEG - 1)[0]
        assert 2 + ((int(words[0]) & 0xFFFFFFFF) >> 30) == n
        want = generator.random(3 * n - 2).tolist()
        assert ((words[1 : 3 * n - 1] >> np.uint64(11)) * 2.0**-53).tolist() == want


def test_negative_entropy_is_refused():
    with pytest.raises(ValueError):
        streams.Stream(-1)
