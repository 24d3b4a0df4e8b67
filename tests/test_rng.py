import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hselab import rng
from hselab.rng import (
    RandomStream,
    block_uniforms,
    bulk_uniforms,
    numerator_index,
    scaled_index,
    stream_key,
    trial_keys,
    trial_words,
    value_at,
)

WORD = st.one_of(st.sampled_from([0, 1, 2**63, 2**64 - 1]), st.integers(0, 2**64 - 1))


def draws(stream, n):
    """The stream's next n draws as an array."""
    return np.array([stream.uniform() for _ in range(n)])


def test_same_seed_same_sequence():
    a = RandomStream(1234, "role", 9)
    b = RandomStream(1234, "role", 9)
    assert [a.uniform() for _ in range(20)] == [b.uniform() for _ in range(20)]


def test_different_ids_give_different_sequences():
    by_ids = {
        ids: tuple(draws(RandomStream(7, *ids), 4).tolist())
        for ids in [("alice", 0), ("alice", 1), ("bob", 0), ("eve", 0), (0, "alice")]
    }
    assert len(set(by_ids.values())) == len(by_ids)


def test_skip_equals_discarding():
    a = RandomStream(99, 1)
    b = RandomStream(99, 1)
    for _ in range(5):
        a.uniform()
    b.skip(5)
    assert a.uniform() == b.uniform()


def test_bulk_uniforms_match_per_stream():
    trials = np.arange(10, 20, dtype=np.uint64)
    keys = trial_keys(123, "bob", trial_words(trials))
    for counter in (0, 1, 7):
        bulk = bulk_uniforms(keys, counter)
        assert bulk.dtype == np.uint64
        for i, t in enumerate(range(10, 20)):
            stream = RandomStream(123, "bob", t)
            stream.skip(counter)
            assert int(bulk[i]) == value_at(int(keys[i]), counter) >> 11
            assert int(bulk[i]) * 2.0**-53 == stream.uniform()


def test_trial_keys_match_scalar_keys():
    trials = np.arange(0, 5, dtype=np.uint64)
    words = trial_words(trials)
    for role in ("alice", "bob", "eve"):
        keys = trial_keys(42, role, words)
        for i, t in enumerate(range(5)):
            assert int(keys[i]) == stream_key(42, role, t)


@given(
    seed=st.integers(0, 2**64 - 1),
    role=st.sampled_from(["alice", "bob", "eve"]),
    start=st.integers(0, 10**18),
    count=st.integers(1, 5),
    width=st.integers(1, 14),
)
@settings(max_examples=200, deadline=None)
def test_block_uniforms_rows_are_successive_scalar_draws(seed, role, start, count, width):
    block = block_uniforms(seed, role, start, count, width)
    assert block.shape == (count, width)
    for i in range(count):
        stream = RandomStream(seed, role, start + i)
        assert block[i].tolist() == [stream.uniform() for _ in range(width)]


def test_block_uniforms_wrap_trial_ids_as_stream_ids_do():
    block = block_uniforms(3, "eve", 2**64 - 2, 4, 2)
    for i in range(4):
        stream = RandomStream(3, "eve", 2**64 - 2 + i)
        assert block[i].tolist() == [stream.uniform(), stream.uniform()]


@given(st.lists(WORD, max_size=40))
@example([0, 2**64 - 1])
@settings(max_examples=200, deadline=None)
def test_array_mix_equals_scalar_mix(words):
    mixed = rng._mix64_in_place(np.array(words, dtype=np.uint64))
    assert mixed.dtype == np.uint64
    assert mixed.tolist() == [rng._mix64(w) for w in words]


@given(st.lists(WORD, min_size=1, max_size=40), st.integers(0, 40))
@settings(max_examples=100, deadline=None)
def test_array_kernels_leave_their_inputs_unchanged(words, counter):
    inputs = np.array(words, dtype=np.uint64)
    kept = inputs.copy()
    bulk_uniforms(inputs, counter)
    trial_words(inputs)
    trial_words(inputs.view(np.int64))
    trial_keys(5, "bob", inputs)
    assert inputs.tobytes() == kept.tobytes()
    # no kernel mutates shared state: a second call gives the same words
    first = block_uniforms(5, "bob", words[0], 3, 4)
    assert block_uniforms(5, "bob", words[0], 3, 4).tobytes() == first.tobytes()


def test_values_lie_in_unit_interval():
    u = draws(RandomStream(0), 10_000)
    assert np.all(u >= 0.0) and np.all(u < 1.0)


def test_uniformity_coarse():
    counts, _ = np.histogram(draws(RandomStream(2024), 100_000), bins=10, range=(0.0, 1.0))
    expected = 10_000
    assert np.all(np.abs(counts - expected) < 4 * np.sqrt(expected))


def test_randint_range_and_coverage():
    stream = RandomStream(1)
    draws = [stream.randint(6) for _ in range(5000)]
    assert set(draws) == set(range(6))


def test_scaled_index_scalar_and_array_agree():
    u = draws(RandomStream(8), 1000)
    array_result = scaled_index(u, 7)
    assert array_result.tolist() == [scaled_index(float(v), 7) for v in u]
    assert array_result.min() >= 0 and array_result.max() <= 6


def letter_boundaries(n: int) -> list:
    """The numerators at, and one either side of, ceil(k * 2**53 / n) for
    every k from 0 to n: where scaled_index's letter steps up, and where
    the rounded product could reach the next letter early."""
    steps = (-(-k * 2**53 // n) + e for k in range(n + 1) for e in (-1, 0, 1))
    return [m for m in steps if 0 <= m < 2**53]


def check_numerator_index(numerators, n: int) -> None:
    m = np.array(numerators, dtype=np.uint64)
    out = np.empty(len(m), np.min_scalar_type(-n))
    numerator_index(m, n, out)
    assert out.tolist() == [scaled_index(k * 2.0**-53, n) for k in numerators], n


@pytest.mark.parametrize("n", range(1, 129))
def test_numerator_index_equals_scaled_index_at_every_step(n):
    check_numerator_index(letter_boundaries(n), n)


@given(st.integers(1, 128), st.lists(st.integers(0, 2**53 - 1), min_size=1, max_size=50))
@settings(max_examples=300, deadline=None)
def test_numerator_index_equals_scaled_index(n, numerators):
    check_numerator_index(numerators, n)


def test_numerator_index_needs_no_cap():
    # the largest draw below 1 stays below n for every n: the product never
    # rounds up to n, so numerator_index has no cap
    n = np.arange(1, 20_001)
    top = np.full(len(n), 2**53 - 1, dtype=np.uint64)
    out = np.empty(len(n), dtype=np.int64)
    assert numerator_index(top, n, out).tolist() == (n - 1).tolist()
    assert out.tolist() == [scaled_index((2**53 - 1) * 2.0**-53, int(k)) for k in n]


def test_bad_stream_ids_rejected():
    with pytest.raises(TypeError):
        RandomStream(0, 1.5)
    with pytest.raises(TypeError):
        RandomStream(0, True)


def test_randint_rejects_nonpositive():
    with pytest.raises(ValueError):
        RandomStream(0).randint(0)
