import pytest
from hypothesis import example, given, settings, strategies as st

import reference_core as reference
from littlelab.core import (LabeledInstance, NotInRangeError, Sample,
                            canonical_index, decode_canonical, decode_sample,
                            decode_sequence, encode_sample, encode_sequence)


# ---------------------------------------------------------------------------
# Sample

def test_sample_construction_and_iteration():
    s = Sample.of((3, 1), (0, 0))
    assert len(s) == 2
    assert list(s) == [LabeledInstance(3, 1), LabeledInstance(0, 0)]


def test_sample_rejects_bad_labels_and_negative_instances():
    with pytest.raises(ValueError):
        Sample.of((0, 2))
    with pytest.raises(ValueError):
        Sample.of((-1, 0))


def test_sample_takes_int_values_and_bool_labels():
    s = Sample.of((3, True), (0, False))
    assert s == Sample.of((3, 1), (0, 0))
    assert all(type(v) is int for item in s for v in item)


@pytest.mark.parametrize("pair", [(1.5, 1), ("7", 0), (2, 1.0), (2, "1"), (None, 0)])
def test_sample_refuses_values_that_are_not_integers(pair):
    with pytest.raises(ValueError, match="must be integers"):
        Sample.of(pair)


def test_sample_prefix_law():
    s = Sample.of((1, 1), (2, 0), (3, 1))
    assert s.prefix(0) == Sample()
    assert s.prefix(2).items == s.items[:2]
    with pytest.raises(ValueError):
        s.prefix(4)
    with pytest.raises(ValueError):
        s.prefix(-1)


def test_sample_append():
    s = Sample.of((1, 1)).append(2, 0)
    assert s == Sample.of((1, 1), (2, 0))
    assert s.append(5, 1) == Sample.of((1, 1), (2, 0), (5, 1))


# ---------------------------------------------------------------------------
# Sequence codes

def test_encode_sequence_pinned_values():
    assert encode_sequence(()) == 1
    assert encode_sequence((0,)) == 2
    assert encode_sequence((1, 2)) == 108


def test_decode_sequence_pinned_values():
    assert decode_sequence(1) == ()
    assert decode_sequence(108) == (1, 2)


def test_decode_rejects_prime_gaps_and_nonpositive():
    with pytest.raises(NotInRangeError):
        decode_sequence(10)  # 2 * 5 skips 3
    with pytest.raises(NotInRangeError):
        decode_sequence(5)  # 5 alone skips 2 and 3
    with pytest.raises(NotInRangeError):
        decode_sequence(0)


def test_encode_rejects_negative_entries():
    with pytest.raises(ValueError):
        encode_sequence((1, -2))


@given(st.lists(st.integers(min_value=0, max_value=50), max_size=6))
def test_sequence_round_trip(entries):
    assert decode_sequence(encode_sequence(entries)) == tuple(entries)


# Entries 0-2 decide the low exponent bits, entries below 64 give exponents
# of up to seven bits, and the wide range gives long chains of squarings.
ENTRIES = st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 63), st.integers(0, 5 * 10 ** 4))


@settings(max_examples=300, deadline=None)
@given(st.lists(ENTRIES, max_size=12))
def test_encode_sequence_matches_the_product_of_powers(entries):
    code = encode_sequence(entries)
    assert type(code) is int
    assert code == reference.encode_sequence(entries)


def test_sequence_injectivity_exhaustive_small():
    codes = {}
    from itertools import product
    for length in range(3):
        for z in product(range(8), repeat=length):
            code = encode_sequence(z)
            assert code not in codes, (z, codes[code])
            codes[code] = z


# ---------------------------------------------------------------------------
# Sample codes

def test_encode_sample_pinned_values():
    assert encode_sample(Sample()) == 1
    assert encode_sample(Sample.of((3, 1))) == 144
    assert encode_sample(Sample.of((0, 0), (1, 1))) == 7350


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=30),
                          st.integers(min_value=0, max_value=1)), max_size=5))
def test_sample_code_round_trip(pairs):
    s = Sample.of(*pairs)
    assert decode_sample(encode_sample(s)) == s


def test_decode_sample_rejects_odd_length():
    with pytest.raises(NotInRangeError):
        decode_sample(2)  # decodes to the length-1 sequence (0,)


def test_decode_sample_rejects_bad_label():
    code = encode_sequence((0, 2))  # label slot holds 2
    with pytest.raises(ValueError):
        decode_sample(code)


def test_sample_prefix_code_law():
    s = Sample.of((2, 1), (0, 0), (4, 1))
    for n in range(len(s) + 1):
        assert decode_sample(encode_sample(s.prefix(n))) == s.prefix(n)


# ---------------------------------------------------------------------------
# Canonical set codes

def test_canonical_index_pinned_values():
    assert canonical_index(()) == 0
    assert canonical_index({0, 2}) == 5
    assert decode_canonical(5) == frozenset({0, 2})


@given(st.frozensets(st.integers(min_value=0, max_value=40), max_size=8))
@example(frozenset({0, 40, 1 << 17}))
def test_canonical_round_trip(members):
    assert decode_canonical(canonical_index(members)) == members


def test_canonical_rejects_negative():
    with pytest.raises(ValueError):
        canonical_index({-1})
    with pytest.raises(ValueError):
        decode_canonical(-3)
