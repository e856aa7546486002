import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from littlelab.classes import (ClassFileError, EnumerableClass, FiniteClass, from_file,
                               hd_prime, hd_prime_extra_instances, singletons,
                               thresholds, to_file)
from littlelab.core import Sample
from conftest import seeded_classes


# ---------------------------------------------------------------------------
# FiniteClass

def test_finite_class_validation():
    with pytest.raises(ValueError):
        FiniteClass(2, frozenset({4}))  # bit 2 outside domain {0,1}
    with pytest.raises(ValueError):
        FiniteClass(-1, frozenset())
    with pytest.raises(ValueError):
        FiniteClass(10 ** 12, frozenset({-1}))
    # A row is checked by a shift, not against a domain_size-bit mask.
    assert len(FiniteClass(10 ** 12, frozenset({1 << 40}))) == 1


def test_row_strings_round_trip(tmp_path):
    path = tmp_path / "class.json"
    path.write_text(json.dumps({"domain_size": 3, "hypotheses": ["101", "010"]}))
    H = from_file(str(path))
    assert H.domain_size == 3
    assert sorted(H.row_string(r) for r in H.rows) == ["010", "101"]
    to_file(FiniteClass(0, frozenset()), str(path))
    assert from_file(str(path)) == FiniteClass(0, frozenset())


def test_from_strings_rejects_ragged_or_nonbinary(tmp_path):
    path = tmp_path / "class.json"
    path.write_text(json.dumps({"domain_size": 2, "hypotheses": ["10", "1"]}))
    with pytest.raises(ClassFileError, match="entry 2"):
        from_file(str(path))
    path.write_text(json.dumps({"domain_size": 2, "hypotheses": ["10", "1x"]}))
    with pytest.raises(ClassFileError, match="entry 2"):
        from_file(str(path))


def test_from_hypotheses_deduplicates():
    H = FiniteClass.from_hypotheses(
        3, [frozenset({0}).__contains__, frozenset({0, 5}).__contains__])
    assert len(H) == 1  # instance 5 is outside the domain


# ---------------------------------------------------------------------------
# Restriction

def test_constrain_partitions_the_class():
    rng = random.Random(11)
    for H in seeded_classes(3, 20):
        for x in H.domain():
            ones = H.restricted_to(H.version_space(((x, 1),)))
            zeros = H.restricted_to(H.version_space(((x, 0),)))
            assert len(ones) + len(zeros) == len(H)
            assert ones.rows | zeros.rows == H.rows
            # Idempotence
            assert ones.restricted_to(ones.version_space(((x, 1),))) == ones


def test_constrain_validates_arguments():
    H = thresholds(2)
    with pytest.raises(ValueError, match="^instance 4 outside domain of size 4$"):
        H.version_space(((4, 1),))
    with pytest.raises(ValueError, match="^label must be 0 or 1, got 2$"):
        H.version_space(((0, 2),))


def test_restrict_is_iterated_constrain():
    H = thresholds(2)
    s = Sample.of((0, 1), (2, 0))
    first = H.restricted_to(H.version_space(((0, 1),)))
    assert (H.restricted_to(H.version_space(s))
            == first.restricted_to(first.version_space(((2, 0),))))


@st.composite
def classes_with_samples(draw):
    domain = draw(st.integers(min_value=1, max_value=7))
    rows = draw(st.frozensets(
        st.integers(min_value=0, max_value=(1 << domain) - 1), max_size=14))
    pairs = draw(st.lists(st.tuples(st.integers(min_value=0, max_value=domain - 1),
                                    st.integers(min_value=0, max_value=1)), max_size=6))
    return FiniteClass(domain, rows), Sample.of(*pairs)


@settings(max_examples=200, deadline=None)
@given(classes_with_samples())
def test_restrict_and_constrain_match_the_row_filter(case):
    H, sample = case
    assert H.restricted_to(H.version_space(sample)).rows == frozenset(
        r for r in H.rows if all((r >> x) & 1 == y for x, y in sample))
    for x in H.domain():
        for y in (0, 1):
            assert H.restricted_to(H.version_space(((x, y),))).rows == frozenset(
                r for r in H.rows if (r >> x) & 1 == y)
    n = H.domain_size
    with pytest.raises(ValueError, match=f"^instance {n} outside domain of size {n}$"):
        H.version_space(sample.append(n, 1))


def test_version_space_decides_realizability():
    H = thresholds(2)
    s = Sample.of((0, 1), (3, 0))
    assert H.version_space(s)
    assert not H.version_space(Sample.of((1, 1), (0, 0)))


# ---------------------------------------------------------------------------
# Builders

def test_thresholds_shape():
    H = thresholds(3)
    assert H.domain_size == 8 and len(H) == 8
    assert all(bin(r).count("1") == len(bin(r)) - 2 for r in H.rows)  # prefixes


def test_singletons_shape():
    H = singletons(4)
    assert H.domain_size == 4 and len(H) == 4
    assert H.rows == frozenset({1, 2, 4, 8})


def test_hd_prime_shape():
    H = hd_prime(3)
    assert H.domain_size == 10 and len(H) == 9
    extras = hd_prime_extra_instances(3)
    assert extras == [8, 9]
    extra_row = sum(1 << x for x in extras)
    assert extra_row in H.rows
    assert thresholds(3).rows <= H.rows


def test_builder_validation():
    for builder in (thresholds, singletons, hd_prime):
        with pytest.raises(ValueError):
            builder(0)


# ---------------------------------------------------------------------------
# Files

def test_class_file_round_trip(tmp_path):
    H = hd_prime(2)
    path = tmp_path / "class.json"
    to_file(H, str(path))
    assert from_file(str(path)) == H


def test_class_file_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ClassFileError):
        from_file(str(path))
    path.write_text(json.dumps({"domain_size": 2, "hypotheses": ["10", "10"]}))
    with pytest.raises(ClassFileError, match="entry 2"):
        from_file(str(path))
    path.write_text(json.dumps({"domain_size": 2, "hypotheses": ["102"]}))
    with pytest.raises(ClassFileError, match="entry 1"):
        from_file(str(path))
    path.write_text(json.dumps({"wrong": 1}))
    with pytest.raises(ClassFileError):
        from_file(str(path))


# ---------------------------------------------------------------------------
# Enumerable classes

def test_embed_finite_truncation_recovers_class():
    H = hd_prime(2)
    E = EnumerableClass.embed_finite(H)
    assert E.truncation(H.domain_size) == H
    assert all(E.generator(i) is not None for i in range(E.enumeration_budget))


def test_enumerable_absent_slots_and_constrained():
    def gen(i):
        if i % 2:
            return None
        return frozenset({i}).__contains__

    E = EnumerableClass(gen, 6)
    assert [i for i in range(6) if E.generator(i) is None] == [1, 3, 5]
    assert [i for i, _ in E.hypotheses()] == [0, 2, 4]
    constrained = E.constrained(((0, 0),))  # kills the support-{0} hypothesis
    present = [i for i, _ in constrained.hypotheses()]
    assert present == [2, 4]

