import math

import pytest
from hypothesis import given, settings, strategies as st

from ffbm.tables import (
    PartitionCountTable,
    count_partitions,
    log_count_partitions,
    log_double_factorial_even,
    log_factorial,
    log_multiset,
)


def enumerate_partitions(total, max_parts, max_part=None):
    """Brute-force count of partitions of total into at most max_parts parts."""
    if max_part is None:
        max_part = total
    if total == 0:
        return 1
    if max_parts == 0 or max_part == 0:
        return 0
    count = 0
    for first in range(min(total, max_part), 0, -1):
        count += enumerate_partitions(total - first, max_parts - 1, first)
    return count


def test_count_partitions_examples():
    # {4}, {3,1}, {2,2}
    assert count_partitions(4, 2) == 3
    # all 7 partitions of 5
    assert count_partitions(5, 5) == 7
    for m in range(12):
        assert count_partitions(m, 1) == 1


def test_count_partitions_matches_enumeration():
    for m in range(13):
        for n in range(9):
            assert count_partitions(m, n) == enumerate_partitions(m, n), (m, n)


def test_count_partitions_base_cases():
    assert count_partitions(0, 0) == 1
    assert count_partitions(3, 0) == 0
    with pytest.raises(ValueError):
        count_partitions(-1, 2)


@given(st.integers(0, 60), st.integers(0, 60))
@settings(max_examples=80, deadline=None)
def test_count_partitions_clamped_and_monotone(m, n):
    assert count_partitions(m, n) == count_partitions(m, min(n, m))
    assert count_partitions(m, n) <= count_partitions(m, n + 1)


def test_log_count_partitions():
    assert log_count_partitions(0, 0) == 0.0
    assert math.isclose(log_count_partitions(4, 2), math.log(3), rel_tol=1e-12)
    with pytest.raises(ValueError):
        log_count_partitions(3, 0)


@pytest.mark.parametrize("m, n", [(7, 3), (30, 4), (7, 7), (7, 20), (1, 1), (0, 0), (0, 5)])
def test_log_count_partitions_is_the_log_of_the_count(m, n):
    # Asked twice: the first call fills the cache, the second reads it.
    for _ in range(2):
        assert log_count_partitions(m, n) == math.log(count_partitions(m, n))


def test_fresh_table_growth():
    table = PartitionCountTable()
    assert table.count(100, 100) == count_partitions(100, 100)
    assert table.count(7, 3) == enumerate_partitions(7, 3)


def test_log_factorial_against_lgamma():
    for n in (0, 1, 2, 5, 40, 173):
        assert math.isclose(log_factorial(n), math.lgamma(n + 1), rel_tol=1e-12, abs_tol=1e-12)
    with pytest.raises(ValueError):
        log_factorial(-1)


def test_log_double_factorial_even():
    # (2m)!! = 2^m m!: 0!!=1, 2!!=2, 4!!=8, 6!!=48
    assert math.isclose(log_double_factorial_even(0), 0.0, abs_tol=1e-15)
    assert math.isclose(log_double_factorial_even(2), math.log(2), rel_tol=1e-12)
    assert math.isclose(log_double_factorial_even(4), math.log(8), rel_tol=1e-12)
    assert math.isclose(log_double_factorial_even(6), math.log(48), rel_tol=1e-12)
    with pytest.raises(ValueError):
        log_double_factorial_even(3)


def test_log_multiset():
    # histograms of m items in n bins: C(n+m-1, m)
    assert math.isclose(log_multiset(3, 2), math.log(6), rel_tol=1e-12)
    assert log_multiset(1, 0) == 0.0
    assert math.isclose(log_multiset(1, 5), 0.0, abs_tol=1e-12)
