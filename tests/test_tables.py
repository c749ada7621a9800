import functools
import itertools
import math
import tracemalloc
from array import array

import pytest
from hypothesis import example, given, settings, strategies as st

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


def test_merged_partition_count_is_at_least_either_part():
    # The merge kernel's lower bound: q(m, n) does not decrease in either
    # argument for n >= 1, so q(m1 + m2, n1 + n2) >= max(q(m1, n1), q(m2, n2)).
    for m1, m2 in itertools.product(range(16), repeat=2):
        for n1, n2 in itertools.product(range(1, 7), repeat=2):
            merged = count_partitions(m1 + m2, n1 + n2)
            assert merged >= max(count_partitions(m1, n1), count_partitions(m2, n2))


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
    assert table.log_count(100, 100) == math.log(count_partitions(100, 100))
    assert table.log_count(7, 3) == math.log(count_partitions(7, 3))
    assert count_partitions(7, 3) == enumerate_partitions(7, 3)


class BigIntegerTable:
    """Reference: the exact big-integer DP that stored every q(m, n) as an int.

    _rows[n][m] = q(m, n), grown lazily on q(m, n) = q(m, n-1) + q(m-n, n).
    """

    def __init__(self):
        self._rows = [[1]]
        self._max_m = 0

    def _grow(self, m, n):
        if m > self._max_m:
            new_max = max(m, 2 * self._max_m)
            row0 = self._rows[0]
            row0.extend([0] * (new_max - len(row0) + 1))
            for n_row in range(1, len(self._rows)):
                row = self._rows[n_row]
                prev = self._rows[n_row - 1]
                for mm in range(len(row), new_max + 1):
                    val = prev[mm]
                    if mm >= n_row:
                        val += row[mm - n_row]
                    row.append(val)
            self._max_m = new_max
        while len(self._rows) <= n:
            n_row = len(self._rows)
            prev = self._rows[n_row - 1]
            row = [1]
            for mm in range(1, self._max_m + 1):
                val = prev[mm]
                if mm >= n_row:
                    val += row[mm - n_row]
                row.append(val)
            self._rows.append(row)

    def count(self, m, n):
        if m == 0:
            return 1
        n = min(n, m)
        self._grow(m, n)
        return self._rows[n][m]


# Requests below ask for m <= 400 and n <= 80.  The table never widens past
# twice the largest m asked for, which the reference rows cover.
MAX_M, MAX_N = 400, 80


@functools.cache
def reference_log_rows():
    """math.log(q(m, n)) for m = 0 .. 2 MAX_M, as the bytes of one array('d') per n."""
    reference = BigIntegerTable()
    reference._grow(2 * MAX_M, MAX_N)
    return {n: array("d", map(math.log, row)).tobytes()
            for n, row in enumerate(reference._rows) if n}


@given(st.lists(st.tuples(st.integers(0, MAX_M), st.integers(0, MAX_N))
                | st.tuples(st.integers(0, MAX_N // 2), st.integers(0, MAX_N)),
                min_size=1, max_size=12))
@example([(0, 7), (5, 60), (400, 3), (12, 80), (3, 0), (200, 80), (0, 0)])
@settings(max_examples=60, deadline=None)
def test_cells_are_the_logs_of_exact_counts_under_any_growth_order(requests):
    # Requests interleave widening (larger m) with new rows (larger n), and
    # include n > m (clamped) and m = 0.  After each, every stored cell must
    # be math.log of the exact count, bit for bit.
    reference = BigIntegerTable()
    expected_rows = reference_log_rows()
    table = PartitionCountTable()
    for m, n in requests:
        if m > 0 and n == 0:
            with pytest.raises(ValueError):
                table.log_count(m, n)
            continue
        assert table.log_count(m, n).hex() == math.log(reference.count(m, n)).hex()
        for k in range(1, len(table.rows)):
            row = table.rows[k].tobytes()
            assert row == expected_rows[k][:len(row)], (m, n, k)


def test_table_stores_about_one_float_per_cell():
    # Bound: 16 bytes per cell, twice the 8 of the stored float.  The other 8
    # cover the exact integers kept for growth (the last row and each row's
    # last n values) and the fill's transient rows.  A table of big-integer
    # rows takes several times the bound.
    m, n = 3000, 300
    tracemalloc.start()
    try:
        table = PartitionCountTable()
        table.log_count(m, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * (m + 1) * n


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
