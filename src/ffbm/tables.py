"""Shared combinatorial tables: log-factorials and restricted partition counts.

Everything here is exact (integer DP) or table-driven (float log-factorials),
and grows on demand.  All logs are natural logs.
"""

import math

# Log-factorial lookup, extended geometrically on demand.  The hot paths
# (move deltas in the block sampler) must be plain list indexing.
_LOG_FACT = [0.0, 0.0]
LOG2 = math.log(2.0)


def log_factorial(n: int) -> float:
    """log(n!) via a growing lookup table."""
    if n < 0:
        raise ValueError(f"log_factorial of negative value {n}")
    table = _LOG_FACT
    if n >= len(table):
        for m in range(len(table), max(n + 1, 2 * len(table))):
            table.append(table[-1] + math.log(m))
    return table[n]


def log_double_factorial_even(n: int) -> float:
    """log(n!!) for even n, using (2m)!! = 2^m m!."""
    if n < 0 or n % 2:
        raise ValueError(f"even double factorial needs even n >= 0, got {n}")
    m = n // 2
    return m * LOG2 + log_factorial(m)


def log_binomial(n: int, m: int) -> float:
    """log C(n, m); 0 outside the valid range would be -inf, which we forbid."""
    if m < 0 or m > n:
        raise ValueError(f"binomial ({n}, {m}) out of range")
    return log_factorial(n) - log_factorial(m) - log_factorial(n - m)


def log_multiset(n: int, m: int) -> float:
    """log of the multiset coefficient C(n + m - 1, m): histograms of m items in n bins."""
    if n <= 0:
        if m == 0:
            return 0.0
        raise ValueError(f"multiset coefficient with {n} bins and {m} items")
    return log_binomial(n + m - 1, m)


class PartitionCountTable:
    """Restricted partition counts q(m, n): partitions of m into at most n parts.

    Exact big-integer dynamic programming on the recurrence
    q(m, n) = q(m, n-1) + q(m-n, n), with q(0, n) = 1 and q(m, 0) = 0 for
    m > 0.  Rows are built lazily; n is clamped to m since parts larger
    than m never occur.  Log values are cached as floats in log_cache,
    keyed by the (m, n) asked for.
    """

    def __init__(self):
        # _rows[n][m] = q(m, n); row 0 is the base case.
        self._rows = [[1]]
        self._max_m = 0
        self.log_cache = {}

    def _grow(self, m: int, n: int) -> None:
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

    def count(self, m: int, n: int) -> int:
        """Exact q(m, n)."""
        if m < 0 or n < 0:
            raise ValueError(f"q({m}, {n}) undefined for negative arguments")
        if m == 0:
            return 1
        n = min(n, m)
        if n == 0:
            return 0
        if m > self._max_m or n >= len(self._rows):
            self._grow(m, n)
        return self._rows[n][m]

    def log_count(self, m: int, n: int) -> float:
        """log q(m, n); requires q(m, n) > 0 (i.e. not m > 0 with n = 0)."""
        cached = self.log_cache.get((m, n))
        if cached is None:
            q = self.count(m, n)
            if q == 0:
                raise ValueError(f"log q({m}, {n}) of zero count")
            cached = math.log(q)
            self.log_cache[m, n] = cached
        return cached


# Module-level singleton: chains within one process share the DP work.
_PARTITION_TABLE = PartitionCountTable()
_LOG_Q = _PARTITION_TABLE.log_cache


def count_partitions(m: int, n: int) -> int:
    """Number of partitions of m into at most n parts."""
    return _PARTITION_TABLE.count(m, n)


def log_count_partitions(m: int, n: int) -> float:
    """log q(m, n): one dict lookup once (m, n) has been seen.

    The move-delta kernel calls this 2B + 2 times per greedy visit.
    """
    try:
        return _LOG_Q[m, n]
    except KeyError:
        return _PARTITION_TABLE.log_count(m, n)
