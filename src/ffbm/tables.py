"""Shared combinatorial tables: logs of integers, log-factorials and
restricted partition counts.

All three tables hold floats and grow on demand; the partition counts behind
the last are exact integers (see PartitionCountTable).  All logs are natural
logs.
"""

import math
from array import array

# Log-factorial and log lookups, extended geometrically on demand.  The hot
# path (the move kernel of the block sampler) reads them by plain list
# indexing.
_LOG_FACT = [0.0, 0.0]
_LOG_INT = [-math.inf, 0.0]  # _LOG_INT[k] is math.log(k); entry 0 is its limit
LOG2 = math.log(2.0)


def log_integer(n: int) -> float:
    """math.log(n) for an integer n >= 0 (-inf at 0) via a growing lookup table."""
    if n < 0:
        raise ValueError(f"log_integer of negative value {n}")
    table = _LOG_INT
    if n >= len(table):
        table.extend(map(math.log, range(len(table), max(n + 1, 2 * len(table)))))
    return table[n]


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


def _extend_row(tail, below, n: int) -> list:
    """Row n of q continued past its tail, by q(m, n) = q(m, n-1) + q(m-n, n).

    tail holds row n's n exact values before the new columns (zeros stand
    for m < 0); below holds row n-1's exact values at the new columns.
    Returns tail followed by row n's values at the new columns.
    """
    seq = list(tail)
    append = seq.append
    for j, q_below in enumerate(below):
        append(q_below + seq[j])
    return seq


def _check_arguments(m: int, n: int) -> None:
    if m < 0 or n < 0:
        raise ValueError(f"q({m}, {n}) undefined for negative arguments")


def count_partitions(m: int, n: int) -> int:
    """Exact q(m, n), the number of partitions of m into at most n parts.

    Computed on demand, in O(m min(m, n)) big-integer additions, by the
    recurrence that fills PartitionCountTable.
    """
    _check_arguments(m, n)
    if m == 0:
        return 1
    row = [1] + [0] * m  # q(., 0)
    for k in range(1, min(n, m) + 1):
        row = _extend_row([0] * k, row, k)[k:]
    return row[m]


class PartitionCountTable:
    """log q(m, n), where q(m, n) counts the partitions of m into at most n parts.

    rows[n][m] is math.log(q(m, n)) for 1 <= n < len(rows) and 0 <= m <= the
    table's width, one array('d') row per n.  Row 0 holds only q(0, 0) = 1:
    q(m, 0) = 0 for m > 0 has no log, and reading it misses the row.  Above
    the diagonal, rows[n][m] = rows[m][m], since q(m, n) = q(m, m) for n > m.

    The cells come from the exact integer recurrence
    q(m, n) = q(m, n-1) + q(m-n, n), so each is the log of the exact count.
    The table keeps only the integers that growth needs: the last row in
    full, to add rows, and the last n values of each row n (its tail), to
    widen every row in place.  That is about n^2/2 integers beside the
    n * width floats.
    """

    def __init__(self):
        self.rows = [array("d", [0.0])]
        self._width = 0
        self._tails = [[]]  # _tails[n]: row n's exact values at m = width-n+1 .. width
        self._last = [1]  # the last row's exact values at m = 0 .. width

    def _widen(self, width: int) -> None:
        below = [0] * (width - self._width)  # q(m, 0) = 0 for m > 0
        for n in range(1, len(self.rows)):
            seq = _extend_row(self._tails[n], below, n)
            below = seq[n:]
            self._tails[n] = seq[-n:]
            self.rows[n].fromlist(list(map(math.log, below)))
        self._last.extend(below)
        self._width = width

    def _deepen(self, n_max: int) -> None:
        below = self._last
        for n in range(len(self.rows), n_max + 1):
            seq = _extend_row([0] * n, below, n)
            below = seq[n:]
            self._tails.append(seq[-n:])
            self.rows.append(array("d", list(map(math.log, below))))
        self._last = below

    def log_count(self, m: int, n: int) -> float:
        """log q(m, n); requires q(m, n) > 0 (i.e. not m > 0 with n = 0)."""
        _check_arguments(m, n)
        n = min(n, m)
        if n == 0 and m > 0:
            raise ValueError(f"log q({m}, {n}) of zero count")
        if m > self._width:
            # Rows widen in place, so a step of a quarter recomputes nothing
            # and leaves at most a fifth of the columns unread.
            self._widen(max(m, self._width + self._width // 4))
        if n >= len(self.rows):
            self._deepen(n)
        return self.rows[n][m]


# Module-level singleton: chains within one process share the DP work.
_PARTITION_TABLE = PartitionCountTable()
_ROWS = _PARTITION_TABLE.rows


def log_count_partitions(m: int, n: int) -> float:
    """log q(m, n): two list indexings once the table covers (m, n).

    The move kernel indexes the table's rows itself and calls this only on
    a miss, which grows the table.
    """
    if m >= 0 and n >= 0:
        try:
            return _ROWS[n][m]
        except IndexError:
            pass
    return _PARTITION_TABLE.log_count(m, n)
