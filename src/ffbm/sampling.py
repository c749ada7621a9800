"""Retained-sample bookkeeping, named seed substreams, and the rules every input
meets: ``check_integer`` and ``check_real``, and their array forms ``check_integers``
and ``check_reals``, which share one entry reader and one interval test."""

from __future__ import annotations

import contextlib
import math
import numbers
import operator

import numpy as np

# Fixed stream ids so every consumer of the master seed draws from an
# independent, reproducible substream.  An id is never renumbered, so
# retiring a stream moves no seed.
_STREAMS = {
    "split": 1,
    "block-chain": 2,
    "weight-chain": 3,
    "reduced-weight-chain": 5,
}


def _as_integer(value, default: int) -> int:
    """The value as a plain int if ``check_integer`` takes it as an integer, else default."""
    try:
        return default if isinstance(value, bool) else operator.index(value)
    except TypeError:
        return default


def _as_real(value, default: float) -> float:
    """The value as a plain float if ``check_real`` takes it as a real number, else default."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # an int past the float range
            return float(value)
    return default


def _inside(number, low, high, brackets: str):
    """Whether the number, or each entry of an array, lies in the interval from
    low to high whose ends brackets opens or closes ("()", "[)", "(]", "[]")."""
    above = number >= low if brackets[0] == "[" else number > low
    below = number <= high if brackets[1] == "]" else number < high
    return above & below


def _read_entries(name: str, values, dtype, read, default, interval: tuple, check):
    """The values, any shape, as a dtype array if each lies in the interval
    (low, high, brackets); else check(entry, value), the scalar rule, raises
    for the first that does not, given its name with index, as in
    ``degrees[2]``, and its value as given.

    An ndarray of a non-bool dtype that casts safely to dtype, or a list of
    them, is cast in one pass.  Anything else is read entry by entry, since
    numpy reads [1, True] and ["0.5"] as numbers: an entry of default's type
    (int or float) is taken as is, any other as read(x, default), and an int
    past int64 as default, which lies outside the interval.
    """
    if all(isinstance(part, np.ndarray) and part.dtype.kind != "b" and np.can_cast(part.dtype, dtype)
           for part in (values if isinstance(values, (list, tuple)) else [values])):
        entries = array = np.asarray(values)
    else:
        entries = np.asarray(values, dtype=object)
        found = [x if type(x) is type(default) else read(x, default) for x in entries.flat]
        try:
            array = np.array(found, dtype).reshape(entries.shape)
        except OverflowError:
            array = np.array([x if abs(x) < 2 ** 63 else default for x in found], dtype).reshape(entries.shape)
    inside = _inside(array, *interval)
    if not inside.all():
        first = int(inside.argmin())
        entry = f"{name}[{', '.join(map(str, np.unravel_index(first, array.shape)))}]"
        value = entries.ravel().tolist()[first]
        check(entry, value)
        raise ValueError(f"{entry} must fit {np.dtype(dtype)}, got {value!r}")  # an int past int64
    return array.astype(dtype, copy=False)


def check_integer(name: str, value, minimum: int, bound=math.inf) -> int:
    """The setting as a plain int if it is an integer in [minimum, bound) (by
    default no upper end): what ``operator.index`` takes, bool aside (so 3 and
    np.int64(3), not 3.0, "3", True or np.True_).  Anything else raises
    ValueError naming the setting."""
    number = _as_integer(value, minimum - 1)
    if not _inside(number, minimum, bound, "[)"):
        kind = (f"an integer in [{minimum}, {bound})" if bound < math.inf else
                "a nonnegative integer" if minimum == 0 else f"an integer of at least {minimum}")
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return number


def check_integers(name: str, values, minimum: int, bound=math.inf) -> np.ndarray:
    """check_integer's array form: the values, any shape, as int64.  The first
    bad entry raises check_integer's ValueError naming its index, as in
    ``degrees[2] must be a nonnegative integer, got 1.5``."""
    return _read_entries(name, values, np.int64, _as_integer, minimum - 1, (minimum, bound, "[)"),
                         lambda entry, value: check_integer(entry, value, minimum, bound))


def check_real(name: str, value, low=-math.inf, high=math.inf, brackets="()") -> float:
    """The setting as a plain float if it is a real number in the interval
    from low to high, whose ends brackets opens or closes ("()", "[)", "(]", "[]").

    A real number is a ``numbers.Real``, bool aside (so 0.5, 1 and
    np.float32(0.5), not "0.5" or True); anything else, and NaN or a value
    outside the interval, raises ValueError naming the setting and interval."""
    number = _as_real(value, math.nan)
    if not _inside(number, low, high, brackets):
        interval = f"{brackets[0]}{low:g}, {high:g}{brackets[1]}"
        raise ValueError(f"{name} must be a real number in {interval}, got {value!r}")
    return number


def check_reals(name: str, values, low=-math.inf, high=math.inf, brackets="()") -> np.ndarray:
    """check_real's array form: the values, any shape, as float64 (by default
    any finite numbers).  The first bad entry raises check_real's ValueError
    naming its index, as in ``feature_probs[1] must be a real number in [0, 1], got 1.5``."""
    return _read_entries(name, values, np.float64, _as_real, math.nan, (low, high, brackets),
                         lambda entry, value: check_real(entry, value, low, high, brackets))


def check_retention(iterations: int, burn_in: float, thinning: int) -> tuple:
    """The settings as (int, float, int) if they give a nonempty retained set.

    Constant time, so a config can be checked without building the list.
    """
    return (check_integer("iterations", iterations, 1), check_real("burn_in", burn_in, 0.0, 1.0, "[)"),
            check_integer("thinning", thinning, 1))


def retained_indices(iterations: int, burn_in: float, thinning: int) -> list:
    """Sample indices kept after burn-in and thinning.

    Returns {round(T*kappa) + i*lam : 0 <= i <= floor((T - round(T*kappa))/lam)},
    a nonempty list ending at or before index T (states are indexed 0..T,
    index 0 being the initial state).
    """
    iterations, burn_in, thinning = check_retention(iterations, burn_in, thinning)
    start = int(np.floor(iterations * burn_in + 0.5))
    count = (iterations - start) // thinning
    return [start + i * thinning for i in range(count + 1)]


def stream_seed_sequence(master_seed: int, stream: str, repetition: int = 0) -> np.random.SeedSequence:
    """Independent SeedSequence for a named substream of one repetition (nonnegative integers)."""
    try:
        stream_id = _STREAMS[stream]
    except KeyError:
        raise ValueError(f"unknown stream {stream!r}; known: {sorted(_STREAMS)}") from None
    return np.random.SeedSequence([check_integer("master_seed", master_seed, 0), stream_id,
                                   check_integer("repetition", repetition, 0)])


def stream_seed_int(master_seed: int, stream: str, repetition: int = 0) -> int:
    """128-bit integer seed for the named substream.

    It seeds a partition chain (stream "block-chain"), whose
    ``BlockChainConfig.seed`` it becomes: ``random.Random`` of it drives
    only the greedy initialiser, and ``np.random.default_rng`` of it the
    sweeps' proposal and acceptance draws.
    """
    words = stream_seed_sequence(master_seed, stream, repetition).generate_state(2, np.uint64)
    return (int(words[0]) << 64) | int(words[1])
