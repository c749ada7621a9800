"""Retained-sample bookkeeping, named seed substreams, and the rules every input
meets: ``check_integer`` and its array form for integers, ``check_real`` for reals."""

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


def check_integer(name: str, value, minimum: int) -> int:
    """The setting as a plain int if it is an integer of at least minimum: what
    ``operator.index`` takes, bool aside (so 3 and np.int64(3), not 3.0, "3",
    True or np.True_).  Anything else raises ValueError naming the setting."""
    number = _as_integer(value, minimum - 1)
    if number < minimum:
        bound = "a nonnegative integer" if minimum == 0 else f"an integer of at least {minimum}"
        raise ValueError(f"{name} must be {bound}, got {value!r}")
    return number


def check_integers(name: str, values, minimum: int, bound=None) -> np.ndarray:
    """check_integer's array form: the values, any shape, as int64 if each is an
    integer in [minimum, bound) (bound None: no upper end).  An integer ndarray
    that fits int64, or a list of them, is read in one pass, anything else entry
    by entry: numpy reads [1, True] as integers.  The first bad entry raises
    ValueError naming its index, as in ``degrees[2] must be ..., got 1.5``."""
    array = entries = np.asarray(values)
    parts = values if isinstance(values, (list, tuple)) else [values]
    if not (all(isinstance(part, np.ndarray) and part.dtype.kind in "iu" for part in parts)
            and np.can_cast(array.dtype, np.int64)):
        entries = np.asarray(values, dtype=object)
        array = np.array([x if type(x) is int else _as_integer(x, minimum - 1) for x in entries.flat],
                         dtype=np.int64).reshape(entries.shape)
    outside = array < minimum if bound is None else (array < minimum) | (array >= bound)
    if outside.any():
        first = int(outside.argmax())
        entry = f"{name}[{', '.join(map(str, np.unravel_index(first, array.shape)))}]"
        value = entries.ravel().tolist()[first]
        if bound is None:
            check_integer(entry, value, minimum)  # raises: the entry is no integer >= minimum
        raise ValueError(f"{entry} must be an integer in [{minimum}, {bound}), got {value!r}")
    return array.astype(np.int64, copy=False)


def check_real(name: str, value, low=-math.inf, high=math.inf, brackets="()") -> float:
    """The setting as a plain float if it is a real number in the interval
    from low to high, whose ends brackets opens or closes ("()", "[)", "(]").

    A real number is a ``numbers.Real``, bool aside (so 0.5, 1 and
    np.float32(0.5), not "0.5" or True); anything else, and NaN or a value
    outside the interval, raises ValueError naming the setting and interval."""
    number = math.nan
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # an int past the float range
            number = float(value)
    above = number >= low if brackets[0] == "[" else number > low
    below = number <= high if brackets[1] == "]" else number < high
    if not (above and below):
        interval = f"{brackets[0]}{low:g}, {high:g}{brackets[1]}"
        raise ValueError(f"{name} must be a real number in {interval}, got {value!r}")
    return number


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
