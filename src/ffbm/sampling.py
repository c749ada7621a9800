"""Retained-sample bookkeeping, named seed substreams, and the rules every
setting meets: ``check_integer`` for counts and seeds, ``check_real`` for reals."""

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


def check_integer(name: str, value, minimum: int) -> int:
    """The setting as a plain int if it is an integer of at least minimum.

    An integer is what ``operator.index`` takes, bool aside (so 3 and
    np.int64(3), not 3.0, "3" or True); anything else raises ValueError
    naming the setting."""
    try:
        number = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = None
    if number is None or number < minimum:
        bound = "a nonnegative integer" if minimum == 0 else f"an integer of at least {minimum}"
        raise ValueError(f"{name} must be {bound}, got {value!r}")
    return number


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
