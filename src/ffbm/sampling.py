"""Retained-sample bookkeeping, named seed substreams, and the rule for
integer settings (``check_integer``) that every count and seed meets."""

from __future__ import annotations

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


def check_retention(iterations: int, burn_in: float, thinning: int) -> None:
    """Raise ValueError unless the settings give a nonempty retained set.

    Constant time, so a config can be checked without building the list.
    """
    check_integer("iterations", iterations, 1)
    if not 0.0 <= burn_in < 1.0:
        raise ValueError(f"burn-in fraction must be in [0, 1), got {burn_in}")
    check_integer("thinning", thinning, 1)


def retained_indices(iterations: int, burn_in: float, thinning: int) -> list:
    """Sample indices kept after burn-in and thinning.

    Returns {round(T*kappa) + i*lam : 0 <= i <= floor((T - round(T*kappa))/lam)},
    a nonempty list ending at or before index T (states are indexed 0..T,
    index 0 being the initial state).
    """
    check_retention(iterations, burn_in, thinning)
    start = int(np.floor(iterations * burn_in + 0.5))
    count = (iterations - start) // thinning
    return [start + i * thinning for i in range(count + 1)]


def stream_seed_sequence(master_seed: int, stream: str, repetition: int = 0) -> np.random.SeedSequence:
    """Independent SeedSequence for a named substream of one repetition (both integers)."""
    try:
        stream_id = _STREAMS[stream]
    except KeyError:
        raise ValueError(f"unknown stream {stream!r}; known: {sorted(_STREAMS)}") from None
    return np.random.SeedSequence([operator.index(master_seed), stream_id, operator.index(repetition)])


def stream_seed_int(master_seed: int, stream: str, repetition: int = 0) -> int:
    """128-bit integer seed for the named substream.

    It seeds a partition chain (stream "block-chain"), whose
    ``BlockChainConfig.seed`` it becomes: ``random.Random`` of it drives
    only the greedy initialiser, and ``np.random.default_rng`` of it the
    sweeps' proposal and acceptance draws.
    """
    words = stream_seed_sequence(master_seed, stream, repetition).generate_state(2, np.uint64)
    return (int(words[0]) << 64) | int(words[1])
