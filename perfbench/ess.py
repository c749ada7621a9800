"""Effective sample size of MCMC output, in numpy.

The autocorrelation comes from an FFT of the zero-padded, centred series;
the integrated autocorrelation time is truncated with Geyer's initial
monotone sequence estimator (sums of adjacent autocorrelation pairs are
kept while positive and forced to be non-increasing).

Run ``python3 perfbench/ess.py`` to self-test the estimator against AR(1)
series, whose ESS is known in closed form.
"""

from __future__ import annotations

import math
import sys

import numpy as np


def autocorrelation(x) -> np.ndarray:
    """Normalised autocorrelation of each column of ``x`` (draws x series)."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    centred = x - x.mean(axis=0)
    size = 1 << (2 * n - 1).bit_length()
    spectrum = np.fft.rfft(centred, n=size, axis=0)
    acov = np.fft.irfft(spectrum * np.conj(spectrum), n=size, axis=0)[:n]
    if (acov[0] <= 0).any():
        raise ValueError("the ESS of a constant series is undefined")
    return acov / acov[0]


def effective_sample_size(x):
    """ESS of a 1-D chain (a float), or of each column of a 2-D array."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[:, None]
    n = x.shape[0]
    if x.ndim != 2 or n < 4:
        raise ValueError("need a chain of at least 4 draws")
    rho = autocorrelation(x)
    pairs = rho[0:n - 1:2] + rho[1:n:2]
    # Initial positive sequence, then made monotone; pairs after the first
    # non-positive one are zeroed and stay zero under the running minimum.
    positive = np.cumprod(pairs > 0, axis=0).astype(bool)
    monotone = np.minimum.accumulate(np.where(positive, pairs, 0.0), axis=0)
    tau = np.maximum(-1.0 + 2.0 * monotone.sum(axis=0), 1.0 / math.log10(n))
    ess = n / tau
    return float(ess[0]) if single else ess


def ar1_series(rho: float, n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` stationary AR(1) chains of length ``n`` with unit innovations."""
    out = np.empty((n, count))
    out[0] = rng.standard_normal(count) / math.sqrt(1.0 - rho * rho)
    noise = rng.standard_normal((n, count))
    for t in range(1, n):
        out[t] = rho * out[t - 1] + noise[t]
    return out


def self_test(tolerance: float = 0.1) -> list:
    """Compare the estimator with n (1 - rho) / (1 + rho) on AR(1) chains.

    Returns one line per case; raises AssertionError if the mean estimate
    over eight independent chains misses the exact value by more than
    ``tolerance`` (relative).
    """
    rng = np.random.default_rng(20211)
    n, count = 20000, 8
    lines = []
    for rho in (0.0, 0.5, 0.9, -0.3):
        exact = n * (1.0 - rho) / (1.0 + rho)
        estimate = float(effective_sample_size(ar1_series(rho, n, count, rng)).mean())
        error = estimate / exact - 1.0
        lines.append(f"AR(1) rho={rho:+.1f}: ESS {estimate:.0f} vs exact {exact:.0f} ({error:+.1%})")
        if abs(error) > tolerance:
            raise AssertionError("ESS self-test failed: " + lines[-1])
    return lines


if __name__ == "__main__":
    try:
        for line in self_test():
            print(line)
    except AssertionError as exc:
        print(exc, file=sys.stderr)
        sys.exit(1)
