"""Empirical Rademacher complexity estimators, the oracles the bound tests check against.

Bartlett & Mendelson, JMLR 2002: for a finite set of hypotheses, the
empirical complexity is the mean over sign vectors eps of
sup_h (1/N) sum_u eps_u h(x_u). It is computed here exactly, by
enumerating every sign vector, or estimated by Monte Carlo.
"""
from __future__ import annotations

import math

import numpy as np

MC_CHUNK = 128   # Monte-Carlo sign draws per seed derived from the caller's


def _sup_means(signs: np.ndarray, outputs: np.ndarray) -> np.ndarray:
    """For each sign row eps, sup over hypotheses of (1/N) sum_u eps_u h(x_u)."""
    n = outputs.shape[1]
    return (signs @ outputs.T).max(axis=1) / n


def empirical_rademacher_mc(outputs: np.ndarray, num_draws: int, seed: int) -> tuple[float, float]:
    """Monte-Carlo estimate of the empirical Rademacher complexity.

    ``outputs[h, u]`` is hypothesis h evaluated at sample u; the estimate
    is a lower bound for the complexity of any class containing those
    hypotheses. Draws are generated in chunks of ``MC_CHUNK`` with seeds
    derived from ``seed``. Returns (mean, standard error).
    """
    outputs = np.asarray(outputs, dtype=np.float64)
    if outputs.ndim != 2 or outputs.shape[0] < 1:
        raise ValueError("outputs must be (num_hypotheses, num_samples)")
    if num_draws < 2:
        raise ValueError("need at least 2 draws for a standard error")
    n = outputs.shape[1]
    seeds = np.random.SeedSequence(seed).spawn(math.ceil(num_draws / MC_CHUNK))
    vals = []
    remaining = num_draws
    for ss in seeds:
        take = min(MC_CHUNK, remaining)
        signs = np.random.default_rng(ss).integers(0, 2, size=(take, n)) * 2.0 - 1.0
        vals.append(_sup_means(signs, outputs))
        remaining -= take
    vals = np.concatenate(vals)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(num_draws))


def empirical_rademacher_exact(outputs: np.ndarray) -> float:
    """Exact empirical Rademacher complexity by enumerating all sign vectors.

    Feasible only for small samples; refuses more than 20 points.
    """
    outputs = np.asarray(outputs, dtype=np.float64)
    if outputs.ndim != 2 or outputs.shape[0] < 1:
        raise ValueError("outputs must be (num_hypotheses, num_samples)")
    n = outputs.shape[1]
    if n > 20:
        raise ValueError(f"exact enumeration of 2^{n} sign vectors is not feasible")
    total = 0.0
    count = 1 << n
    bits = np.arange(n, dtype=np.int64)
    for start in range(0, count, 65536):
        block = np.arange(start, min(start + 65536, count), dtype=np.int64)
        signs = (((block[:, None] >> bits[None, :]) & 1) * 2.0 - 1.0)
        total += _sup_means(signs, outputs).sum()
    return total / count
