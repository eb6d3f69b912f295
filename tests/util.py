"""Shared test helpers: seeded randomness and slow-but-obvious references."""

from __future__ import annotations

import numpy as np
from scipy.stats import unitary_group

SEED = 20260816


def fresh_rng(salt: int = 0) -> np.random.Generator:
    return np.random.default_rng(SEED + salt)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    if dim == 1:
        return np.array([[np.exp(2j * np.pi * rng.random())]])
    return unitary_group.rvs(dim, random_state=rng)


def random_complex(dim: int, rng: np.random.Generator) -> np.ndarray:
    """General (non-unitary) matrix with spectral norm around one."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return a / (2.0 * np.sqrt(dim))


def naive_encode(a: np.ndarray) -> np.ndarray:
    """Entry-by-entry reference for the real block encoding."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    out = np.zeros((2 * n, 2 * n))
    for i in range(n):
        for j in range(n):
            x, y = a[i, j].real, a[i, j].imag
            out[2 * i, 2 * j] = x
            out[2 * i, 2 * j + 1] = -y
            out[2 * i + 1, 2 * j] = y
            out[2 * i + 1, 2 * j + 1] = x
    return out


def relerr(got: float, want: float) -> float:
    return abs(got - want) / max(1.0, abs(want))


def beta_interval(model, beta: int, fixed: dict[int, float]) -> tuple[float, float]:
    """Feasible interval of variable `beta` in `model` once the others are fixed."""
    import math

    arr = model.to_arrays()
    lo, hi = arr.lb[beta], arr.ub[beta]
    for r, (s, e) in enumerate(zip(arr.a_start, arr.a_start[1:])):
        coefs = {int(c): float(v) for c, v in zip(arr.a_cols[s:e], arr.a_vals[s:e])}
        const = sum(v * fixed[c] for c, v in coefs.items() if c != beta)
        b_coef = coefs.get(beta, 0.0)
        if b_coef == 0.0:
            continue
        rl, ru = arr.row_lb[r] - const, arr.row_ub[r] - const
        if b_coef > 0:
            lo = max(lo, rl / b_coef) if math.isfinite(rl) else lo
            hi = min(hi, ru / b_coef) if math.isfinite(ru) else hi
        else:
            lo = max(lo, ru / b_coef) if math.isfinite(ru) else lo
            hi = min(hi, rl / b_coef) if math.isfinite(rl) else hi
    return lo, hi
