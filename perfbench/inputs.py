"""Seeded input generator for the benchmark.

Every set is built from plain numpy arithmetic on canonical element indices
(mixed-radix order, first coordinate most significant, as the toolkit uses),
so generating inputs never touches the toolkit's own caches.  The same
``(family, group, variant)`` always gives the same set.

Families:
  quadratic  squares {u x^2} on a cyclic group, the zero set of a
             change-of-basis image of x1x2 + x3x4 + ... on (Z/2)^n, and the
             product of the two on a mixed group 2^a x m
  interval   the planted Bohr interval {x : ||gamma(x)|| <= 1/6} for a
             character gamma of full order; on (Z/2)^n this is a hyperplane
  random     independent coin flips at a fixed density
  cosets     (Z/2)^n only: a union of cosets of a random subgroup
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np


def order(factors: tuple[int, ...]) -> int:
    return math.prod(factors)


def coords(factors: tuple[int, ...], idx: np.ndarray) -> np.ndarray:
    """(len(idx), rank) coordinates of canonical indices."""
    return np.stack(np.unravel_index(np.asarray(idx, dtype=np.int64), factors), axis=1)


def rng_for(*key) -> np.random.Generator:
    """Generator keyed by a tuple of ints and strings (stable across runs)."""
    words = []
    for part in key:
        if isinstance(part, str):
            words.extend(part.encode())
        else:
            words.append(int(part))
    return np.random.default_rng(words)


def _split_f2(factors: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """(number of leading 2-factors, remaining factors)."""
    a = 0
    while a < len(factors) and factors[a] == 2:
        a += 1
    return a, factors[a:]


def _random_invertible_f2(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random invertible n x n matrix over GF(2), rows as int bitmasks."""
    while True:
        rows = [int(r) for r in rng.integers(1, 1 << n, size=n)]
        basis: list[int] = []
        for r in rows:
            for b in basis:
                r = min(r, r ^ b)
            if r:
                basis.append(r)
        if len(basis) == n:
            return np.asarray(rows, dtype=np.int64)


def _parity(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.int64).copy()
    out = np.zeros_like(x)
    while np.any(x):
        out ^= x & 1
        x >>= 1
    return out


def _apply_f2(matrix_rows: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """y = M x over GF(2) for every mask x; bit (n-1-i) of y is <row_i, x>."""
    n = matrix_rows.size
    out = np.zeros_like(masks)
    for i, row in enumerate(matrix_rows):
        out |= _parity(masks & int(row)) << (n - 1 - i)
    return out


def _f2_quadratic(n: int, rng: np.random.Generator) -> np.ndarray:
    """0/1 mask over (Z/2)^n of the zero set of Q(Mx), Q = x1x2 + x3x4 + ..."""
    x = np.arange(1 << n, dtype=np.int64)
    y = _apply_f2(_random_invertible_f2(n, rng), x)
    q = np.zeros_like(x)
    for j in range(0, n - 1, 2):
        q ^= ((y >> j) & 1) & ((y >> (j + 1)) & 1)
    return q == 0


def _cyclic_squares(m: int, rng: np.random.Generator) -> np.ndarray:
    """0/1 mask over Z/m of {u x^2 : x} for a random unit u."""
    u = _random_unit(m, rng)
    mask = np.zeros(m, dtype=bool)
    x = np.arange(m, dtype=np.int64)
    mask[(u * x * x) % m] = True
    return mask


def _random_unit(m: int, rng: np.random.Generator) -> int:
    while True:
        u = int(rng.integers(1, max(m, 2)))
        if math.gcd(u, m) == 1:
            return u % m if m > 1 else 0


def quadratic(factors: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    a, rest = _split_f2(factors)
    parts = []
    if a:
        parts.append(_f2_quadratic(a, rng))
    for m in rest:
        parts.append(_cyclic_squares(m, rng))
    mask = parts[0]
    for p in parts[1:]:
        mask = np.logical_and.outer(mask, p).ravel()
    return np.flatnonzero(mask)


def interval(factors: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """{x : ||gamma(x)|| <= 1/6} for a random character gamma.

    gamma has frequency 1 (up to a random unit) on every odd factor and a
    random nonzero pattern on the 2-factors, so on (Z/2)^n the set is a
    hyperplane and on Z/m an arithmetic progression of length m/3.
    """
    n = order(factors)
    L = math.lcm(*factors)
    c = coords(factors, np.arange(n))
    freqs = []
    a, rest = _split_f2(factors)
    pattern = int(rng.integers(1, 1 << a)) if a else 0
    for j in range(a):
        freqs.append((pattern >> j) & 1)
    for m in rest:
        freqs.append(_random_unit(m, rng))
    w = np.asarray([f * (L // m) for f, m in zip(freqs, factors)], dtype=np.int64)
    num = (c @ w) % L
    folded = np.minimum(num, L - num)
    shift = int(rng.integers(0, n))
    members = np.flatnonzero(6 * folded <= L)
    return np.unique((members + shift) % n) if not a else members


def random_set(factors: tuple[int, ...], rng: np.random.Generator, density: float) -> np.ndarray:
    return np.flatnonzero(rng.uniform(size=order(factors)) < density)


def cosets(n: int, rng: np.random.Generator, codim: int, count: int) -> np.ndarray:
    """Union of ``count`` distinct cosets of a random codim-``codim`` subgroup of (Z/2)^n."""
    x = np.arange(1 << n, dtype=np.int64)
    labels = _apply_f2(_random_invertible_f2(n, rng), x) >> (n - codim)
    chosen = rng.choice(1 << codim, size=count, replace=False)
    return np.flatnonzero(np.isin(labels, chosen))


def group_set(family: str, factors: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Sorted canonical indices of a member of ``family`` on the group.

    ``random`` has density 1/2, ``random-<p>`` density p, and
    ``cosets-<codim>-<count>`` is a union of cosets.
    """
    name, *params = family.split("-")
    if name == "quadratic":
        return quadratic(factors, rng)
    if name == "interval":
        return interval(factors, rng)
    if name == "random":
        return random_set(factors, rng, float(params[0]) if params else 0.5)
    if name == "cosets":
        return cosets(len(factors), rng, int(params[0]), int(params[1]))
    raise KeyError(family)


def integer_set(family: str, n: int, rng: np.random.Generator) -> list[int]:
    """Subset of [1, n]: odd numbers, a planted interval, or a random half."""
    if family == "odd":
        base = np.arange(1, n + 1, 2)
        return sorted(int(x) for x in base[rng.uniform(size=base.size) < 0.9])
    if family == "interval":
        length = n // 3
        lo = int(rng.integers(n // 3, n - length + 1))
        return list(range(lo, lo + length))
    if family == "random":
        return [int(x) for x in np.flatnonzero(rng.uniform(size=n) < 0.3) + 1]
    raise KeyError(family)


def write_group_set(path: Path, factors: tuple[int, ...], idx: np.ndarray) -> None:
    """One element per line as comma-separated residues (the toolkit's set format)."""
    rows = coords(factors, idx)
    text = "".join(",".join(map(str, r)) + "\n" for r in rows.tolist())
    path.write_text(text)


def write_integer_set(path: Path, members: list[int]) -> None:
    path.write_text("".join(f"{m}\n" for m in members))
