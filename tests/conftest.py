"""Shared oracles, helpers and work counters; the oracles are independent of the fast paths."""

from itertools import combinations, product

import numpy as np
import pytest

from oracles import element, element_at

from arithreg import reg_general
from arithreg.groups import F2Subgroup, GroupSpec, character_table
from arithreg.harmonic import DenseFn

SEED = 20260810


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


@pytest.fixture
def kernel_rows(monkeypatch):
    """[rows sent through the cond2 kernel], counted from here on."""
    count = [0]
    windowed = reg_general._windowed_magnitudes

    def counted(A, xs, *args):
        count[0] += len(xs)
        return windowed(A, xs, *args)

    monkeypatch.setattr(reg_general, "_windowed_magnitudes", counted)
    return count


def naive_dft(f: DenseFn) -> np.ndarray:
    """O(N^2) transform through the explicit character matrix."""
    return character_table(f.group) @ f.values.astype(complex)


def naive_convolve(f: DenseFn, g: DenseFn) -> np.ndarray:
    """Literal double sum over (x, y) of f(y) g(x - y)."""
    grp = f.group
    n = grp.order
    out = np.zeros(n)
    for x in range(n):
        ex = element_at(grp, x)
        for y in range(n):
            ey = element_at(grp, y)
            diff = element(
                grp, tuple((a - b) % m for a, b, m in zip(ex.coords, ey.coords, grp.factors))
            )
            out[x] += f.values[y] * g.values[diff.index]
    return out


def recursive_wht(vals):
    """Classic divide-and-conquer Walsh-Hadamard oracle (exact integers)."""
    vals = list(vals)
    n = len(vals)
    if n == 1:
        return vals
    half = n // 2
    a = recursive_wht(vals[:half])
    b = recursive_wht(vals[half:])
    return [x + y for x, y in zip(a, b)] + [x - y for x, y in zip(a, b)]


def all_subspaces(n: int, k: int):
    """Every subspace of F2^n of dimension k, via reduced echelon bases."""
    positions = list(range(n - 1, -1, -1))
    for pivots in combinations(positions, k):
        free_slots = [
            (i, j)
            for i, p in enumerate(pivots)
            for j in range(p - 1, -1, -1)
            if j not in pivots
        ]
        for bits in product((0, 1), repeat=len(free_slots)):
            rows = [1 << p for p in pivots]
            for (i, j), b in zip(free_slots, bits):
                if b:
                    rows[i] |= 1 << j
            yield F2Subgroup(n, tuple(rows))


def random_indicator(group: GroupSpec, rng, density: float = 0.5) -> DenseFn:
    return DenseFn(group, (rng.uniform(size=group.order) < density).astype(float))


def gaussian_binomial(n: int, k: int) -> int:
    num = den = 1
    for i in range(k):
        num *= 2 ** (n - i) - 1
        den *= 2 ** (k - i) - 1
    return num // den
