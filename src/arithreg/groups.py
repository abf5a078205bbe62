"""Finite abelian groups as explicit products of cyclic factors.

A group is a tuple of factors (m_1, ..., m_r).  An element is its canonical
index: the mixed-radix index of its residue tuple, first coordinate most
significant.  A character is a residue tuple of frequencies, indexed the same
way.  For (Z/2)^n the canonical index doubles as an integer bitmask with the
first coordinate in the most significant bit, which is what the GF(2) linear
algebra below operates on.  Text lines of residues become canonical indices in
the line loop `parse_indices`, the reference parser of set files.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from typing import Iterable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainMismatchError, InvalidSpecError, ResourceBudgetError

# Resource limits: every size check in the package reads its bound here.
DEFAULT_MAX_ORDER = 1 << 24  # enumeration guard, unless ARITHREG_MAX_N is set
TRANSLATE_BLOCK_BYTES = 1 << 20  # bytes of float64 rows per block of translate_blocks
CHARACTER_TABLE_MAX_ORDER = 4096  # dense N x N character matrix
BRUTE_FORCE_BUDGET = 20_000_000  # N^(k-1) tuples of the zero-sum oracle, `count`'s check too
DUAL_SWEEP_MAX_DIM = 24  # spanning families are checked against all 2^d duals


def max_enumerable_order() -> int:
    """Size guard for operations that enumerate a whole group.

    Overridable through the ARITHREG_MAX_N environment variable.
    """
    raw = os.environ.get("ARITHREG_MAX_N")
    if raw is None:
        return DEFAULT_MAX_ORDER
    try:
        return int(raw)
    except ValueError as exc:
        raise InvalidSpecError(f"ARITHREG_MAX_N must be an integer, got {raw!r}") from exc


@dataclass(frozen=True)
class GroupSpec:
    """Product of cyclic groups Z/m_1 x ... x Z/m_r."""

    factors: tuple[int, ...]

    @property
    def order(self) -> int:
        return _order_of(self.factors)

    @property
    def rank(self) -> int:
        return len(self.factors)

    @property
    def is_f2(self) -> bool:
        return all(m == 2 for m in self.factors)

    @property
    def exponent_lcm(self) -> int:
        return math.lcm(*self.factors)

    def character(self, freqs: Sequence[int]) -> "Character":
        return Character(self, tuple(int(c) % m for c, m in zip(freqs, self.factors)))

    def index_of(self, coords: Sequence[int]) -> int:
        idx = 0
        for c, m in zip(coords, self.factors):
            idx = idx * m + c
        return idx

    def character_at(self, index: int) -> "Character":
        return Character(self, _coords_at(self.factors, index))

    def __str__(self) -> str:
        return "x".join(str(m) for m in self.factors)


@lru_cache(maxsize=None)
def _order_of(factors: tuple[int, ...]) -> int:
    return math.prod(factors)


def _coords_at(factors: tuple[int, ...], index: int) -> tuple[int, ...]:
    coords = []
    for m in reversed(factors):
        coords.append(index % m)
        index //= m
    return tuple(reversed(coords))


@dataclass(frozen=True)
class Character:
    """gamma(x) = exp(2*pi*i * sum_j freqs_j x_j / m_j)."""

    group: GroupSpec
    freqs: tuple[int, ...]

    @property
    def index(self) -> int:
        return self.group.index_of(self.freqs)


def make_group(factors: Sequence[int]) -> GroupSpec:
    """Build a GroupSpec, validating that every factor is a positive integer."""
    if not factors:
        raise InvalidSpecError("factor list must be non-empty")
    out = []
    for m in factors:
        if int(m) != m or int(m) < 1:
            raise InvalidSpecError(f"factors must be integers >= 1, got {m!r}")
        out.append(int(m))
    return GroupSpec(tuple(out))


def parse_group(spec: str) -> GroupSpec:
    """Parse the CLI group syntax: factors joined by 'x', powers by '^'.

    Examples: "2^10", "5x5x3", "101", "2^3x7".
    """
    factors: list[int] = []
    for token in spec.strip().split("x"):
        token = token.strip()
        if not token:
            raise InvalidSpecError(f"empty factor in group spec {spec!r}")
        if "^" in token:
            base_s, _, exp_s = token.partition("^")
            try:
                base, exp = int(base_s), int(exp_s)
            except ValueError as exc:
                raise InvalidSpecError(f"bad factor {token!r} in group spec {spec!r}") from exc
            if exp < 1:
                raise InvalidSpecError(f"power must be >= 1 in {token!r}")
            factors.extend([base] * exp)
        else:
            try:
                factors.append(int(token))
            except ValueError as exc:
                raise InvalidSpecError(f"bad factor {token!r} in group spec {spec!r}") from exc
    return make_group(factors)


def parse_indices(group: GroupSpec, lines: Iterable[str]) -> np.ndarray:
    """Canonical indices of the elements on the non-blank lines, in order, duplicates kept.

    A line holds comma-separated residues (empty fields are dropped), each
    reduced mod its factor as a Python int.  Errors quote the line as given.
    This line loop decides what a set file may hold; `harmonic.load_set`
    reads the layout `save_set` writes without it.
    """
    flat: list[int] = []
    for text in lines:
        if not (line := text.strip()):
            continue
        parts = line.split(",")
        if "" in parts:  # rare (a trailing comma), so most lines skip the filter
            parts = [p for p in parts if p]
        if len(parts) != group.rank:
            raise InvalidSpecError(
                f"element {text!r} has {len(parts)} coordinates, group {group} needs {group.rank}"
            )
        try:
            flat.extend(map(operator.mod, map(int, parts), group.factors))
        except ValueError as exc:
            raise InvalidSpecError(f"bad coordinate in element {text!r}") from exc
    check_enumerable(group)  # after the loop, so format errors are reported first
    return ravel_coords(group, np.array(flat, dtype=np.int64).reshape(-1, group.rank))


def check_enumerable(group: GroupSpec) -> None:
    limit = max_enumerable_order()
    if group.order > limit:
        raise ResourceBudgetError(
            f"group of order {group.order} exceeds enumeration guard {limit} "
            "(set ARITHREG_MAX_N to override)"
        )


# ---------------------------------------------------------------------------
# index machinery (arrays indexed by canonical element order)
# ---------------------------------------------------------------------------

def ravel_coords(group: GroupSpec, coords: np.ndarray) -> np.ndarray:
    return coords @ np.asarray([math.prod(group.factors[j + 1 :]) for j in range(group.rank)])


@lru_cache(maxsize=64)
def index_digits(group: GroupSpec) -> tuple[tuple[int, int, bool], ...]:
    """(size, stride, is_2_run) per digit of the index, most significant first.

    A maximal run of 2-factors is one digit, on which addition is XOR; every
    other factor is one digit with addition mod its size.  Factors 1 drop out.
    """
    digits = []
    stride = group.order
    for m, same in groupby(m for m in group.factors if m > 1):
        count = len(list(same))
        for size in [1 << count] if m == 2 else [m] * count:
            stride //= size
            digits.append((size, stride, m == 2))
    return tuple(digits)


def _digit_sum(group: GroupSpec, tables: Iterable[np.ndarray], lead: tuple = ()) -> np.ndarray:
    """out[..., x] = sum over the index digits d_j of x of tables[j][..., d_j].

    Table j, in index_digits(group) order, has shape lead + (size_j,).
    """
    check_enumerable(group)
    out = None
    for table in tables:
        out = table if out is None else (out[..., None] + table[..., None, :]).reshape(*lead, -1)
    return np.zeros((*lead, 1), dtype=np.int64) if out is None else out


def _multiple_index(group: GroupSpec, k: int) -> np.ndarray:
    """Index of k*x for every x: digit d goes to k*d mod its size, and a 2-run's to (k mod 2) d."""
    tables = (
        stride * (k % 2 * np.arange(size) if is_run else k * np.arange(size) % size)
        for size, stride, is_run in index_digits(group)
    )
    return _digit_sum(group, tables)


@lru_cache(maxsize=64)
def neg_index(group: GroupSpec) -> np.ndarray:
    """neg_index[i] = index of -x_i."""
    out = _multiple_index(group, -1)
    out.setflags(write=False)
    return out


def _is_cyclic(group: GroupSpec) -> bool:
    digits = index_digits(group)
    return len(digits) <= 1 and not any(is_run for _, _, is_run in digits)


@lru_cache(maxsize=64)
def _cyclic_window(m: int) -> np.ndarray:
    """(m, m) read-only view whose row x is x, x+1, ..., x+m-1 mod m."""
    return sliding_window_view(np.tile(np.arange(m), 2), m)[:m]


def translate_rows(group: GroupSpec, xs: Sequence[int]) -> np.ndarray:
    """(len(xs), N) index rows; row i lists the index of x_i + n over all n.

    Built digit by digit: XOR on each run of 2-factors, addition mod m on
    every other factor.
    """
    xs = np.asarray(xs, dtype=np.int64)

    def tables() -> Iterator[np.ndarray]:
        for size, stride, is_run in index_digits(group):
            d = xs // stride % size
            t = np.bitwise_xor(d[:, None], np.arange(size)) if is_run else _cyclic_window(size)[d]
            yield t if stride == 1 else np.multiply(t, stride, out=t)

    return _digit_sum(group, tables(), lead=xs.shape)


def translate_blocks(
    group: GroupSpec, values: np.ndarray, xs: Sequence[int]
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Yield (lo, hi, values[translate_rows(group, xs[lo:hi])]) over all of xs.

    A block holds about TRANSLATE_BLOCK_BYTES of float64 rows, whatever N is,
    so each block's temporaries (its index rows off cyclic groups) are bounded
    by a small multiple of TRANSLATE_BLOCK_BYTES, whatever len(xs) is.  The
    yielded block is scratch: one value buffer is refilled for every block,
    so a block is valid until the next one is drawn, and the caller may
    overwrite it.
    """
    n = group.order
    step = max(1, TRANSLATE_BLOCK_BYTES // (8 * n))
    buf = np.empty((min(step, len(xs)), n), dtype=values.dtype)
    cyclic = _is_cyclic(group)
    if cyclic:
        doubled = np.concatenate([values, values])
        window = sliding_window_view(doubled, n)
    for lo in range(0, len(xs), step):
        hi = min(len(xs), lo + step)
        rows, part = buf[: hi - lo], xs[lo:hi]
        if cyclic and isinstance(part, range) and part.step == 1:
            np.copyto(rows, window[part.start : part.stop])
        elif cyclic:  # one slice copy per row, no gathered temporary
            for row, x in zip(rows, np.asarray(part).tolist()):
                row[...] = doubled[x : x + n]
        else:
            np.take(values, translate_rows(group, part), out=rows, mode="wrap")
        yield lo, hi, rows


def translate_indices(group: GroupSpec, x_index: int) -> np.ndarray:
    """Row of indices of x + n over all n, i.e. f.values[row][n] = f(x + n).

    On a cyclic group the row is a read-only view of the cyclic window.
    """
    x = int(x_index) % group.order
    if _is_cyclic(group):
        return _cyclic_window(group.order)[x]
    return translate_rows(group, [x])[0]


def _char_numerators(group: GroupSpec, gamma: Character) -> np.ndarray:
    """Integer numerators of arg gamma(x)/2pi in [0, L) over L = lcm(factors), every x.

    Digit by digit: c (L/m) d on a digit of size m and frequency c, and
    (L/2) parity(d & mask) on a 2-run whose frequency bits make the mask.
    """
    if gamma.group != group:
        raise DomainMismatchError("character belongs to a different group")
    L = group.exponent_lcm
    freqs = iter([c for c, m in zip(gamma.freqs, group.factors) if m > 1])

    def table(size: int, is_run: bool) -> np.ndarray:
        if not is_run:
            return next(freqs) * (L // size) * np.arange(size)
        mask = sum(next(freqs) << j for j in reversed(range(size.bit_length() - 1)))
        return L // 2 * f2_parity(np.arange(size) & mask)

    return _digit_sum(group, (table(size, is_run) for size, _, is_run in index_digits(group))) % L


def char_values(group: GroupSpec, gamma: Character) -> np.ndarray:
    """gamma evaluated at every element, in canonical index order."""
    num, L = _char_numerators(group, gamma), group.exponent_lcm
    if L <= 2:
        return np.where(num == 0, 1 + 0j, -1 + 0j)
    out = np.multiply(2j * np.pi, num)  # exp(2j pi num / L) in one complex buffer
    out /= L
    return np.exp(out, out=out)


def char_norm_numerators(group: GroupSpec, gamma: Character) -> np.ndarray:
    """Integer numerators of |arg gamma(x)|/2pi over the common denominator lcm."""
    num = _char_numerators(group, gamma)
    return np.minimum(num, group.exponent_lcm - num)


@lru_cache(maxsize=4)  # up to 256 MiB a table: the last four groups
def character_table(group: GroupSpec) -> np.ndarray:
    """Dense (N, N) matrix M[c, x] = gamma_c(x); the naive-transform kernel."""
    if group.order > CHARACTER_TABLE_MAX_ORDER:
        raise ResourceBudgetError(
            f"dense character table refused for order {group.order} > {CHARACTER_TABLE_MAX_ORDER}"
        )
    mat = np.ones((1, 1), dtype=np.complex128)
    for m in group.factors:
        c = np.arange(m)
        block = np.exp(2j * np.pi * np.outer(c, c) / m)
        if m == 2:
            block = np.asarray([[1, 1], [1, -1]], dtype=np.complex128)
        mat = np.kron(mat, block)
    mat.setflags(write=False)
    return mat


# ---------------------------------------------------------------------------
# GF(2) linear algebra on int bitmasks
# ---------------------------------------------------------------------------

def f2_rref(rows: Iterable[int]) -> tuple[int, ...]:
    """Reduced row echelon basis (as bitmasks, leading bit descending)."""
    basis: list[int] = []
    for r in rows:
        r = int(r)
        for b in basis:
            r = min(r, r ^ b)
        if r:
            basis = [min(b, b ^ r) for b in basis]
            basis.append(r)
            basis.sort(reverse=True)
    return tuple(basis)


@dataclass(frozen=True)
class F2Subgroup:
    """Subgroup of (Z/2)^n as the row space of a reduced echelon basis."""

    ambient_dim: int
    basis: tuple[int, ...]

    def __post_init__(self):
        if f2_rref(self.basis) != self.basis:
            raise InvalidSpecError("basis is not in reduced echelon form; use span()")
        if any(b >> self.ambient_dim for b in self.basis):
            raise InvalidSpecError("basis row exceeds ambient dimension")

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def size(self) -> int:
        return 1 << self.dim

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(b.bit_length() - 1 for b in self.basis)

    def contains(self, mask: int) -> bool:
        for b in self.basis:
            mask = min(mask, mask ^ b)
        return mask == 0

    def contains_subgroup(self, other: "F2Subgroup") -> bool:
        return all(self.contains(b) for b in other.basis)

    def elements_by_coeff(self) -> np.ndarray:
        """All 2^dim members; entry t is the combination with coefficient bits t.

        Bit j of t selects basis row j (rows ordered leading-bit descending).
        """
        arr = np.zeros(1, dtype=np.int64)
        for b in self.basis:
            arr = np.concatenate([arr, arr ^ b])
        return arr

    def cosets(self, reps: np.ndarray) -> np.ndarray:
        """(len(reps), |H|) grid; row i is reps[i] + H in coefficient order."""
        return np.bitwise_xor.outer(reps, self.elements_by_coeff())

    def coset_reps(self) -> np.ndarray:
        """One representative per coset, its member with zero pivot bits, ascending."""
        free = [j for j in range(self.ambient_dim) if j not in set(self.pivots)]
        free.sort()
        reps = np.zeros(1 << len(free), dtype=np.int64)
        for k, bitpos in enumerate(free):
            idx = np.arange(reps.size)
            reps |= ((idx >> k) & 1) << bitpos
        return reps

    def annihilator(self) -> "F2Subgroup":
        """Dual subgroup {u : <x, u> = 0 for all x in H}."""
        return f2_nullspace(self.basis, self.ambient_dim)


def f2_span(rows: Iterable[int], n: int) -> F2Subgroup:
    return F2Subgroup(n, f2_rref(rows))


def f2_full(n: int) -> F2Subgroup:
    return F2Subgroup(n, tuple(1 << (n - 1 - j) for j in range(n)))


def f2_nullspace(rows: Iterable[int], n: int) -> F2Subgroup:
    """Solution space of <x, row> = 0 for every row, as an F2Subgroup."""
    rref = f2_rref(rows)
    pivots = [b.bit_length() - 1 for b in rref]
    pset = set(pivots)
    out = []
    for j in range(n):
        if j in pset:
            continue
        v = 1 << j
        for b, p in zip(rref, pivots):
            if (b >> j) & 1:
                v |= 1 << p
        out.append(v)
    return f2_span(out, n)


def f2_parity(masks: np.ndarray) -> np.ndarray:
    """popcount(mask) mod 2 per nonnegative mask, as an int64 0/1 array."""
    return (np.bitwise_count(np.asarray(masks, dtype=np.int64)) & 1).astype(np.int64)
