"""Finite abelian groups as explicit products of cyclic factors.

A group is a tuple of factors (m_1, ..., m_r); elements and characters are
residue tuples under the same mixed-radix indexing (first coordinate most
significant).  For (Z/2)^n the canonical index doubles as an integer bitmask
with the first coordinate in the most significant bit, which is what the
GF(2) linear algebra below operates on.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DomainMismatchError, InvalidSpecError, ResourceBudgetError

# Resource limits: every size check in the package reads its bound here.
DEFAULT_MAX_ORDER = 1 << 24  # enumeration guard, unless ARITHREG_MAX_N is set
TRANSLATE_BLOCK_BYTES = 1 << 20  # bytes of float64 rows per block of translate_blocks
CHARACTER_TABLE_MAX_ORDER = 4096  # dense N x N character matrix
BRUTE_FORCE_BUDGET = 20_000_000  # N^(k-1) terms of the literal zero-sum oracle
COUNT_CROSSCHECK_BUDGET = 2_000_000  # `count` adds the brute-force sum up to this
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

    def element(self, coords: Sequence[int]) -> "GroupElement":
        return GroupElement(self, tuple(int(c) % m for c, m in zip(coords, self.factors)))

    def character(self, freqs: Sequence[int]) -> "Character":
        return Character(self, tuple(int(c) % m for c, m in zip(freqs, self.factors)))

    def identity(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.rank)

    def index_of(self, x: "GroupElement") -> int:
        idx = 0
        for c, m in zip(x.coords, self.factors):
            idx = idx * m + c
        return idx

    def element_at(self, index: int) -> "GroupElement":
        return GroupElement(self, _coords_at(self.factors, index))

    def character_at(self, index: int) -> "Character":
        return Character(self, _coords_at(self.factors, index))

    def elements(self) -> Iterator["GroupElement"]:
        check_enumerable(self)
        for i in range(self.order):
            yield self.element_at(i)

    def characters(self) -> Iterator["Character"]:
        check_enumerable(self)
        for i in range(self.order):
            yield self.character_at(i)

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
class GroupElement:
    group: GroupSpec
    coords: tuple[int, ...]

    @property
    def index(self) -> int:
        return self.group.index_of(self)

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.coords)


@dataclass(frozen=True)
class Character:
    """gamma(x) = exp(2*pi*i * sum_j freqs_j x_j / m_j)."""

    group: GroupSpec
    freqs: tuple[int, ...]

    @property
    def index(self) -> int:
        idx = 0
        for c, m in zip(self.freqs, self.group.factors):
            idx = idx * m + c
        return idx

    def f2_mask(self) -> int:
        if not self.group.is_f2:
            raise DomainMismatchError("f2_mask only defined over (Z/2)^n")
        return self.index


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


def parse_element(group: GroupSpec, text: str) -> GroupElement:
    """Parse an element serialized as comma-separated residues."""
    parts = [p for p in text.strip().split(",") if p != ""]
    if len(parts) != group.rank:
        raise InvalidSpecError(
            f"element {text!r} has {len(parts)} coordinates, group {group} needs {group.rank}"
        )
    try:
        return group.element([int(p) for p in parts])
    except ValueError as exc:
        raise InvalidSpecError(f"bad coordinate in element {text!r}") from exc


def check_enumerable(group: GroupSpec) -> None:
    limit = max_enumerable_order()
    if group.order > limit:
        raise ResourceBudgetError(
            f"group of order {group.order} exceeds enumeration guard {limit} "
            "(set ARITHREG_MAX_N to override)"
        )


def _same_group(a, b) -> None:
    if a.group != b.group:
        raise DomainMismatchError(f"operands live on different groups: {a.group} vs {b.group}")


# ---------------------------------------------------------------------------
# group law
# ---------------------------------------------------------------------------

def add(a: GroupElement, b: GroupElement) -> GroupElement:
    _same_group(a, b)
    return GroupElement(
        a.group, tuple((x + y) % m for x, y, m in zip(a.coords, b.coords, a.group.factors))
    )


def neg(a: GroupElement) -> GroupElement:
    return GroupElement(a.group, tuple((-x) % m for x, m in zip(a.coords, a.group.factors)))


def scalar_mul(k: int, a: GroupElement) -> GroupElement:
    return GroupElement(a.group, tuple((k * x) % m for x, m in zip(a.coords, a.group.factors)))


def char_eval(gamma: Character, x: GroupElement) -> complex:
    """Evaluate gamma(x) on the unit circle."""
    _same_group(gamma, x)
    L = gamma.group.exponent_lcm
    num = sum(c * v * (L // m) for c, v, m in zip(gamma.freqs, x.coords, gamma.group.factors)) % L
    if L == 1 or num == 0:
        return complex(1.0)
    if 2 * num == L:
        return complex(-1.0)
    return complex(np.exp(2j * np.pi * num / L))


def char_arg_norm(chars: Iterable[Character], x: GroupElement) -> float:
    """sup over gamma in the set of |arg gamma(x)| / (2*pi), in [0, 1/2].

    The argument convention is arg z in (-pi, pi]; the empty set yields 0.
    """
    return float(char_arg_norm_exact(chars, x))


def char_arg_norm_exact(chars: Iterable[Character], x: GroupElement) -> Fraction:
    """Exact rational value of the sup norm, for boundary-safe comparisons."""
    best = Fraction(0)
    L = x.group.exponent_lcm
    for gamma in chars:
        _same_group(gamma, x)
        num = sum(
            c * v * (L // m) for c, v, m in zip(gamma.freqs, x.coords, gamma.group.factors)
        ) % L
        folded = min(num, L - num)
        if Fraction(folded, L) > best:
            best = Fraction(folded, L)
    return best


# ---------------------------------------------------------------------------
# cached index machinery (arrays indexed by canonical element order)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def coords_table(group: GroupSpec) -> np.ndarray:
    """(N, r) array of element coordinates in canonical index order."""
    check_enumerable(group)
    n = group.order
    out = np.zeros((n, group.rank), dtype=np.int64)
    idx = np.arange(n)
    for j in range(group.rank - 1, -1, -1):
        m = group.factors[j]
        out[:, j] = idx % m
        idx //= m
    out.setflags(write=False)
    return out


@lru_cache(maxsize=64)
def _strides(group: GroupSpec) -> np.ndarray:
    s = np.ones(group.rank, dtype=np.int64)
    for j in range(group.rank - 2, -1, -1):
        s[j] = s[j + 1] * group.factors[j + 1]
    return s


def ravel_coords(group: GroupSpec, coords: np.ndarray) -> np.ndarray:
    return coords @ _strides(group)


@lru_cache(maxsize=64)
def neg_index(group: GroupSpec) -> np.ndarray:
    """neg_index[i] = index of -x_i."""
    c = coords_table(group)
    m = np.asarray(group.factors, dtype=np.int64)
    out = ravel_coords(group, (-c) % m)
    out.setflags(write=False)
    return out


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


def _is_cyclic(group: GroupSpec) -> bool:
    digits = index_digits(group)
    return len(digits) <= 1 and not any(is_run for _, _, is_run in digits)


def _window(values: np.ndarray) -> np.ndarray:
    """(m, m) read-only view whose row x is values[x], ..., values[x+m-1 mod m]."""
    m = values.size
    return np.lib.stride_tricks.sliding_window_view(np.concatenate([values, values]), m)[:m]


@lru_cache(maxsize=64)
def _cyclic_window(m: int) -> np.ndarray:
    return _window(np.arange(m))


def _window_rows(window: np.ndarray, xs: Sequence[int]) -> np.ndarray:
    if isinstance(xs, range) and xs.step == 1:
        return window[xs.start : xs.stop]
    return window[np.asarray(xs, dtype=np.int64)]


def translate_rows(group: GroupSpec, xs: Sequence[int]) -> np.ndarray:
    """(len(xs), N) index rows; row i lists the index of x_i + n over all n.

    Built digit by digit: XOR on each run of 2-factors, addition mod m on
    every other factor.  On a cyclic group the rows come from a window over
    a doubled arange, zero-copy and read-only when xs is a step-1 range.
    """
    if _is_cyclic(group):
        return _window_rows(_cyclic_window(group.order), xs)
    xs = np.asarray(xs, dtype=np.int64)
    rows = None
    for size, stride, is_run in index_digits(group):
        d = xs // stride % size
        part = d[:, None] ^ np.arange(size) if is_run else _cyclic_window(size)[d]
        if rows is None:
            rows = part
        else:
            rows = (rows[:, :, None] * size + part[:, None, :]).reshape(xs.size, -1)
    return rows


def translate_values(group: GroupSpec, values: np.ndarray, xs: Sequence[int]) -> np.ndarray:
    """values[translate_rows(group, xs)]: row i holds n -> values(x_i + n).

    On a cyclic group the rows are copied out of a window over the doubled
    values, with no index gather.
    """
    if _is_cyclic(group):
        return np.ascontiguousarray(_window_rows(_window(values), xs))
    return values[translate_rows(group, xs)]


def translate_blocks(
    group: GroupSpec, values: np.ndarray, xs: Sequence[int]
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Yield (lo, hi, translate_values(group, values, xs[lo:hi])) over all of xs.

    A block holds about TRANSLATE_BLOCK_BYTES of float64 rows, whatever N is.
    """
    step = max(1, TRANSLATE_BLOCK_BYTES // (8 * group.order))
    for lo in range(0, len(xs), step):
        hi = min(len(xs), lo + step)
        yield lo, hi, translate_values(group, values, xs[lo:hi])


def translate_indices(group: GroupSpec, x_index: int) -> np.ndarray:
    """Row of indices of x + n over all n, i.e. f.values[row][n] = f(x + n)."""
    x = int(x_index) % group.order
    return translate_rows(group, range(x, x + 1))[0]


def char_values(group: GroupSpec, gamma: Character) -> np.ndarray:
    """gamma evaluated at every element, in canonical index order."""
    if gamma.group != group:
        raise DomainMismatchError("character belongs to a different group")
    L = group.exponent_lcm
    w = np.asarray([c * (L // m) for c, m in zip(gamma.freqs, group.factors)], dtype=np.int64)
    num = (coords_table(group) @ w) % L
    if L <= 2:
        return np.where(num == 0, 1.0, -1.0).astype(np.complex128)
    return np.exp(2j * np.pi * num / L)


def char_norm_numerators(group: GroupSpec, gamma: Character) -> np.ndarray:
    """Integer numerators of |arg gamma(x)|/2pi over the common denominator lcm."""
    L = group.exponent_lcm
    w = np.asarray([c * (L // m) for c, m in zip(gamma.freqs, group.factors)], dtype=np.int64)
    num = (coords_table(group) @ w) % L
    return np.minimum(num, L - num)


@lru_cache(maxsize=16)
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

    def reduce(self, masks: np.ndarray) -> np.ndarray:
        """Canonical coset representative (zero at pivot bits) of each mask."""
        out = np.array(masks, dtype=np.int64, copy=True)
        for b in self.basis:
            p = b.bit_length() - 1
            hit = (out >> p) & 1 == 1
            out[hit] ^= b
        return out

    def elements_by_coeff(self) -> np.ndarray:
        """All 2^dim members; entry t is the combination with coefficient bits t.

        Bit j of t selects basis row j (rows ordered leading-bit descending).
        """
        arr = np.zeros(1, dtype=np.int64)
        for b in self.basis:
            arr = np.concatenate([arr, arr ^ b])
        return arr

    def elements(self) -> np.ndarray:
        return np.sort(self.elements_by_coeff())

    def coset_reps(self) -> np.ndarray:
        """One representative per coset: the lexicographically least member."""
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


def f2_trivial(n: int) -> F2Subgroup:
    return F2Subgroup(n, ())


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


def f2_annihilator(chars: Iterable["Character | int"], n: int) -> F2Subgroup:
    """Annihilator {x : <x, eta> = 0 for all eta} of a set of F2 characters."""
    masks = []
    for eta in chars:
        if isinstance(eta, Character):
            masks.append(eta.f2_mask())
        else:
            masks.append(int(eta))
    return f2_nullspace(masks, n)


_PARITY16 = np.zeros(1 << 16, dtype=np.int64)
for _i in range(16):
    _PARITY16[1 << _i : 1 << (_i + 1)] = _PARITY16[: 1 << _i] ^ 1
_PARITY16.setflags(write=False)


def f2_parity(masks: np.ndarray) -> np.ndarray:
    """popcount(mask) mod 2, vectorized (masks below 2^32)."""
    m = np.asarray(masks, dtype=np.int64)
    return _PARITY16[m & 0xFFFF] ^ _PARITY16[(m >> 16) & 0xFFFF]
