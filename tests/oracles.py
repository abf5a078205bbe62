"""The element-object reference: group elements as residue tuples.

The library works on canonical indices only.  Here an element is a tuple of
residues with its own group law and character evaluation, written from the
definitions and sharing no code with the index machinery, so the index code
can be checked against it.  `coords_table` is the same residue tuples as one
(N, r) array, the reference the digit-built index maps are pinned against.
`translate_values`, `constant`, `subgroup_elements` and `set_file_text` are
the small test-side references built on top, `line_loop_outcome` is what the
line loop makes of a set file, `_shift_violation` is the whole-table
reference for the shift-stability excess of cutoff part v, and
`schur_pairs` is the literal double loop behind the Schur-triple count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from arithreg.errors import DomainMismatchError, InvalidSpecError
from arithreg.groups import (
    Character,
    F2Subgroup,
    GroupSpec,
    check_enumerable,
    neg_index,
    parse_indices,
    translate_rows,
)
from arithreg.harmonic import DenseFn, load_set


@dataclass(frozen=True)
class GroupElement:
    group: GroupSpec
    coords: tuple[int, ...]

    @property
    def index(self) -> int:
        idx = 0
        for c, m in zip(self.coords, self.group.factors):
            idx = idx * m + c
        return idx

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.coords)


def element(group: GroupSpec, coords: Sequence[int]) -> GroupElement:
    return GroupElement(group, tuple(int(c) % m for c, m in zip(coords, group.factors)))


def identity(group: GroupSpec) -> GroupElement:
    return GroupElement(group, (0,) * group.rank)


def element_at(group: GroupSpec, index: int) -> GroupElement:
    coords = []
    for m in reversed(group.factors):
        coords.append(index % m)
        index //= m
    return GroupElement(group, tuple(reversed(coords)))


@lru_cache(maxsize=16)
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


def elements(group: GroupSpec) -> Iterator[GroupElement]:
    check_enumerable(group)
    for i in range(group.order):
        yield element_at(group, i)


def _same_group(a, b) -> None:
    if a.group != b.group:
        raise DomainMismatchError(f"operands live on different groups: {a.group} vs {b.group}")


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
    The sup is taken over exact integer numerators, then divided once.
    """
    best = 0
    L = x.group.exponent_lcm
    for gamma in chars:
        _same_group(gamma, x)
        num = sum(
            c * v * (L // m) for c, v, m in zip(gamma.freqs, x.coords, gamma.group.factors)
        ) % L
        best = max(best, min(num, L - num))
    return best / L


def translate_values(group: GroupSpec, values: np.ndarray, xs: Sequence[int]) -> np.ndarray:
    """values[translate_rows(group, xs)]: row i holds n -> values(x_i + n)."""
    return values[translate_rows(group, xs)]


def constant(group: GroupSpec, value: float) -> DenseFn:
    check_enumerable(group)
    return DenseFn(group, np.full(group.order, float(value)))


def subgroup_elements(H: F2Subgroup) -> np.ndarray:
    """The members of H as bitmasks, ascending."""
    return np.sort(H.elements_by_coeff())


def set_file_text(group: GroupSpec, members: Iterable[int]) -> str:
    """A set file as the reference writes it: one element per line, residues joined by commas."""
    return "".join(f"{element_at(group, int(x))}\n" for x in members)


def load_outcome(group: GroupSpec, path) -> list[int] | tuple:
    """What `load_set` returns for the file, or the type and message of its InvalidSpecError."""
    try:
        return load_set(group, path).tolist()
    except InvalidSpecError as exc:
        return InvalidSpecError, str(exc)


def line_loop_outcome(group: GroupSpec, path) -> list[int] | tuple:
    """What the line loop makes of the file read as UTF-8 text, line by line."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [line.strip() for line in fh]
        return parse_indices(group, lines).tolist()
    except UnicodeDecodeError as exc:
        return InvalidSpecError, f"{path} is not UTF-8 text: {exc.reason}"
    except InvalidSpecError as exc:
        return InvalidSpecError, str(exc)


def _shift_violation(group, fn_vals: np.ndarray, coeffs: np.ndarray) -> float:
    """max over (x, y) of |f(x) - f(x-y)| - coeffs[y] f(x), inf-safe."""
    table = translate_rows(group, range(group.order))
    shifted = fn_vals[table[neg_index(group)]]  # row y: f(x - y) over x
    diff = np.abs(fn_vals[None, :] - shifted)
    with np.errstate(invalid="ignore", over="ignore"):
        bound = coeffs[:, None] * fn_vals[None, :]
    bound = np.where(np.isnan(bound), np.inf, bound)
    with np.errstate(invalid="ignore"):
        excess = diff - bound
    excess = np.where(np.isnan(excess), -np.inf, excess)
    return float(excess.max())


def schur_pairs(members: Iterable[int]) -> int:
    """Ordered pairs (x, y) of members with x + y a member, by the double loop."""
    mem = set(members)
    return sum(1 for x in mem for y in mem if x + y in mem)
