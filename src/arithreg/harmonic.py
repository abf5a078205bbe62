"""Fourier transform, convolution and zero-sum counting on a finite abelian group.

Transform convention: forward transform F(gamma) = sum_x f(x) gamma(x) with no
normalization; inversion divides by N.  One exact +-1 butterfly kernel runs in
place over each maximal run of 2-factors (a contiguous digit of the index),
most significant stride first; every other factor goes through numpy's FFT.
Real input stays real until the first non-2 factor.  The same kernel is the
Walsh-Hadamard transform `wht_last_axis` used by the (Z/2)^n pipeline.  The
naive O(N^2) kernel lives in the test suite as the independent oracle.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainMismatchError, InvalidSpecError, ResourceBudgetError
from .groups import (
    BRUTE_FORCE_BUDGET,
    GroupSpec,
    check_enumerable,
    index_digits,
    neg_index,
    parse_indices,
    translate_blocks,
)


@dataclass(frozen=True)
class DenseFn:
    """Real-valued function on a group, indexed by canonical element order."""

    group: GroupSpec
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (self.group.order,):
            raise DomainMismatchError(
                f"expected {self.group.order} values, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise DomainMismatchError("function values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class Spectrum:
    """Complex transform values, indexed by canonical character order."""

    group: GroupSpec
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != (self.group.order,):
            raise DomainMismatchError(
                f"expected {self.group.order} values, got shape {vals.shape}"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def constant(group: GroupSpec, value: float) -> DenseFn:
    check_enumerable(group)
    return DenseFn(group, np.full(group.order, float(value)))


def indicator(group: GroupSpec, members: Sequence[int] | np.ndarray) -> DenseFn:
    check_enumerable(group)
    vals = np.zeros(group.order)
    vals[np.asarray(members, dtype=np.int64)] = 1.0
    return DenseFn(group, vals)


def support(f: DenseFn) -> np.ndarray:
    """Indices where a 0/1-valued function is 1."""
    return np.flatnonzero(f.values > 0.5)


def delta(group: GroupSpec, x: int = 0) -> DenseFn:
    return indicator(group, [x])


def _indicator_required(f: DenseFn) -> None:
    if not np.all((f.values == 0.0) | (f.values == 1.0)):
        raise DomainMismatchError("operation requires a 0/1 indicator function")


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def _butterflies(a: np.ndarray) -> None:
    """In place +-1 butterflies over axis -2 of a C-contiguous (..., 2^r, s) array.

    This is the Walsh-Hadamard transform of a run of r consecutive 2-factors,
    whose indices form one contiguous digit of stride s.  Stages go most
    significant stride first; every step only adds and subtracts, so integer
    input stays exact.
    """
    lead, n, s = a.shape[:-2], a.shape[-2], a.shape[-1]
    h = n // 2
    while h:
        view = a.reshape(lead + (n // (2 * h), 2, h * s))
        lo = view[..., 0, :]
        hi = view[..., 1, :]
        tmp = lo.copy()
        lo += hi
        np.subtract(tmp, hi, out=hi)
        h //= 2


def wht_last_axis(mat: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform along the last axis (length a power of two)."""
    out = np.array(mat, dtype=np.float64, order="C")
    _butterflies(out.reshape(out.shape + (1,)))
    return out


def _transform(group: GroupSpec, values: np.ndarray, inverse: bool) -> np.ndarray:
    """Transform along the last axis, one index digit at a time, most significant first.

    A run of 2-factors is one digit and goes through the butterflies in one
    pass; any other factor goes through numpy's FFT.  Real input stays
    float64 until the first non-2 factor, so (Z/2)^n transforms of real rows
    come back real.
    """
    lead = values.shape[:-1]
    n = group.order
    digits = index_digits(group)
    real = values.dtype.kind != "c" and bool(digits) and digits[0][2]
    a = values.astype(np.float64 if real else np.complex128, order="C")
    a = a.reshape(lead + tuple(size for size, _, _ in digits))
    for axis, (size, stride, is_run) in enumerate(digits, start=len(lead)):
        if is_run:
            a = np.ascontiguousarray(a)
            _butterflies(a.reshape(lead + (n // (size * stride), size, stride)))
            if inverse:
                a *= 1.0 / size
        elif inverse:
            a = np.fft.fft(a, axis=axis) / size
        else:
            a = np.fft.ifft(a, axis=axis) * size
    return a.reshape(lead + (n,))


def dft(f: DenseFn) -> Spectrum:
    """Forward transform F(gamma) = sum_x f(x) gamma(x)."""
    check_enumerable(f.group)
    return Spectrum(f.group, _transform(f.group, f.values, inverse=False))


def idft(F: Spectrum, return_residue: bool = False):
    """Inverse transform f(x) = N^{-1} sum_gamma F(gamma) conj(gamma(x)).

    Returns the real part; with return_residue=True also reports the largest
    imaginary component left over (nonzero when F lacks conjugate symmetry).
    """
    out = _transform(F.group, F.values, inverse=True)
    residue = float(np.max(np.abs(out.imag))) if out.size else 0.0
    f = DenseFn(F.group, out.real.copy())
    if return_residue:
        return f, residue
    return f


def dft_many(group: GroupSpec, rows: np.ndarray) -> np.ndarray:
    """Forward transform applied to each row of a (B, N) array.

    Complex, except on (Z/2)^n with real rows, where the transform is real
    and comes back as float64.
    """
    return _transform(group, np.asarray(rows), inverse=False)


def parseval_gap(f: DenseFn, F: Spectrum | None = None) -> float:
    """Relative gap in sum |F|^2 = N sum f^2 (zero in exact arithmetic)."""
    if F is None:
        F = dft(f)
    lhs = float(np.sum(np.abs(F.values) ** 2))
    rhs = f.group.order * float(np.sum(f.values**2))
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return abs(lhs - rhs) / scale


# ---------------------------------------------------------------------------
# convolution and the zero-sum operator
# ---------------------------------------------------------------------------

def convolve(f: DenseFn, g: DenseFn) -> DenseFn:
    """(f * g)(x) = sum_y f(y) g(x - y), computed spectrally."""
    if f.group != g.group:
        raise DomainMismatchError("convolution operands on different groups")
    prod = Spectrum(f.group, dft(f).values * dft(g).values)
    return idft(prod)


def _common_group(fs: Sequence[DenseFn]) -> GroupSpec:
    if len(fs) < 2:
        raise DomainMismatchError("zero-sum operator needs at least two functions")
    if any(f.group != fs[0].group for f in fs[1:]):
        raise DomainMismatchError("zero-sum operands on different groups")
    return fs[0].group


def zero_sum_count(fs: Sequence[DenseFn]) -> float:
    """T(f_1, ..., f_k) = sum over x_1 + ... + x_k = 0 of the product.

    Computed spectrally as N^{-1} sum_gamma prod_i F_i(gamma), transforming
    each distinct function object once.
    """
    group = _common_group(fs)
    distinct = {id(f): f for f in fs}
    spectra = {key: dft(f).values for key, f in distinct.items()}
    acc = np.ones(group.order, dtype=np.complex128)
    for f in fs:
        acc *= spectra[id(f)]
    return float(np.sum(acc).real) / group.order


def brute_force_zero_sum(fs: Sequence[DenseFn], budget: int = BRUTE_FORCE_BUDGET) -> float:
    """The literal nested sum behind T(f_1, ..., f_k); O(N^{k-1}) work.

    The innermost free coordinate is vectorized; the summand is unchanged.
    """
    group = _common_group(fs)
    k = len(fs)
    n = group.order
    if n ** (k - 1) > budget:
        raise ResourceBudgetError(
            f"brute-force zero-sum needs N^(k-1) = {n ** (k - 1)} > budget {budget}"
        )
    neg = neg_index(group)
    vals = [f.values for f in fs]
    if k == 2:
        return float(vals[0] @ vals[1][neg])
    second_last, last_neg = vals[-2], vals[-1][neg]
    index = np.arange(n)

    def descend(depth: int, row: np.ndarray, weight: float) -> float:
        # row[x] is the index of s + x, s the sum of the coordinates fixed above;
        # the deepest level closes each term with f_{k-1} . f_k(-(s + x + .)).
        fv = vals[depth]
        xs = np.flatnonzero(fv != 0.0)
        deepest = depth == k - 3
        total = 0.0
        for lo, _, rows in translate_blocks(group, last_neg if deepest else index, row[xs]):
            for x, r in zip(xs[lo:], rows):
                w = weight * fv[x]
                total += w * float(second_last @ r) if deepest else descend(depth + 1, r, w)
        return total

    return descend(0, index, 1.0)


# ---------------------------------------------------------------------------
# serialization (CSV for functions, one element per line for sets)
# ---------------------------------------------------------------------------

def save_dense_fn(f: DenseFn, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["element", "value"])
        for i, v in enumerate(f.values):
            writer.writerow([str(f.group.element_at(i)), repr(float(v))])


def load_dense_fn(group: GroupSpec, path) -> DenseFn:
    vals = np.zeros(group.order)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["element", "value"]:
            raise DomainMismatchError(f"{path}: expected CSV header 'element,value'")
        rows = [row for row in reader if row]
    idx = parse_indices(group, [row[0] for row in rows])
    if idx.size != len(rows):
        raise InvalidSpecError(f"{path}: blank element field")
    for i, row in zip(idx.tolist(), rows):  # in row order: the last duplicate wins
        vals[i] = float(row[1])
    return DenseFn(group, vals)


def save_set(group: GroupSpec, members: Iterable[int], path) -> None:
    with open(path, "w") as fh:
        for x in members:
            fh.write(f"{group.element_at(int(x))}\n")


def load_set(group: GroupSpec, path) -> np.ndarray:
    with open(path) as fh:  # errors quote each line stripped
        return parse_indices(group, map(str.strip, fh))
