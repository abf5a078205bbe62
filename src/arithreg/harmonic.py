"""Fourier transform, convolution and zero-sum counting on a finite abelian group.

Transform convention: forward transform F(gamma) = sum_x f(x) gamma(x) with no
normalization; inversion divides by N.  One exact +-1 butterfly kernel runs in
place over each maximal run of 2-factors (a contiguous digit of the index),
most significant stride first, its short stages on transposed slabs; every
other factor goes through numpy's FFT in place.  Real input stays real until
the first non-2 factor.  The same kernel is the Walsh-Hadamard transform
`wht_last_axis` used by the (Z/2)^n pipeline.  The naive O(N^2) kernel lives
in the test suite as the independent oracle.  Set files are written by
`save_set` and read by `load_set`, which reads that layout as bytes and hands
any other file to the line loop `groups.parse_indices`.
"""

from __future__ import annotations

import io
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


def indicator(group: GroupSpec, members: Sequence[int] | np.ndarray) -> DenseFn:
    check_enumerable(group)
    vals = np.zeros(group.order)
    vals[np.asarray(members, dtype=np.int64)] = 1.0
    return DenseFn(group, vals)


def _indicator_required(f: DenseFn) -> None:
    if not np.all((f.values == 0.0) | (f.values == 1.0)):
        raise DomainMismatchError("operation requires a 0/1 indicator function")


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

_SHORT_RUN = 16  # elements: butterfly stages with shorter contiguous runs go transposed
_SLAB_BYTES = 1 << 19  # bytes of one transposed slab of those stages


def _butterflies(a: np.ndarray) -> None:
    """In place +-1 butterflies over axis -2 of a C-contiguous (..., 2^r, s) array.

    This is the Walsh-Hadamard transform of a run of r consecutive 2-factors,
    whose indices form one contiguous digit of stride s.  Stages go most
    significant stride first; every step only adds and subtracts, so integer
    input stays exact.  A stage of half-width h pairs runs of h*s contiguous
    elements.  The stages with runs under _SHORT_RUN stay inside chunks of
    m*s elements and run on transposed slabs of chunks, where one run spans
    the slab.  Every element gets the same adds and subtracts in the same
    order, so the result is bitwise that of the plain stage loop.  One fresh
    scratch holds the low-half copies (half of a) and a slab of up to
    _SLAB_BYTES.
    """
    n, s = a.shape[-2], a.shape[-1]
    m = 1
    while m < n and m * s < _SHORT_RUN:
        m *= 2
    chunk = m * s
    chunks = a.reshape(-1, chunk)
    step = max(1, min(len(chunks), _SLAB_BYTES // (chunk * a.itemsize)))
    half = a.size // 2
    scratch = np.empty(half + (step * chunk if m > 1 else 0), dtype=a.dtype)
    lows, slab = scratch[:half], scratch[half:]
    _stages(a.reshape(-1, n, s), m, lows)
    if m == 1:
        return
    for lo in range(0, len(chunks), step):
        part = chunks[lo : lo + step]
        t = slab[: part.size].reshape(part.shape[::-1])
        np.copyto(t, part.T)
        _stages(t.reshape(1, m, -1), 1, lows)
        np.copyto(part, t.T)


def _stages(a: np.ndarray, h_stop: int, scratch: np.ndarray) -> None:
    """Butterfly stages h = n/2, n/4, ..., h_stop in place on a C-contiguous (L, n, s) array."""
    lead, n, s = a.shape
    h = n // 2
    while h >= h_stop:
        view = a.reshape(lead, n // (2 * h), 2, h * s)
        lo, hi = view[:, :, 0], view[:, :, 1]
        tmp = scratch[: lo.size].reshape(lo.shape)
        np.copyto(tmp, lo)
        lo += hi
        np.subtract(tmp, hi, out=hi)
        h //= 2


def wht_last_axis(mat: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform along the last axis (length a power of two)."""
    out = np.array(mat, dtype=np.float64, order="C")
    _butterflies(out.reshape(out.shape + (1,)))
    return out


def _transform(group: GroupSpec, values: np.ndarray, inverse: bool) -> np.ndarray:
    """Transform of a copy of values along the last axis, one index digit at a time.

    Digits go most significant first.  A run of 2-factors is one digit and
    goes through the butterflies in one pass; any other factor goes through
    numpy's FFT, in place.  Real input stays float64 until the first non-2
    factor, so (Z/2)^n transforms of real rows come back real.
    """
    lead = values.shape[:-1]
    n = group.order
    digits = index_digits(group)
    real = values.dtype.kind != "c" and bool(digits) and digits[0][2]
    a = values.astype(np.float64 if real else np.complex128, order="C")
    a = a.reshape(lead + tuple(size for size, _, _ in digits))
    for axis, (size, stride, is_run) in enumerate(digits, start=len(lead)):
        if is_run:
            _butterflies(a.reshape(lead + (n // (size * stride), size, stride)))
            if inverse:
                a *= 1.0 / size
            continue
        if a.dtype.kind != "c":  # the first FFT digit after a real run
            a = a.astype(np.complex128)
        if inverse:
            np.fft.fft(a, axis=axis, out=a)
            a /= size
        else:
            np.fft.ifft(a, axis=axis, out=a)
            a *= size
    return a.reshape(lead + (n,))


def dft(f: DenseFn) -> Spectrum:
    """Forward transform F(gamma) = sum_x f(x) gamma(x)."""
    check_enumerable(f.group)
    return Spectrum(f.group, _transform(f.group, f.values, inverse=False))


def idft(F: Spectrum) -> DenseFn:
    """Inverse transform f(x) = N^{-1} sum_gamma F(gamma) conj(gamma(x)), real part."""
    return DenseFn(F.group, _transform(F.group, F.values, inverse=True).real.copy())


def dft_many(group: GroupSpec, rows: np.ndarray) -> np.ndarray:
    """Forward transform applied to each row of a (B, N) array, into a fresh array.

    Complex, except on (Z/2)^n with real rows, where the transform is real
    and comes back as float64.  rows is left as it is.
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
    return convolve_spectra(dft(f), dft(g))


def convolve_spectra(F: Spectrum, G: Spectrum) -> DenseFn:
    """f * g from stored transforms F of f and G of g, multiplied in that order (bitwise)."""
    return idft(Spectrum(F.group, F.values * G.values))


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
    """The nested sum behind T(f_1, ..., f_k), summed from the inside out.

    No transform is involved.  Start from v(u) = f_k(-u); for j = k-1 down
    to 3, replace v by v(u) = sum_x f_j(x) v(u + x), one pass over blocks of
    translate rows of v.  Then T = sum_x f_1(x) sum_y f_2(y) v(x + y), with
    translate rows of v over supp f_1 only.  That is k-2 passes of N^2
    multiply-adds, O(N) memory beside one translate block; on integer input
    every partial sum is an integer, so the sum is exact below 2^53.  The
    budget caps the N^(k-1) tuples the sum ranges over.
    """
    group = _common_group(fs)
    k = len(fs)
    n = group.order
    if n ** (k - 1) > budget:
        raise ResourceBudgetError(
            f"brute-force zero-sum needs N^(k-1) = {n ** (k - 1)} > budget {budget}"
        )
    vals = [f.values for f in fs]
    v = vals[-1][neg_index(group)]
    if k == 2:
        return float(vals[0] @ v)
    for f in reversed(vals[2:-1]):
        inner = np.empty(n)
        for lo, hi, rows in translate_blocks(group, v, range(n)):
            np.matmul(rows, f, out=inner[lo:hi])
        v = inner
    xs = np.flatnonzero(vals[0])
    total = 0.0
    for lo, hi, rows in translate_blocks(group, v, xs):
        total += float(vals[0][xs[lo:hi]] @ (rows @ vals[1]))
    return total


# ---------------------------------------------------------------------------
# serialization (one element per line for sets)
# ---------------------------------------------------------------------------

def save_set(group: GroupSpec, members: Iterable[int], path) -> None:
    """Write each member (a canonical index) as its residues joined by commas, one per line.

    The residues come from one divmod per factor, least significant first, so
    any number of factors is written (numpy's unravel_index stops at 64).
    """
    index = np.fromiter(members, dtype=np.int64)
    if index.size and not 0 <= index.min() <= index.max() < group.order:
        raise DomainMismatchError(f"set members must be indices in [0, {group.order})")
    columns = []
    for m in reversed(group.factors):
        index, residue = np.divmod(index, m)
        columns.append(residue.tolist())
    rows = zip(*reversed(columns))
    with open(path, "w") as fh:
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


def _saved_indices(group: GroupSpec, data: bytes) -> np.ndarray | None:
    """Canonical indices of a file in the layout `save_set` writes, or None for any other bytes.

    The layout: each line is `group.rank` unsigned decimal fields joined by
    ',' and ended by '\\n'.  Read as bytes, no text is decoded or split, and
    each line means what the line loop reads from it: residues at or above
    their factor are reduced, leading zeros are read as `int` reads them.
    """
    coords = _saved_coords(np.frombuffer(data, dtype=np.uint8), group.rank)
    if coords is None:
        return None
    check_enumerable(group)
    index = np.zeros(len(coords), dtype=np.int64)
    for column, m in zip(coords.T, group.factors):
        if column.max() >= m:
            column %= m
        index *= m
        index += column
    return index


def _saved_coords(raw: np.ndarray, rank: int) -> np.ndarray | None:
    """The residue rows of a file in the layout `save_set` writes, or None for any other bytes.

    A file whose fields all have one digit (every set on (Z/2)^n) is checked
    column by column on its `2 * rank`-byte rows.  Any other file takes one
    scan for the bytes that are not digits, which must be `rank - 1` commas
    and a '\\n' per line, and each field of 1 to 18 digits (so it fits int64)
    is built in one vector pass per digit place.  An empty file, a \\r,
    spaces, signs, non-ASCII bytes, blank lines, empty fields and wider
    fields return None.
    """
    width = 2 * rank
    if raw.size and raw.size % width == 0 and raw[width - 1] == ord("\n"):
        rows = raw.reshape(-1, width)
        digits = rows[:, ::2] - np.uint8(ord("0"))  # a byte below '0' wraps past 9
        if not ((digits > 9).any() or (rows[:, 1:-1:2] != ord(",")).any()
                or (rows[:, -1] != ord("\n")).any()):
            return digits
    digits = raw - np.uint8(ord("0"))
    ends = np.flatnonzero(digits > 9)
    if not ends.size or ends.size % rank or ends[-1] != raw.size - 1:
        return None
    separators = raw[ends].reshape(-1, rank)
    if (separators[:, :-1] != ord(",")).any() or (separators[:, -1] != ord("\n")).any():
        return None
    widths = np.diff(ends, prepend=-1) - 1
    if widths.min() < 1 or widths.max() > 18:
        return None
    values = np.zeros(ends.size, dtype=np.int64)
    for j in range(widths.max()):
        values += np.where(widths > j, digits[ends - (j + 1)], 0) * np.int64(10) ** j
    return values.reshape(-1, rank)


def read_lines(path) -> list[str]:
    """The stripped lines of a UTF-8 text file, broken at \\n, \\r and \\r\\n."""
    with open(path, "rb") as fh:
        return _text_lines(fh.read(), path)


def _text_lines(data: bytes, path) -> list[str]:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidSpecError(f"{path} is not UTF-8 text: {exc.reason}") from exc
    return list(map(str.strip, io.StringIO(text, newline=None)))


def load_set(group: GroupSpec, path) -> np.ndarray:
    """Canonical indices of the elements listed in a set file, in order, duplicates kept.

    The file is read once, as bytes.  A file in the layout `save_set` writes
    is read by `_saved_indices` without decoding it.  Any other bytes are
    decoded as `read_lines` does and go to the line loop `parse_indices`,
    whose errors quote each line stripped.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    indices = _saved_indices(group, data)
    return parse_indices(group, _text_lines(data, path)) if indices is None else indices
