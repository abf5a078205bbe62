"""Headline applications: sum-free decomposition, progression-density
witnesses, and the tower-type lower-bound construction on (Z/2)^n.

Progression search is exhaustive over the common difference (O(N^2) total):
at desk scale the claim itself is directly checkable, and the cutoff-weight
aggregation path is computed alongside for cross-reporting.  Progression
counts of a set are integers by construction: popcounts of packed 64-bit
words on a cyclic group, sums of 0/1 translate-row products on other shapes,
and counts of a 0/1 array's sliced ANDs on an interval; ap3_table hands them
out as float64 only at its boundary.  Each witness recounts its chosen
difference with ap3_count before it reports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DomainMismatchError,
    InternalCheckError,
    ResourceBudgetError,
    RetryExhaustedError,
    UsageError,
)
from .groups import (
    DUAL_SWEEP_MAX_DIM,
    F2Subgroup,
    GroupSpec,
    TRANSLATE_BLOCK_BYTES,
    _is_cyclic,
    _multiple_index,
    check_enumerable,
    f2_full,
    f2_parity,
    translate_blocks,
    translate_indices,
)
from .harmonic import DenseFn, _indicator_required, indicator, wht_last_axis, zero_sum_count
from .reg_general import RegPair, zero_sum_removal


# ---------------------------------------------------------------------------
# integer sets and three-term progressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntegerSet:
    """Subset of {1, ..., n_max}, kept sorted and duplicate-free."""

    n_max: int
    members: tuple[int, ...]

    def __post_init__(self):
        if self.n_max < 1:
            raise DomainMismatchError("n_max must be >= 1")
        ms = tuple(sorted(set(int(m) for m in self.members)))
        if ms and (ms[0] < 1 or ms[-1] > self.n_max):
            bad = next(m for m in self.members if not 1 <= int(m) <= self.n_max)
            raise DomainMismatchError(f"members must lie in [1, {self.n_max}], got {bad}")
        object.__setattr__(self, "members", ms)

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def density(self) -> float:
        return self.size / self.n_max


def ap3_count(A: "DenseFn | IntegerSet", d: int) -> int:
    """Number of x with x, x+d, x+2d all in A.

    Group case: modular, exact integer from the indicator over one translate
    row r of d (x + 2d is r[r[x]]).  Integer-set case: genuine integer
    progressions inside [1, n_max] (d may be negative; d = 0 counts the
    constant progressions, one per member).
    """
    if isinstance(A, IntegerSet):
        step = int(d)
        mem = set(A.members)
        return sum(1 for x in A.members if x + step in mem and x + 2 * step in mem)
    v = A.values
    row = translate_indices(A.group, d)
    return int(round(float(np.sum(v * v[row] * v[row[row]]))))


def _progression_sums(group: GroupSpec, f, g, h) -> np.ndarray:
    """sum_y f(y) g(y + d) h(y + 2d) for every d, a block of d's at a time.

    A block holds about TRANSLATE_BLOCK_BYTES of float64 rows.  On a cyclic
    group the rows are read, not copied: g + d is row d of the windows of g
    doubled, h + 2d row 2d of the windows of h tripled, so a block of d's
    takes every second h row.  Each block multiplies into one reused buffer
    and sums it per row.  Other shapes gather both operands' rows through
    translate_blocks.  Both paths do the same products and row sums.
    """
    n = group.order
    out = np.zeros(n)
    if not _is_cyclic(group):
        ds = range(n)
        blocks = zip(translate_blocks(group, g, ds), translate_blocks(group, h, _multiple_index(group, 2)))
        for (lo, hi, g_rows), (_, _, h_rows) in blocks:
            out[lo:hi] = np.sum(f * g_rows * h_rows, axis=1)
        return out
    g_win = sliding_window_view(np.concatenate([g, g]), n)
    h_win = sliding_window_view(np.concatenate([h, h, h]), n)
    step = max(1, TRANSLATE_BLOCK_BYTES // (8 * n))
    buf = np.empty((min(step, n), n))
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        rows = buf[: hi - lo]
        np.multiply(f, g_win[lo:hi], out=rows)
        rows *= h_win[2 * lo : 2 * hi : 2]
        out[lo:hi] = rows.sum(axis=1)
    return out


def _packed_ap3_counts(a: np.ndarray) -> np.ndarray:
    """P(A; d) for every d on Z/N as int64, from the 0/1 bool array a of A.

    Row r of `shifted` packs a read cyclically from r on, so the W words of
    A + s are the W consecutive words of row s mod 64 from word s // 64.  Bits
    past N in packed A's last word are zero and mask the partial word.  The
    words are read from windows of `shifted`, and a block of d's gathers about
    TRANSLATE_BLOCK_BYTES / 4 of words per operand, which keeps the peak below
    that of the float rows of _progression_sums; `shifted` is about 16 N bytes.
    """
    n = a.size
    w = -(-n // 64)  # words per row
    row_words = (n - 1) // 64 + w  # every start s < N has its W words in a row
    packed = np.packbits(np.pad(a, (0, 64 * w - n)), bitorder="little").view("<u8")
    repeated = np.resize(a, 64 * row_words + 63)  # a repeated cyclically
    windows = sliding_window_view(repeated, 64 * row_words)[:64]
    shifted = np.packbits(windows, axis=1, bitorder="little").view("<u8").reshape(-1)
    rows = sliding_window_view(shifted, w)
    step = max(1, TRANSLATE_BLOCK_BYTES // (32 * w))
    out = np.empty(n, dtype=np.int64)
    for lo in range(0, n, step):
        d = np.arange(lo, min(n, lo + step))
        twice = 2 * d % n
        words = rows[(d & 63) * row_words + (d >> 6)]
        words &= rows[(twice & 63) * row_words + (twice >> 6)]
        words &= packed
        out[lo : lo + d.size] = np.bitwise_count(words).sum(axis=1, dtype=np.int64)
    return out


def ap3_table(A: DenseFn) -> np.ndarray:
    """P(A; d) for every d, as exact integer counts in a float64 array.

    A must be an indicator.  On a cyclic group the counts are int64
    popcounts of packed words, A AND (A + d) AND (A + 2d); other shapes sum
    the 0/1 products of blocks of translate rows, which is exact too.  Every
    count is at most N < 2^53, so the float64 boundary keeps it exactly.
    """
    _indicator_required(A)
    if _is_cyclic(A.group):
        return _packed_ap3_counts(A.values == 1.0).astype(np.float64)
    return _progression_sums(A.group, A.values, A.values, A.values)


@dataclass
class BhkGroupWitness:
    d_index: int
    count: float
    alpha: float
    bound: float
    bound_ok: bool
    table: np.ndarray = field(repr=False, compare=False)  # ap3_table(A)


def bhk_witness_group(A: DenseFn, eps: float) -> BhkGroupWitness:
    """Best nonzero common difference for three-term progressions in A.

    Exhaustive over all d; the returned count is compared against
    (alpha^3 - eps) N, and the full ap3_table rides along.  Odd group order
    is required (2 must be invertible).
    """
    if eps <= 0:
        raise DomainMismatchError(f"need eps > 0, got eps {eps}")
    group = A.group
    if group.order % 2 == 0:
        raise DomainMismatchError("progression witness search needs odd group order")
    if group.order == 1:
        raise DomainMismatchError("progression witness search needs a nonzero difference")
    n = group.order
    table = ap3_table(A)
    d = int(np.argmax(table[1:])) + 1
    if ap3_count(A, d) != table[d]:
        raise InternalCheckError(f"progression table entry {table[d]} at d = {d} fails its recount")
    alpha_density = float(A.values.sum()) / n
    bound = (alpha_density**3 - eps) * n
    return BhkGroupWitness(
        d_index=d,
        count=float(table[d]),
        alpha=alpha_density,
        bound=bound,
        bound_ok=bool(table[d] >= bound),
        table=table,
    )


def _interval_ap3_counts(A: IntegerSet, d_max: int) -> np.ndarray:
    """ap3_count(A, d) for d = 1, ..., d_max at entry d - 1, as int64.

    One AND of three slices of the 0/1 array over [0, n] per d; d_max is at
    most max(1, (n - 1) // 2), so no slice bound goes negative.
    """
    n = A.n_max
    x = np.zeros(n + 1, dtype=bool)
    x[np.array(A.members, dtype=np.intp)] = True
    return np.array(
        [
            np.count_nonzero(x[1 : n + 1 - 2 * d] & x[1 + d : n + 1 - d] & x[1 + 2 * d :])
            for d in range(1, d_max + 1)
        ],
        dtype=np.int64,
    )


@dataclass
class BhkIntervalWitness:
    d: int | None
    count: int
    alpha: float
    bound: float
    bound_ok: bool
    d_cap: int


def bhk_witness_interval(A: IntegerSet, eps: float) -> BhkIntervalWitness:
    """Best small difference witness with genuine integer progressions.

    Only |d| <= eps * n_max is searched (counts for -d mirror those for d);
    the count is compared against (alpha^3 - 47 eps) N.
    """
    if eps <= 0:
        raise DomainMismatchError(f"need eps > 0, got eps {eps}")
    n = A.n_max
    if not math.isfinite(eps * n):
        raise DomainMismatchError(f"eps * n_max = {eps * n} must be finite")
    d_cap = math.floor(eps * n)
    alpha_density = A.density
    bound = (alpha_density**3 - 47.0 * eps) * n
    # no progression in [1, n] has a difference above (n - 1) // 2: those d
    # count 0 and cannot beat d = 1
    counts = _interval_ap3_counts(A, min(d_cap, max(1, (n - 1) // 2)))
    if not counts.size:
        return BhkIntervalWitness(None, 0, alpha_density, bound, False, d_cap)
    best_d = int(np.argmax(counts)) + 1  # the first best d wins
    best_count = int(counts[best_d - 1])
    if ap3_count(A, best_d) != best_count:
        raise InternalCheckError(f"progression count {best_count} at d = {best_d} fails recount")
    return BhkIntervalWitness(
        d=best_d,
        count=best_count,
        alpha=alpha_density,
        bound=bound,
        bound_ok=bool(best_count >= bound),
        d_cap=d_cap,
    )


# ---------------------------------------------------------------------------
# cutoff-weighted progression kernel
# ---------------------------------------------------------------------------

def nu_weight(pair: RegPair) -> DenseFn:
    """nu(d) = sum_y psi1^(1/2)(y) psi2(2(y+d)) psi1^(1/2)(y+2d), for all d.

    Nonnegative with total mass at most 1 + 8 eps (checked); the total equals
    the weighted zero-sum count T(psi1^(1/2), psi2, psi1^(1/2)).
    """
    group = pair.group
    if group.order % 2 == 0:
        raise DomainMismatchError("the halved cutoff needs odd group order")
    s = pair.psi1.psi_sqrt.values
    halved = np.clip(pair.psi2.psi.values, 0.0, None)[_multiple_index(group, 2)]
    out = _progression_sums(group, s, halved, s)
    total = float(out.sum())
    if total > 1.0 + 8.0 * pair.eps + 1e-9:
        raise InternalCheckError(f"nu mass {total} exceeds 1 + 8 eps")
    return DenseFn(group, out)


def nu_mass_spectral(pair: RegPair) -> float:
    """T(psi1^(1/2), psi2, psi1^(1/2)), the spectral value of sum_d nu(d)."""
    return zero_sum_count([pair.psi1.psi_sqrt, pair.psi2.psi, pair.psi1.psi_sqrt])


def nu_mass_identity(pair: RegPair) -> tuple[float, float]:
    """(sum_d nu(d), T(psi1^(1/2), psi2, psi1^(1/2))) for cross-checking."""
    return float(nu_weight(pair).values.sum()), nu_mass_spectral(pair)


# ---------------------------------------------------------------------------
# sum-free decomposition over the integers
# ---------------------------------------------------------------------------

def schur_triples(A: IntegerSet) -> int:
    """Ordered pairs (x, y) in A^2 with x + y in A."""
    mem = set(A.members)
    return sum(1 for x in A.members for y in A.members if x + y in mem)


def sum_free_decompose(
    A: IntegerSet,
    eps: float,
    mode: str = "scaled",
    scale: float = 1.0,
    budget: int = 64,
) -> tuple[IntegerSet, IntegerSet, dict]:
    """Split A into a sum-free part B and a removed part C.

    Embeds A in Z/2N (where x + y = z for members of [1, N] iff it holds
    mod 2N), removes zero-sum triples from (A, A, -A), and intersects the
    survivors back.  B is verified sum-free by an exhaustive pair check.
    """
    n = A.n_max
    group = GroupSpec((2 * n,))
    a_bar = indicator(group, list(A.members))
    a_neg = indicator(group, [(2 * n - m) % (2 * n) for m in A.members])
    survivors, removed, cert = zero_sum_removal(
        [a_bar, a_bar, a_neg], eps, mode=mode, scale=scale, budget=budget
    )
    s1, s2, s3 = survivors
    b_members = [
        m
        for m in A.members
        if s1.values[m] > 0.5 and s2.values[m] > 0.5 and s3.values[(2 * n - m) % (2 * n)] > 0.5
    ]
    B = IntegerSet(n, tuple(b_members))
    in_b = set(b_members)
    C = IntegerSet(n, tuple(m for m in A.members if m not in in_b))
    if schur_triples(B) != 0:
        raise InternalCheckError("sum-free part still contains a Schur triple")
    cert = dict(cert)
    cert["removed_counts"] = removed
    cert["b_size"] = B.size
    cert["c_size"] = C.size
    return B, C, cert


# ---------------------------------------------------------------------------
# tower-type lower bound construction
# ---------------------------------------------------------------------------

def growth_step(m: int) -> int:
    """m itself below 20, floor(m/4) from 20 on."""
    if m < 1:
        raise DomainMismatchError("argument must be >= 1")
    return m if m <= 19 else m // 4


def tower_sequence(i: int) -> int:
    """d_0 = 0 and d_{i+1} = growth_step(2^{d_0 + ... + d_i}); exact integers."""
    if i < 0:
        raise DomainMismatchError("index must be >= 0")
    total = 0
    d = 0
    for _ in range(i):
        total += d
        d = growth_step(2**total)
    return d


def _verify_spanning(masks: np.ndarray, f_dim: int, m: int) -> bool:
    """No nonzero dual vector is orthogonal to ceil(0.95 m) of the vectors.

    Exhaustive over all 2^f_dim - 1 duals via one exact Walsh-Hadamard
    transform of the multiplicity vector.
    """
    counts = np.zeros(1 << f_dim)
    np.add.at(counts, masks, 1.0)
    w = wht_last_axis(counts)
    zero_counts = (m + w) / 2.0
    need = math.ceil(0.95 * m)
    return bool(np.max(zero_counts[1:]) < need) if f_dim > 0 else True


def spanning_family(m: int, seed: int, retries: int = 64) -> np.ndarray:
    """m nonzero vectors in F2^{growth_step(m)}, no 95% of which fit under a hyperplane.

    Below m = 20 a basis is returned (the only qualifying subset is the full
    set, which spans); from 20 on a seeded random family is drawn and
    verified exhaustively over all nonzero duals.
    """
    f_dim = growth_step(m)
    if f_dim > DUAL_SWEEP_MAX_DIM:
        raise ResourceBudgetError(
            f"exhaustive dual sweep needs 2^{f_dim} > 2^{DUAL_SWEEP_MAX_DIM} checks"
        )
    if m <= 19:
        masks = np.array([1 << (f_dim - 1 - j) for j in range(m)], dtype=np.int64)
        if not _verify_spanning(masks, f_dim, m):
            raise InternalCheckError("basis family failed the spanning check")
        return masks
    for attempt in range(retries):
        rng = np.random.default_rng([int(seed), attempt])
        masks = rng.integers(1, 1 << f_dim, size=m, dtype=np.int64)
        if _verify_spanning(masks, f_dim, m):
            return masks
    raise RetryExhaustedError(
        f"no spanning family found in {retries} attempts; try another seed"
    )


@dataclass
class TowerSpec:
    """Nested chain data behind the hard-instance function.

    Coordinates are consumed left to right: level i owns the block of
    d_{i+1} coordinates after the first c_i = d_0 + ... + d_i, the chain
    member H_i spans everything after the first c_i coordinates, and the
    level-i family assigns one block vector to each prefix pattern v.
    """

    n: int
    dims: tuple[int, ...]
    levels: tuple[int, ...]
    chain: list[F2Subgroup]
    xi_families: list[np.ndarray] = field(default_factory=list)
    level_sizes: tuple[int, ...] = ()  # checked |b_i| = N/2, one per built level

    def cumulative(self, i: int) -> int:
        return sum(self.dims[: i + 1])


def build_tower_function(n: int, s: int, seed: int) -> tuple[TowerSpec, DenseFn]:
    """Construct the layered half-density sets and their weighted sum.

    Level i is built when its block of growth_step(2^{c_i}) coordinates fits
    inside the remaining space and its family is verifiable; each built level
    contributes a set meeting every coset of the level subgroup in exactly
    half, weighted by 4^{-i}, and the total is halved into [0, 2/3].

    Level i depends only on the top c_i bits v and the next next_dim bits u of
    x, b_i(x) = 1 - parity(u & family[v]): the set is kept as that
    (2^c_i, 2^next_dim) table, whose size times 2^shift is checked to be N/2,
    and the table, weighted, is broadcast over the low bits into f.
    """
    if n < 1 or s < 0:
        raise DomainMismatchError(f"tower needs n >= 1 and depth >= 0, got n = {n}, depth = {s}")
    dims = (0,)
    while len(dims) <= s and sum(dims) <= n:  # stop past n: d_6 = 2^(2^521 + 521)
        dims += (growth_step(2 ** sum(dims)),)
    if sum(dims) > n:
        raise DomainMismatchError(
            f"chain dimensions {dims} need {sum(dims)} coordinates, only {n} available"
        )
    group = GroupSpec((2,) * n)
    check_enumerable(group)
    order = group.order
    chain = [F2Subgroup(n, f2_full(n - sum(dims[: i + 1])).basis) for i in range(s + 1)]

    levels: list[int] = []
    xi_families: list[np.ndarray] = []
    level_sizes: list[int] = []
    f_vals = np.zeros(order)
    for i in range(s + 1):
        c_i = sum(dims[: i + 1])
        m = 1 << c_i
        next_dim = growth_step(m)
        if c_i + next_dim > n or next_dim > DUAL_SWEEP_MAX_DIM:
            break
        family = spanning_family(m, seed + i)
        shift = n - c_i - next_dim
        table = 1.0 - f2_parity(family[:, None] & np.arange(1 << next_dim))
        size = int(table.sum()) << shift  # 0/1 entries, at most 2^24: exact
        if size != order // 2:
            raise InternalCheckError("level set does not have cardinality N/2")
        levels.append(i)
        xi_families.append(family << shift)
        level_sizes.append(size)
        f_vals.reshape(m, 1 << next_dim, 1 << shift)[...] += 4.0**-i * table[:, :, None]
    f_vals *= 0.5
    spec = TowerSpec(
        n=n,
        dims=dims,
        levels=tuple(levels),
        chain=chain,
        xi_families=xi_families,
        level_sizes=tuple(level_sizes),
    )
    return spec, DenseFn(group, f_vals)


def verify_tower_step(
    spec: TowerSpec, f: DenseFn, H: F2Subgroup, i: int, eps: float
) -> dict:
    """Check the inductive coefficient bound at one level for a subgroup H <= H_i.

    For every prefix pattern v whose block vector H fails to annihilate
    ("escaping" v), the local coefficient of f at that vector must be at
    least (1/16) 4^{-i} of |H| for every coset of H inside the level slab;
    the fraction of escaping v is reported against eps.

    H <= H_i lives in the low h = n - c_i bits, so v's slab is f's block v << h.
    It is folded along each basis row b of H, highest pivot p first: x meets
    x ^ b, added or subtracted as <b, xi_v> is 0 or 1, leaving one coefficient
    per coset.  Tower values are multiples of 2^-(2s+1) below 1 and a
    coefficient sums at most 2^24 of them, so each partial sum is exact in
    float64, in any order.
    """
    if i not in spec.levels:
        raise UsageError(f"level {i} was not built (available: {spec.levels})")
    h_i_dim = spec.n - spec.cumulative(i)
    if not spec.chain[i].contains_subgroup(H):
        raise DomainMismatchError("H is not contained in the level subgroup")

    family = spec.xi_families[spec.levels.index(i)]
    # v escapes when some basis row of H is not orthogonal to its block vector
    basis = np.array(H.basis, dtype=np.int64)
    escaping = np.flatnonzero(f2_parity(family[:, None] & basis).any(axis=1))

    min_ratio = math.inf
    threshold = (1.0 / 16.0) * 4.0**-i
    for v_idx, xi in zip(escaping.tolist(), family[escaping].tolist()):
        coeffs = f.values[v_idx << h_i_dim : (v_idx + 1) << h_i_dim]
        for b, p in zip(H.basis, H.pivots):
            lo, hi = coeffs.reshape(-1, 2, 1 << p).swapaxes(0, 1)
            if b ^ (1 << p):
                hi = hi[:, np.arange(1 << p) ^ (b ^ (1 << p))]
            coeffs = lo - hi if (b & xi).bit_count() & 1 else lo + hi
        min_ratio = min(min_ratio, float(np.min(np.abs(coeffs)) / H.size))
    frac = len(escaping) / family.size
    return {
        "i": i,
        "escaping_count": len(escaping),
        "escaping_fraction": frac,
        "fraction_le_eps": bool(frac <= eps),
        "min_coefficient_ratio": None if not escaping.size else min_ratio,
        "threshold": threshold,
        "coefficient_bound_ok": bool(not escaping.size or min_ratio >= threshold),
    }
