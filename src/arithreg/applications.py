"""Headline applications: sum-free decomposition, progression-density
witnesses, and the tower-type lower-bound construction on (Z/2)^n.

Progression search is exhaustive over the common difference (O(N^2) total):
at desk scale the claim itself is directly checkable, and the cutoff-weight
aggregation path is computed alongside for cross-reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

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
    GroupElement,
    GroupSpec,
    coords_table,
    f2_parity,
    ravel_coords,
    translate_blocks,
)
from .harmonic import DenseFn, indicator, wht_last_axis, zero_sum_count
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
            raise DomainMismatchError(f"members must lie in [1, {self.n_max}]")
        object.__setattr__(self, "members", ms)

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def density(self) -> float:
        return self.size / self.n_max


def make_integer_set(n_max: int, members: Sequence[int]) -> IntegerSet:
    return IntegerSet(int(n_max), tuple(members))


def _twice_index(group: GroupSpec) -> np.ndarray:
    """Index of 2x per element x."""
    c = coords_table(group)
    m = np.asarray(group.factors, dtype=np.int64)
    return ravel_coords(group, (2 * c) % m)


def ap3_count(A: "DenseFn | IntegerSet", d: "GroupElement | int") -> int:
    """Number of x with x, x+d, x+2d all in A.

    Group case: modular, exact integer from the indicator.  Integer-set
    case: genuine integer progressions inside [1, n_max] (d may be negative;
    d = 0 counts the constant progressions, one per member).
    """
    if isinstance(A, IntegerSet):
        step = int(d)
        mem = set(A.members)
        return sum(1 for x in A.members if x + step in mem and x + 2 * step in mem)
    idx = (d.index if isinstance(d, GroupElement) else int(d)) % A.group.order
    return int(round(_progression_sums(A.group, A.values, A.values, A.values, [idx])[0]))


def _progression_sums(group: GroupSpec, f, g, h, ds: Sequence[int]) -> np.ndarray:
    """sum_y f(y) g(y + d) h(y + 2d) for each d in ds, over blocks of translate rows."""
    out = np.zeros(len(ds))
    twice = _twice_index(group)[ds]
    blocks = zip(translate_blocks(group, g, ds), translate_blocks(group, h, twice))
    for (lo, hi, g_rows), (_, _, h_rows) in blocks:
        out[lo:hi] = np.sum(f * g_rows * h_rows, axis=1)
    return out


def ap3_table(A: DenseFn) -> np.ndarray:
    """P(A; d) for every d, as exact integers (float array)."""
    return _progression_sums(A.group, A.values, A.values, A.values, range(A.group.order))


@dataclass
class BhkGroupWitness:
    d_index: int
    count: float
    alpha: float
    bound: float
    bound_ok: bool
    n: int
    table: np.ndarray = field(repr=False, compare=False)  # ap3_table(A)


def bhk_witness_group(A: DenseFn, eps: float) -> BhkGroupWitness:
    """Best nonzero common difference for three-term progressions in A.

    Exhaustive over all d; the returned count is compared against
    (alpha^3 - eps) N, and the full ap3_table rides along.  Odd group order
    is required (2 must be invertible).
    """
    group = A.group
    if group.order % 2 == 0:
        raise DomainMismatchError("progression witness search needs odd group order")
    n = group.order
    table = ap3_table(A)
    d = int(np.argmax(table[1:])) + 1
    alpha_density = float(A.values.sum()) / n
    bound = (alpha_density**3 - eps) * n
    return BhkGroupWitness(
        d_index=d,
        count=float(table[d]),
        alpha=alpha_density,
        bound=bound,
        bound_ok=bool(table[d] >= bound),
        n=n,
        table=table,
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
    n = A.n_max
    d_cap = math.floor(eps * n)
    alpha_density = A.density
    bound = (alpha_density**3 - 47.0 * eps) * n
    best_d, best_count = None, -1
    for d in range(1, d_cap + 1):
        c = ap3_count(A, d)
        if c > best_count:
            best_d, best_count = d, c
    if best_d is None:
        return BhkIntervalWitness(None, 0, alpha_density, bound, False, d_cap)
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
    halved = np.clip(pair.psi2.psi.values, 0.0, None)[_twice_index(group)]
    out = _progression_sums(group, s, halved, s, range(group.order))
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
    C = IntegerSet(n, tuple(m for m in A.members if m not in set(b_members)))
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
    s: int
    dims: tuple[int, ...]
    levels: tuple[int, ...]
    chain: list[F2Subgroup]
    xi_families: list[np.ndarray] = field(default_factory=list)
    b_sets: list[DenseFn] = field(default_factory=list)
    seed: int = 0

    def cumulative(self, i: int) -> int:
        return sum(self.dims[: i + 1])


def _low_bits_subgroup(n: int, dim: int) -> F2Subgroup:
    return F2Subgroup(n, tuple(1 << (dim - 1 - j) for j in range(dim)))


def build_tower_function(n: int, s: int, seed: int) -> tuple[TowerSpec, DenseFn]:
    """Construct the layered half-density sets and their weighted sum.

    Level i is built when its block of growth_step(2^{c_i}) coordinates fits
    inside the remaining space and its family is verifiable; each built level
    contributes a set meeting every coset of the level subgroup in exactly
    half, weighted by 4^{-i}, and the total is halved into [0, 2/3].
    """
    dims = tuple(tower_sequence(i) for i in range(s + 1))
    if sum(dims) > n:
        raise DomainMismatchError(
            f"chain dimensions {dims} need {sum(dims)} coordinates, only {n} available"
        )
    group = GroupSpec((2,) * n)
    order = group.order
    chain = []
    cum = 0
    for i in range(s + 1):
        cum += dims[i]
        chain.append(_low_bits_subgroup(n, n - cum))

    levels: list[int] = []
    xi_families: list[np.ndarray] = []
    b_sets: list[DenseFn] = []
    f_vals = np.zeros(order)
    c_i = 0
    for i in range(s + 1):
        c_i = sum(dims[: i + 1])
        m = 1 << c_i
        next_dim = growth_step(m)
        if c_i + next_dim > n or next_dim > DUAL_SWEEP_MAX_DIM:
            break
        family = spanning_family(m, seed + i)
        shift = n - c_i - next_dim
        full_masks = family << shift
        x = np.arange(order, dtype=np.int64)
        v_of_x = x >> (n - c_i) if c_i else np.zeros(order, dtype=np.int64)
        b_vals = 1.0 - f2_parity(x & full_masks[v_of_x])
        if int(b_vals.sum()) != order // 2:
            raise InternalCheckError("level set does not have cardinality N/2")
        levels.append(i)
        xi_families.append(full_masks)
        b_sets.append(DenseFn(group, b_vals))
        f_vals += 4.0**-i * b_vals
    f_vals *= 0.5
    spec = TowerSpec(
        n=n,
        s=s,
        dims=dims,
        levels=tuple(levels),
        chain=chain,
        xi_families=xi_families,
        b_sets=b_sets,
        seed=seed,
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
    """
    if i not in spec.levels:
        raise UsageError(f"level {i} was not built (available: {spec.levels})")
    n = spec.n
    h_i_dim = n - spec.cumulative(i)
    h_level = _low_bits_subgroup(n, h_i_dim)
    if not h_level.contains_subgroup(H):
        raise DomainMismatchError("H is not contained in the level subgroup")

    family = spec.xi_families[spec.levels.index(i)]
    helts = H.elements_by_coeff()
    slab = np.arange(1 << h_i_dim, dtype=np.int64)
    reps = np.unique(H.reduce(slab))

    escaping = []
    min_ratio = math.inf
    threshold = (1.0 / 16.0) * 4.0**-i
    for v_idx, xi in enumerate(family):
        if all(not f2_parity(np.array([b & xi]))[0] for b in H.basis):
            continue
        escaping.append(v_idx)
        signs = 1.0 - 2.0 * f2_parity(helts & xi)
        v_mask = v_idx << (n - spec.cumulative(i)) if spec.cumulative(i) else 0
        for r in reps:
            g = int(v_mask ^ r)
            coeff = float(np.sum(f.values[helts ^ g] * signs))
            min_ratio = min(min_ratio, abs(coeff) / H.size)
    frac = len(escaping) / family.size
    return {
        "i": i,
        "escaping_count": len(escaping),
        "escaping_fraction": frac,
        "fraction_le_eps": bool(frac <= eps),
        "min_coefficient_ratio": None if not escaping else min_ratio,
        "threshold": threshold,
        "coefficient_bound_ok": bool(not escaping or min_ratio >= threshold),
    }
