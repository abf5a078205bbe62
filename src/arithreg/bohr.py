"""Bohr neighbourhoods and smoothed normalized cutoffs.

For a frequency set Gamma and width delta the smoothed indicator is
B~(x) = exp(-||x||_Gamma / delta): the exponential average over t of the
plain indicators B_{Gamma,t}(x) collapses to this closed form because the
indicator switches on exactly at t = ||x||_Gamma.  Normalizing gives beta,
and psi = beta * beta is the nonnegative-spectrum probability weight that
the regularity machinery runs on.

Norm comparisons ("||x|| <= delta") are done on exact rational numerators so
boundary elements are classified deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainMismatchError, InternalCheckError, UsageError
from .groups import (
    Character,
    GroupSpec,
    char_norm_numerators,
    char_values,
    check_enumerable,
    neg_index,
    translate_blocks,
)
from .harmonic import DenseFn, convolve, dft
from .reports import IneqReport

MASS_TOL = 1e-12
SPECTRUM_TOL = 1e-9


@dataclass(frozen=True)
class FrequencySet:
    """Ordered duplicate-free set of characters on one group."""

    group: GroupSpec
    chars: tuple[Character, ...]

    def __post_init__(self):
        seen = set()
        for c in self.chars:
            if c.group != self.group:
                raise DomainMismatchError("frequency set mixes groups")
            if c in seen:
                raise DomainMismatchError(f"duplicate character {c.freqs}")
            seen.add(c)

    @property
    def d(self) -> int:
        return len(self.chars)

    def extend(self, new_chars: Iterable[Character]) -> "FrequencySet":
        merged = list(self.chars)
        for c in new_chars:
            if c not in merged:
                merged.append(c)
        return FrequencySet(self.group, tuple(merged))


def make_frequency_set(group: GroupSpec, chars: Sequence[Character] = ()) -> FrequencySet:
    unique: list[Character] = []
    for c in chars:
        if c not in unique:
            unique.append(c)
    return FrequencySet(group, tuple(unique))


@lru_cache(maxsize=256)
def norm_numerators(fs: FrequencySet) -> np.ndarray:
    """Integer numerators of ||x||_Gamma over the denominator lcm(factors).

    The empty set yields the zero vector (sup over the empty set is 0).
    """
    check_enumerable(fs.group)
    out = np.zeros(fs.group.order, dtype=np.int64)
    for gamma in fs.chars:
        np.maximum(out, char_norm_numerators(fs.group, gamma), out=out)
    out.setflags(write=False)
    return out


def norm_values(fs: FrequencySet) -> np.ndarray:
    """||x||_Gamma for every x, as floats in [0, 1/2]."""
    return norm_numerators(fs) / fs.group.exponent_lcm


def norm_le_mask(fs: FrequencySet, bound: float) -> np.ndarray:
    """Boolean mask of ||x||_Gamma <= bound, decided in exact arithmetic."""
    L = fs.group.exponent_lcm
    return norm_numerators(fs) <= math.floor(Fraction(bound) * L)


def norm_ge_mask(fs: FrequencySet, bound: float) -> np.ndarray:
    """Boolean mask of ||x||_Gamma >= bound, decided in exact arithmetic."""
    L = fs.group.exponent_lcm
    return norm_numerators(fs) >= math.ceil(Fraction(bound) * L)


def bohr_set(fs: FrequencySet, delta: float) -> np.ndarray:
    """Element indices of B_{Gamma,delta} = {x : ||x||_Gamma <= delta}."""
    if delta <= 0:
        raise DomainMismatchError("Bohr width must be positive")
    return np.flatnonzero(norm_le_mask(fs, delta))


def smoothed_indicator(fs: FrequencySet, delta: float) -> DenseFn:
    """Unnormalized smoothed neighbourhood exp(-||x||_Gamma / delta)."""
    if delta <= 0:
        raise DomainMismatchError("width must be positive")
    with np.errstate(over="ignore"):  # an underflowed delta sends ||x|| / delta to inf
        return DenseFn(fs.group, np.exp(-norm_values(fs) / delta))


def smoothed_beta(fs: FrequencySet, delta: float) -> DenseFn:
    """L1-normalized smoothed cutoff beta_{Gamma,delta}."""
    raw = smoothed_indicator(fs, delta).values
    return DenseFn(fs.group, raw / raw.sum())


def _sup_norm_bound(delta: float, d: int, n: int) -> float:
    denom = (delta**d) * n
    if denom == 0.0:
        return math.inf
    return 3.0 / denom


class BohrCutoff:
    """The pair (beta, psi = beta * beta) for one frequency set and width.

    Immutable after construction.  psi's transform is recomputed from the
    materialized convolution so the nonnegative-spectrum invariant is an
    honest numerical check, not true by construction.
    """

    def __init__(self, gamma: FrequencySet, delta: float):
        if delta <= 0:
            raise DomainMismatchError("cutoff width must be positive")
        self.gamma = gamma
        self.delta = float(delta)
        self.beta = smoothed_beta(gamma, delta)
        self.psi = convolve(self.beta, self.beta)
        self.psi_hat = dft(self.psi)
        self._validate()
        raw = self.psi.values
        if raw.min() < -MASS_TOL:
            raise InternalCheckError(f"psi dips to {raw.min()}, beyond roundoff")
        self.psi_sqrt = DenseFn(self.group, np.sqrt(np.clip(raw, 0.0, None)))

    @property
    def group(self) -> GroupSpec:
        return self.gamma.group

    @property
    def d(self) -> int:
        return self.gamma.d

    @property
    def is_point_mass(self) -> bool:
        """True when psi has numerically collapsed onto the identity."""
        return bool(self.psi.values[0] >= 1.0 - SPECTRUM_TOL) and self.group.order > 1

    def _validate(self) -> None:
        beta_mass = float(self.beta.values.sum())
        psi_mass = float(self.psi.values.sum())
        if abs(beta_mass - 1.0) > MASS_TOL or abs(psi_mass - 1.0) > MASS_TOL:
            raise InternalCheckError(
                f"cutoff masses drifted: beta {beta_mass}, psi {psi_mass}"
            )
        hat = self.psi_hat.values
        if float(np.min(hat.real)) < -SPECTRUM_TOL or float(np.max(np.abs(hat.imag))) > SPECTRUM_TOL:
            raise InternalCheckError("psi spectrum not real nonnegative within tolerance")
        if self.delta <= 1.0:
            bound = _sup_norm_bound(self.delta, self.d, self.group.order)
            if float(self.psi.values.max()) > bound * (1 + 1e-9) + 1e-15:
                raise InternalCheckError("psi sup-norm bound violated")


def make_cutoff(gamma: FrequencySet, delta: float) -> BohrCutoff:
    return BohrCutoff(gamma, delta)


def tail_sum(fs: FrequencySet, f: DenseFn, eta: float) -> float:
    """sum of f(x) over ||x||_Gamma >= eta (exact range selection)."""
    if eta < 0:
        raise DomainMismatchError("tail threshold must be >= 0")
    return float(f.values[norm_ge_mask(fs, eta)].sum())


def tail_mass(cutoff: BohrCutoff, eta: float) -> float:
    """sum of psi(x) over ||x||_Gamma >= eta; compare to 4 * 5^d exp(-eta/4delta)."""
    return tail_sum(cutoff.gamma, cutoff.psi, eta)


def tail_bound(cutoff: BohrCutoff, eta: float) -> float:
    return 4.0 * 5.0**cutoff.d * math.exp(-eta / (4.0 * cutoff.delta))


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------

def check_bohr_growth(fs: FrequencySet, delta: float) -> IneqReport:
    """Size lower bound |B_delta| >= delta^d N and doubling |B_2delta| <= 5^d |B_delta|."""
    if delta <= 0:
        raise DomainMismatchError("width must be positive")
    n = fs.group.order
    size = int(norm_le_mask(fs, delta).sum())
    doubled = int(norm_le_mask(fs, 2.0 * delta).sum())
    lower = (delta**fs.d) * n
    ratio_bound = 5.0**fs.d * size
    holds = size >= lower and doubled <= ratio_bound
    return IneqReport(
        part="bohr-growth",
        lhs=float(size),
        rhs=float(lower),
        holds=bool(holds),
        details={
            "group": str(fs.group),
            "d": fs.d,
            "delta": delta,
            "size": size,
            "size_lower_bound": lower,
            "doubled_size": doubled,
            "doubled_upper_bound": ratio_bound,
            "doubling_slack": ratio_bound - doubled,
        },
    )


def _pointwise_excess(diff_abs: np.ndarray, coeff: np.ndarray, base: np.ndarray) -> float:
    """max over points of |diff| - coeff * base, with 0 * inf read as +inf.

    The underlying base function is strictly positive in exact arithmetic;
    a zero entry is floating underflow, so an infinite coefficient still
    dominates any finite difference.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        bound = coeff * base
    bound = np.where(np.isnan(bound), np.inf, bound)
    with np.errstate(invalid="ignore"):
        excess = diff_abs - bound
    excess = np.where(np.isnan(excess), -np.inf, excess)
    return float(np.max(excess)) if excess.size else 0.0


def _l1(values: np.ndarray) -> float:
    return float(np.sum(np.abs(values)))


def _char_minus_one_l1(cutoff_psi: DenseFn, chi: Character) -> float:
    gv = char_values(cutoff_psi.group, chi)
    return _l1((gv - 1.0) * cutoff_psi.values)


def check_cutoff_property(
    part: str,
    gamma: FrequencySet,
    delta: float,
    *,
    gamma2: FrequencySet | None = None,
    delta2: float | None = None,
    tau: float | None = None,
    m: int = 1,
    f: DenseFn | None = None,
    chi: Character | None = None,
    kappa: float | None = None,
    omega: float | None = None,
) -> IneqReport:
    """Evaluate one inequality from the cutoff-property suite, exactly over G.

    Parts (by roman label):
      i    psi has real nonnegative transform
      ii   psi has total mass 1
      iii  sup norm bound 3 / (delta^d N)
      iv   ||(chi - 1) psi||_1 <= tau for chi in Gamma (narrow-width hypothesis)
      v    |psi(x) - psi(x-y)| <= 5 sinh(||y||/delta) psi(x) for all x, y
      vi   m-fold smoothing of psi^(1/2) by psi' stays within (2^m - 1) tau
      vii  ||psi * psi' - psi||_1 <= tau
      viii psi' nearly commutes with multiplication by psi^(1/2)
      ix   a character with psi-transform >= kappa stays close to 1 on psi'

    Hypothesis violations are reported, not raised.
    """
    part = part.strip().lower()
    cutoff = make_cutoff(gamma, delta)
    group = gamma.group
    n = group.order
    base_details = {"group": str(group), "d": gamma.d, "delta": delta}

    if part == "i":
        hat = cutoff.psi_hat.values
        min_real = float(np.min(hat.real))
        max_imag = float(np.max(np.abs(hat.imag)))
        return IneqReport(
            part, lhs=-min_real, rhs=SPECTRUM_TOL,
            holds=min_real >= -SPECTRUM_TOL and max_imag <= SPECTRUM_TOL,
            details={**base_details, "min_real": min_real, "max_imag": max_imag},
        )

    if part == "ii":
        mass = float(cutoff.psi.values.sum())
        return IneqReport(
            part, lhs=abs(mass - 1.0), rhs=MASS_TOL,
            holds=abs(mass - 1.0) <= MASS_TOL,
            details={**base_details, "mass": mass},
        )

    if part == "iii":
        sup = float(cutoff.psi.values.max())
        bound = _sup_norm_bound(delta, gamma.d, n)
        return IneqReport(part, lhs=sup, rhs=bound, holds=sup <= bound,
                          details=base_details)

    if part == "iv":
        if tau is None or chi is None:
            raise UsageError("part iv needs tau and chi")
        hyp = (
            0 < tau < 0.25
            and chi in gamma.chars
            and delta <= 2.0**-12 * tau**2 / max(gamma.d, 1)
        )
        lhs = _char_minus_one_l1(cutoff.psi, chi)
        hat_at = float(np.real(np.sum(cutoff.psi.values * char_values(group, chi))))
        return IneqReport(
            part, lhs=lhs, rhs=tau, holds=lhs <= tau, hypothesis_ok=bool(hyp),
            details={**base_details, "tau": tau, "psi_hat_at_chi": hat_at,
                     "consequent_holds": hat_at >= 1.0 - tau},
        )

    if part == "v":
        sinh_coeffs = _sinh_coeffs(gamma, delta)
        worst = -math.inf
        psi = cutoff.psi.values
        for lo, hi, shifted in translate_blocks(group, psi, neg_index(group)):
            diff = np.abs(psi - shifted)  # row y: |psi(x) - psi(x - y)| over x
            worst = max(worst, _pointwise_excess(diff, sinh_coeffs[lo:hi, None], psi))
        return IneqReport(part, lhs=worst, rhs=0.0, holds=worst <= 1e-12,
                          details={**base_details, "max_excess": worst})

    # parts below compare against a second, finer cutoff
    if part in ("vi", "vii", "viii"):
        if gamma2 is None or delta2 is None or tau is None:
            raise UsageError(f"part {part} needs gamma2, delta2 and tau")
        subset_ok = set(gamma.chars) <= set(gamma2.chars)
        hyp = (
            0 < tau < 0.25
            and subset_ok
            and delta2 <= 2.0**-13 * delta * tau**2 / max(gamma2.d, 1)
        )
        fine = make_cutoff(gamma2, delta2)
        both = {**base_details, "d_prime": gamma2.d, "deltaPrime": delta2, "tau": tau}

        if part == "vii":
            lhs = _l1(convolve(cutoff.psi, fine.psi).values - cutoff.psi.values)
            return IneqReport(part, lhs=lhs, rhs=tau, holds=lhs <= tau,
                              hypothesis_ok=bool(hyp), details=both)

        if part == "vi":
            conv = cutoff.psi_sqrt
            for _ in range(max(int(m), 1)):
                conv = convolve(conv, fine.psi)
            diff = np.abs(conv.values - cutoff.psi_sqrt.values)
            coeff = (2.0 ** max(int(m), 1) - 1.0) * tau
            worst = _pointwise_excess(diff, np.full(n, coeff), cutoff.psi_sqrt.values)
            return IneqReport(part, lhs=worst, rhs=0.0, holds=worst <= 1e-12,
                              hypothesis_ok=bool(hyp), details={**both, "m": int(m)})

        if f is None:
            raise UsageError("part viii needs the bounded function f")
        if float(np.max(np.abs(f.values))) > 1.0 + 1e-12:
            raise DomainMismatchError("part viii requires ||f||_inf <= 1")
        left = convolve(DenseFn(group, f.values * cutoff.psi_sqrt.values), fine.psi)
        right = cutoff.psi_sqrt.values * convolve(f, fine.psi).values
        lhs = float(np.sqrt(np.sum((left.values - right) ** 2)))
        return IneqReport(part, lhs=lhs, rhs=tau, holds=lhs <= tau,
                          hypothesis_ok=bool(hyp), details=both)

    if part == "ix":
        if gamma2 is None or delta2 is None or chi is None or kappa is None or omega is None:
            raise UsageError("part ix needs gamma2, delta2, chi, kappa, omega")
        hat_at = float(np.real(np.sum(cutoff.psi.values * char_values(group, chi))))
        subset_ok = set(gamma.chars) <= set(gamma2.chars)
        hyp = (
            kappa > 0 and omega > 0 and subset_ok
            and hat_at >= kappa
            and delta2 <= omega**2 * kappa**2 * delta / (2.0**13 * max(gamma2.d, 1))
        )
        fine = make_cutoff(gamma2, delta2)
        lhs = _char_minus_one_l1(fine.psi, chi)
        hat_fine = float(np.real(np.sum(fine.psi.values * char_values(group, chi))))
        return IneqReport(
            part, lhs=lhs, rhs=omega, holds=lhs <= omega, hypothesis_ok=bool(hyp),
            details={**base_details, "d_prime": gamma2.d, "deltaPrime": delta2,
                     "kappa": kappa, "omega": omega, "psi_hat_at_chi": hat_at,
                     "fine_hat_at_chi": hat_fine,
                     "consequent_holds": hat_fine >= 1.0 - omega},
        )

    raise UsageError(f"unknown cutoff property part {part!r}")


def _sinh_coeffs(fs: FrequencySet, delta: float) -> np.ndarray:
    """5 sinh(||y||_Gamma / delta) per element, overflowing to inf."""
    with np.errstate(over="ignore"):
        return 5.0 * np.sinh(norm_values(fs) / delta)


def random_frequency_set(group: GroupSpec, d: int, rng: np.random.Generator) -> FrequencySet:
    """d distinct nontrivial characters drawn uniformly (requires d < N)."""
    if d >= group.order:
        raise DomainMismatchError(f"cannot draw {d} distinct nontrivial characters")
    picks: list[int] = []
    while len(picks) < d:
        c = int(rng.integers(1, group.order))
        if c not in picks:
            picks.append(c)
    return make_frequency_set(group, [group.character_at(c) for c in picks])
