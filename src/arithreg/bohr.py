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

from .errors import (
    DomainMismatchError, InternalCheckError, InvalidSpecError, UsageError, checked_pow,
)
from .groups import (
    Character,
    GroupSpec,
    char_norm_numerators,
    char_values,
    check_enumerable,
    neg_index,
    translate_blocks,
)
from .harmonic import DenseFn, Spectrum, convolve_spectra, dft, idft
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
        return FrequencySet(self.group, tuple(dict.fromkeys((*self.chars, *new_chars))))


def make_frequency_set(group: GroupSpec, chars: Sequence[Character] = ()) -> FrequencySet:
    return FrequencySet(group, tuple(dict.fromkeys(chars)))


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


def _scaled_bound(fs: FrequencySet, bound: float) -> Fraction:
    """bound * lcm(factors) as an exact rational, for comparison with the numerators."""
    if not math.isfinite(bound):
        raise DomainMismatchError(f"norm bound {bound} is not finite")
    return Fraction(bound) * fs.group.exponent_lcm


def norm_le_mask(fs: FrequencySet, bound: float) -> np.ndarray:
    """Boolean mask of ||x||_Gamma <= bound, decided in exact arithmetic."""
    return norm_numerators(fs) <= math.floor(_scaled_bound(fs, bound))


def norm_ge_mask(fs: FrequencySet, bound: float) -> np.ndarray:
    """Boolean mask of ||x||_Gamma >= bound, decided in exact arithmetic."""
    return norm_numerators(fs) >= math.ceil(_scaled_bound(fs, bound))


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
    denom = checked_pow(delta, d, "delta") * n
    return 3.0 / denom if denom else math.inf


class BohrCutoff:
    """The pair (beta, psi = beta * beta) for one frequency set and width.

    Immutable after construction.  psi is the inverse transform of beta's
    transform squared, which is convolve(beta, beta) with one forward
    transform fewer.  psi's transform is recomputed from the materialized
    convolution so the nonnegative-spectrum invariant is an honest numerical
    check, not true by construction.
    """

    def __init__(self, gamma: FrequencySet, delta: float):
        if delta <= 0:
            raise DomainMismatchError("cutoff width must be positive")
        self.gamma = gamma
        self.delta = float(delta)
        self.beta = smoothed_beta(gamma, delta)
        spectrum = dft(self.beta).values
        self.psi = idft(Spectrum(self.group, spectrum * spectrum))
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


@lru_cache(maxsize=2)
def make_cutoff(gamma: FrequencySet, delta: float) -> BohrCutoff:
    """The cutoff for (gamma, delta), shared with the last two distinct calls.

    A suite run asks for its main cutoff once per part and for at most one
    other cutoff beside it, so two entries build each one once; its arrays
    are read-only.
    """
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
    lower = checked_pow(delta, fs.d, "delta") * n
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


def _shift_excess(group: GroupSpec, values: np.ndarray, coeffs: np.ndarray) -> float:
    """max over x, y of |f(x) - f(x - y)| - coeffs[y] f(x), with 0 * inf read as +inf.

    Row z of a translate block holds f(x + z) = f(x - y) for y = -z, so the
    rows run over range(N), one window copy per block on a cyclic group, with
    the coefficients reindexed by negation.  Each block becomes its excess in
    place: subtract f, abs, subtract coeff * f from one reused buffer, max.
    Every element gets the floating-point operations of the direct formula.

    Coefficients are >= 0.  An infinite one bounds a row by +inf where
    f(x) >= 0 and by -inf where f(x) < 0, so its rows are decided without
    the kernel: the excess is +inf if f dips below 0, and they add nothing
    otherwise.
    """
    row_coeffs = coeffs[neg_index(group)]
    finite = np.isfinite(row_coeffs)
    zs: Sequence[int] = range(group.order)
    if not finite.all():
        if (values < 0).any():
            return math.inf
        zs, row_coeffs = np.flatnonzero(finite), row_coeffs[finite]
    worst, scratch = -math.inf, None
    with np.errstate(over="ignore"):  # coeff * f(x) may overflow to +-inf, as in the formula
        for lo, hi, rows in translate_blocks(group, values, zs):
            if scratch is None:
                scratch = np.empty_like(rows)
            bound = scratch[: hi - lo]
            rows -= values
            np.abs(rows, out=rows)
            np.multiply(row_coeffs[lo:hi, None], values, out=bound)
            rows -= bound
            worst = max(worst, float(rows.max()))
    return worst


def _char_minus_one_l1(psi: DenseFn, chi: Character) -> float:
    return float(np.sum(np.abs((char_values(psi.group, chi) - 1.0) * psi.values)))


# The widest width each part's hypothesis allows: delta for part iv, the
# finer delta' for parts vi-viii and for part ix.
def part_iv_width(tau: float, d: int) -> float:
    return 2.0**-12 * checked_pow(tau, 2, "tau") / max(d, 1)


def fine_width(delta: float, tau: float, d2: int) -> float:
    return 2.0**-13 * delta * checked_pow(tau, 2, "tau") / max(d2, 1)


def part_ix_width(delta: float, kappa: float, omega: float, d2: int) -> float:
    omega2, kappa2 = checked_pow(omega, 2, "omega"), checked_pow(kappa, 2, "kappa")
    return omega2 * kappa2 * delta / (2.0**13 * max(d2, 1))


def _hat_at(psi: DenseFn, chi: Character) -> float:
    return float(np.real(np.sum(psi.values * char_values(psi.group, chi))))


# The checkers of the cutoff-property suite, called as check(part, cutoff,
# delta, **needs).  Each measures its part on the main cutoff at width delta;
# check_cutoff_property adds the group, d and delta to the details.
def _part_i(part, cutoff, delta):
    hat = cutoff.psi_hat.values
    min_real, max_imag = float(np.min(hat.real)), float(np.max(np.abs(hat.imag)))
    return IneqReport(part, lhs=-min_real, rhs=SPECTRUM_TOL,
                      holds=min_real >= -SPECTRUM_TOL and max_imag <= SPECTRUM_TOL,
                      details={"min_real": min_real, "max_imag": max_imag})


def _part_ii(part, cutoff, delta):
    mass = float(cutoff.psi.values.sum())
    return IneqReport(part, lhs=abs(mass - 1.0), rhs=MASS_TOL,
                      holds=abs(mass - 1.0) <= MASS_TOL, details={"mass": mass})


def _part_iii(part, cutoff, delta):
    sup = float(cutoff.psi.values.max())
    bound = _sup_norm_bound(delta, cutoff.d, cutoff.group.order)
    return IneqReport(part, lhs=sup, rhs=bound, holds=sup <= bound)


def _part_iv(part, cutoff, delta, *, tau, chi):
    hyp = 0 < tau < 0.25 and chi in cutoff.gamma.chars and delta <= part_iv_width(tau, cutoff.d)
    lhs, hat_at = _char_minus_one_l1(cutoff.psi, chi), _hat_at(cutoff.psi, chi)
    return IneqReport(part, lhs=lhs, rhs=tau, holds=lhs <= tau, hypothesis_ok=bool(hyp), details={
        "tau": tau, "psi_hat_at_chi": hat_at, "consequent_holds": hat_at >= 1.0 - tau})


def _part_v(part, cutoff, delta):
    worst = _shift_excess(cutoff.group, cutoff.psi.values, _sinh_coeffs(cutoff.gamma, delta))
    return IneqReport(part, lhs=worst, rhs=0.0, holds=worst <= 1e-12, details={"max_excess": worst})


def _finer(cutoff, delta, gamma2, delta2, tau):
    """The finer cutoff psi' of parts vi-viii, their hypothesis and their shared details."""
    hyp = (0 < tau < 0.25 and set(cutoff.gamma.chars) <= set(gamma2.chars)
           and delta2 <= fine_width(delta, tau, gamma2.d))
    details = {"d_prime": gamma2.d, "deltaPrime": delta2, "tau": tau}
    return make_cutoff(gamma2, delta2), bool(hyp), details


def _part_vi(part, cutoff, delta, *, gamma2, delta2, tau, m):
    fine, hyp, details = _finer(cutoff, delta, gamma2, delta2, tau)
    steps = max(int(m), 1)
    coeff = (checked_pow(2.0, steps, "2") - 1.0) * tau
    if not math.isfinite(coeff):
        raise DomainMismatchError(f"part {part} coefficient (2^{steps} - 1) tau is {coeff}")
    conv, root = cutoff.psi_sqrt, cutoff.psi_sqrt.values
    for _ in range(steps):
        conv = convolve_spectra(dft(conv), fine.psi_hat)
    lhs = float(np.max(np.abs(conv.values - root) - coeff * root))
    return IneqReport(part, lhs=lhs, rhs=0.0, holds=lhs <= 1e-12, hypothesis_ok=hyp,
                      details={**details, "m": int(m)})


def _part_vii(part, cutoff, delta, *, gamma2, delta2, tau):
    fine, hyp, details = _finer(cutoff, delta, gamma2, delta2, tau)
    smoothed = convolve_spectra(cutoff.psi_hat, fine.psi_hat).values
    lhs = float(np.sum(np.abs(smoothed - cutoff.psi.values)))
    return IneqReport(part, lhs=lhs, rhs=tau, holds=lhs <= tau, hypothesis_ok=hyp, details=details)


def _part_viii(part, cutoff, delta, *, gamma2, delta2, tau, f):
    fine, hyp, details = _finer(cutoff, delta, gamma2, delta2, tau)
    if float(np.max(np.abs(f.values))) > 1.0 + 1e-12:
        raise DomainMismatchError(f"part {part} requires ||f||_inf <= 1")
    root = cutoff.psi_sqrt.values
    left = convolve_spectra(dft(DenseFn(cutoff.group, f.values * root)), fine.psi_hat)
    right = root * convolve_spectra(dft(f), fine.psi_hat).values
    lhs = float(np.sqrt(np.sum((left.values - right) ** 2)))
    return IneqReport(part, lhs=lhs, rhs=tau, holds=lhs <= tau, hypothesis_ok=hyp, details=details)


def _part_ix(part, cutoff, delta, *, gamma2, delta2, chi, kappa, omega):
    hat_at = _hat_at(cutoff.psi, chi)
    hyp = (kappa > 0 and omega > 0 and set(cutoff.gamma.chars) <= set(gamma2.chars)
           and hat_at >= kappa and delta2 <= part_ix_width(delta, kappa, omega, gamma2.d))
    fine = make_cutoff(gamma2, delta2)
    lhs, hat_fine = _char_minus_one_l1(fine.psi, chi), _hat_at(fine.psi, chi)
    return IneqReport(part, lhs=lhs, rhs=omega, holds=lhs <= omega, hypothesis_ok=bool(hyp),
                      details={"d_prime": gamma2.d, "deltaPrime": delta2, "kappa": kappa,
                               "omega": omega, "psi_hat_at_chi": hat_at, "fine_hat_at_chi": hat_fine,
                               "consequent_holds": hat_fine >= 1.0 - omega})


# The draws: the width and keyword arguments `bohr-check` runs each part at,
# from its flags delta, tau and delta2 and its seeded rng.  Parts vi-ix each
# draw one extra character for Gamma', in --parts order; viii then draws f.
def _draw_main(name, fs, delta, tau, delta2, rng):
    return delta, {}


def _positive(name, width, flag, value):
    """width, as part `name` runs at it from the flag's value; rejected unless positive."""
    if not width > 0:
        raise InvalidSpecError(
            f"part {name} needs a positive width, but {flag} {value!r} gives {width!r}")
    return width


def _draw_iv(name, fs, delta, tau, delta2, rng):
    # run at a width satisfying the part's narrowness hypothesis
    if fs.d < 1:
        raise InvalidSpecError("part iv needs --d >= 1")
    width = _positive(name, min(delta, part_iv_width(tau, fs.d)) * 0.9, "--tau", tau)
    return width, {"tau": tau, "chi": fs.chars[0]}


def _draw_gamma2(fs, rng):
    return fs.extend(random_frequency_set(fs.group, 1, rng).chars)


def _draw_fine(name, fs, delta, tau, delta2, rng):
    gamma2 = _draw_gamma2(fs, rng)
    if delta2 is None:
        delta2 = _positive(name, fine_width(delta, tau, gamma2.d), "--tau", tau)
    else:
        delta2 = _positive(name, delta2, "--delta2", delta2)
    return delta, {"gamma2": gamma2, "delta2": delta2, "tau": tau}


def _draw_viii(name, fs, delta, tau, delta2, rng):
    width, kwargs = _draw_fine(name, fs, delta, tau, delta2, rng)
    return width, {**kwargs, "f": DenseFn(fs.group, rng.uniform(-1.0, 1.0, fs.group.order))}


def _draw_ix(name, fs, delta, tau, delta2, rng):
    # chi at psi's largest nontrivial coefficient; delta2 always at part ix's width
    gamma2 = _draw_gamma2(fs, rng)
    hat = make_cutoff(fs, delta).psi_hat.values.real.copy()
    hat[0] = -1.0
    best = int(np.argmax(hat))
    kappa = max(float(hat[best]) * 0.9, 1e-6)
    delta2 = _positive(name, part_ix_width(delta, kappa, tau, gamma2.d), "--tau", tau)
    return delta, {"gamma2": gamma2, "delta2": delta2, "chi": fs.group.character_at(best),
                   "kappa": kappa, "omega": tau}


# part -> (its checker, the keyword arguments the checker takes, none of them
# None, and the draw bohr-check runs it at)
_PARTS = {
    "i": (_part_i, (), _draw_main),
    "ii": (_part_ii, (), _draw_main),
    "iii": (_part_iii, (), _draw_main),
    "iv": (_part_iv, ("tau", "chi"), _draw_iv),
    "v": (_part_v, (), _draw_main),
    "vi": (_part_vi, ("gamma2", "delta2", "tau", "m"), _draw_fine),
    "vii": (_part_vii, ("gamma2", "delta2", "tau"), _draw_fine),
    "viii": (_part_viii, ("gamma2", "delta2", "tau", "f"), _draw_viii),
    "ix": (_part_ix, ("gamma2", "delta2", "chi", "kappa", "omega"), _draw_ix),
}


def _row(part: str) -> tuple:
    """(name, checker, needs, draw) for a part name in any case."""
    name = part.strip().lower()
    if name not in _PARTS:
        raise UsageError(f"unknown cutoff property part {name!r}")
    return (name, *_PARTS[name])


def check_cutoff_property(
    part: str, gamma: FrequencySet, delta: float, *,
    gamma2: FrequencySet | None = None, delta2: float | None = None, tau: float | None = None,
    m: int = 1, f: DenseFn | None = None, chi: Character | None = None,
    kappa: float | None = None, omega: float | None = None,
) -> IneqReport:
    """Evaluate one inequality from the cutoff-property suite, exactly over G.

    Parts (by roman label, in any case):
      i    psi has real nonnegative transform
      ii   psi has total mass 1
      iii  sup norm bound 3 / (delta^d N)
      iv   ||(chi - 1) psi||_1 <= tau for chi in Gamma (narrow-width hypothesis)
      v    |psi(x) - psi(x-y)| <= 5 sinh(||y||/delta) psi(x) for all x, y
           (exhaustive, in place over blocks of translate rows: _shift_excess)
      vi   m-fold smoothing of psi^(1/2) by psi' stays within (2^m - 1) tau
      vii  ||psi * psi' - psi||_1 <= tau
      viii psi' nearly commutes with multiplication by psi^(1/2)
      ix   a character with psi-transform >= kappa stays close to 1 on psi'

    A part's row in _PARTS names the keywords it needs; a missing one is a
    UsageError that names it, and the others are ignored.  Hypothesis
    violations are reported, not raised.
    """
    name, check, needs, _ = _row(part)
    given = {"gamma2": gamma2, "delta2": delta2, "tau": tau, "m": m, "f": f,
             "chi": chi, "kappa": kappa, "omega": omega}
    missing = [k for k in needs if given[k] is None]
    if missing:
        raise UsageError(f"part {name} needs {', '.join(missing)}")
    rep = check(name, make_cutoff(gamma, delta), delta, **{k: given[k] for k in needs})
    rep.details = {"group": str(gamma.group), "d": gamma.d, "delta": delta, **rep.details}
    return rep


def check_drawn_part(part: str, fs: FrequencySet, delta: float, tau: float,
                     delta2: float | None, rng: np.random.Generator) -> IneqReport:
    """One part at the width and arguments `bohr-check` draws for it from its flags and rng."""
    name, *_, draw = _row(part)
    width, kwargs = draw(name, fs, delta, tau, delta2, rng)
    return check_cutoff_property(part, fs, width, **kwargs)


def _sinh_coeffs(fs: FrequencySet, delta: float) -> np.ndarray:
    """5 sinh(||y||_Gamma / delta) per element, overflowing to inf."""
    with np.errstate(over="ignore"):
        return 5.0 * np.sinh(norm_values(fs) / delta)


def random_frequency_set(group: GroupSpec, d: int, rng: np.random.Generator) -> FrequencySet:
    """d distinct nontrivial characters drawn uniformly (requires 0 <= d < N)."""
    if not 0 <= d < group.order:
        raise DomainMismatchError(f"cannot draw {d} distinct nontrivial characters")
    picks: list[int] = []
    while len(picks) < d:
        c = int(rng.integers(1, group.order))
        if c not in picks:
            picks.append(c)
    return make_frequency_set(group, [group.character_at(c) for c in picks])
