"""Regularity machinery for arbitrary finite abelian groups.

A regularity state is a pair (R, eta): a frequency set plus a width, which
induces two cutoffs psi1 (width eta) and psi2 (much narrower).  A point x is
a regular value for a set A when the local density seen through psi2 is
stable across the psi1 window (condition 1) and the psi2-windowed remainder
has a small Fourier sup-norm (condition 2).  Refinement either shrinks the
width or adjoins witness characters, and drives up a bounded L2 energy, so
the iteration terminates.  Each distinct pair is evaluated once (every set's
profile with its smoothed densities, irregular count and the index): the
regularity test, refinement, trace and reduction all read that state, and a
refinement that returns its own pair (a fixed point, index gain 0) returns its
own state, so k distinct set objects and s steps cost at most k(s+1)
profiles.  Out of budget, the pair of highest index is returned.

Condition 2 is a sup over all N characters of one transformed row per x.
Where psi2 is uniform on K = ker R up to rounding (at the trivial pair,
K = G, and at desk scale at every faithful pair), one transform per coset
of K gives every row's magnitudes within a certified margin, and the state's
profile decides each row that clears eps by it there (the coset screen).
Only the other rows, and the rows whose worst characters become witnesses,
go through the cond2 kernel, as regular_value_profile does for all rows.

Faithful mode uses the constants verbatim, under which the narrow cutoff
collapses onto ker R at desk-scale N (recorded, not hidden).  Scaled
mode multiplies every power-of-two constant by a user factor so the loop is
exercisable on small groups; gains are then measured rather than asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .bohr import (BohrCutoff, FrequencySet, bohr_set, make_cutoff, make_frequency_set,
                   norm_le_mask, norm_numerators, smoothing_l1)
from .errors import (DomainMismatchError, InternalCheckError, InvalidSpecError,
                     ResourceBudgetError, checked_pow)
from .groups import (
    TRANSLATE_BLOCK_BYTES,
    Character,
    GroupSpec,
    _char_numerators,
    _coords_at,
    neg_index,
    translate_blocks,
    translate_indices,
)
from .harmonic import (
    DenseFn,
    Spectrum,
    _indicator_required,
    convolve,
    convolve_spectra,
    dft,
    dft_many,
    zero_sum_count,
)
from .reports import IneqReport

FAITHFUL = "faithful"
SCALED = "scaled"


class RegPair:
    """A frequency set R with width eta and the two derived cutoffs.

    eta2 = c * eps^6 * eta / (max(d,1) k^4) with c = scale * 2^-40 (capped so
    eta2 <= eta1); faithful mode keeps the paper's constants, so its scale is 1.
    """

    def __init__(
        self,
        chars: FrequencySet,
        eta: float,
        k: int,
        eps: float,
        mode: str = FAITHFUL,
        scale: float = 1.0,
    ):
        if mode not in (FAITHFUL, SCALED):
            raise DomainMismatchError(f"unknown constants mode {mode!r}")
        if mode == FAITHFUL and scale != 1.0:
            raise DomainMismatchError(f"faithful mode uses no scale, got scale {scale}")
        if scale <= 0:
            raise DomainMismatchError(f"scaled mode needs scale > 0, got scale {scale}")
        if not 0.0 < eta <= 1.0:
            raise DomainMismatchError("eta must lie in (0, 1]")
        if eps <= 0:
            raise DomainMismatchError(f"need eps > 0, got eps {eps}")
        if k < 1:
            raise DomainMismatchError(f"need k >= 1, got k {k}")
        self.chars = chars
        self.eta = float(eta)
        self.k = int(k)
        self.eps = float(eps)
        self.mode = mode
        self.scale = float(scale)
        self.eta1 = self.eta
        raw = self.const(-40) * checked_pow(eps, 6, "eps") * eta / (max(chars.d, 1) * k**4)
        self.eta2 = min(raw, self.eta1)
        if not self.eta2 > 0:
            cause, given = (
                (f"scale {self.scale}", f"eps {self.eps}, eta {self.eta}") if mode == SCALED
                else (f"eps {self.eps}", f"eta {self.eta}")
            )
            raise InvalidSpecError(
                f"{cause} underflows the narrow cutoff width eta2 to {self.eta2} ({given})"
            )
        self.psi1 = make_cutoff(chars, self.eta1)
        self.psi2 = make_cutoff(chars, self.eta2)
        self.compat_l1 = smoothing_l1(self.psi1, self.psi2)
        self.compat_bound = self.const(-12) * eps**3 / k**2
        self.degenerate = self.psi1.is_point_mass or self.psi2.is_point_mass
        if mode == FAITHFUL and not self.degenerate and self.compat_l1 > self.compat_bound:
            raise InternalCheckError(
                f"cutoff compatibility {self.compat_l1} exceeds {self.compat_bound}"
            )

    @property
    def group(self) -> GroupSpec:
        return self.chars.group

    @property
    def d(self) -> int:
        return self.chars.d

    def const(self, log2: int) -> float:
        return 2.0**log2 * self.scale

    def with_state(self, chars: FrequencySet, eta: float) -> "RegPair":
        return RegPair(chars, min(max(eta, 1e-300), 1.0), self.k, self.eps, self.mode, self.scale)

    def describe(self) -> dict:
        return {
            "d": self.d,
            "eta": self.eta,
            "eta2": self.eta2,
            "mode": self.mode,
            "scale": self.scale,
            "degenerate": self.degenerate,
            "compat_l1": self.compat_l1,
            "compat_bound": self.compat_bound,
        }


def trivial_pair(
    group: GroupSpec,
    k: int,
    eps: float,
    mode: str = FAITHFUL,
    scale: float = 1.0,
    seed_chars: Sequence[Character] = (),
) -> RegPair:
    """The iteration's starting state: (seed characters or empty, width 1)."""
    return RegPair(make_frequency_set(group, tuple(seed_chars)), 1.0, k, eps, mode, scale)


def alpha(A: DenseFn, cutoff: BohrCutoff) -> DenseFn:
    """Smoothed local density A * psi."""
    if A.group != cutoff.group:
        raise DomainMismatchError("set and cutoff on different groups")
    return convolve_spectra(dft(A), cutoff.psi_hat)


@dataclass
class RegValueWitness:
    x_index: int
    cond1_lhs: float
    cond2_lhs: float
    worst_char: Character
    regular: bool


class RegProfile(NamedTuple):
    """One set's regularity profile at one pair, with its smoothed densities a_i = A * psi_i.

    In the state's screened profile a row decided without the kernel holds its
    screened value as cond2 and the screened argmax as worst, each on the
    kernel's side of eps and of perp.
    """

    cond1: np.ndarray
    cond2: np.ndarray
    worst: np.ndarray
    a1: np.ndarray
    a2: np.ndarray


def regular_value_profile(A: DenseFn, pair: RegPair) -> RegProfile:
    """(cond1, cond2, worst char index, a1, a2) for every x at once.

    cond2(x) is the exact sup over all N characters of
    |((A^{+x} - alpha2(x)) psi2)^|, and worst(x) the first character that
    attains it: every row goes through the cond2 kernel.  The regularity
    state takes the screened profile instead; this one is its row-by-row
    reference.
    """
    cond1, a1, a2 = _local_densities(dft(A), pair)
    cond2, worst = _cond2_rows(A, range(A.group.order), a2, pair)
    return RegProfile(cond1, cond2, worst, a1, a2)


def _local_densities(hat: Spectrum, pair: RegPair) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cond1, a1, a2) from the transform of A and the cutoffs' stored transforms.

    cond1(x) = sum_y (alpha2(x+y) - alpha1(x))^2 psi1(y), expanded through
    three convolutions; the expansion cancels, so a sum of squares that is 0
    can come out near -1e-15, and cond1 is clamped at 0.
    """
    group, psi1_hat = hat.group, pair.psi1.psi_hat
    a1 = convolve_spectra(hat, psi1_hat).values
    a2 = convolve_spectra(hat, pair.psi2.psi_hat).values
    smooth_sq = convolve_spectra(psi1_hat, dft(DenseFn(group, a2 * a2))).values
    smooth = convolve_spectra(psi1_hat, dft(DenseFn(group, a2))).values
    cond1 = smooth_sq - 2.0 * a1 * smooth + a1 * a1
    np.maximum(cond1, 0.0, out=cond1)
    return cond1, a1, a2


def _cond2_rows(A: DenseFn, xs: Sequence[int], a2: np.ndarray, pair: RegPair):
    """(cond2, worst) on the rows xs: each row's largest windowed magnitude and its first argmax."""
    cond2 = np.zeros(len(xs))
    worst = np.zeros(len(xs), dtype=np.int64)
    for lo, hi, mags in _windowed_magnitudes(A, xs, a2, pair):
        top = np.argmax(mags, axis=1, out=worst[lo:hi])
        cond2[lo:hi] = np.take_along_axis(mags, top[:, None], axis=1)[:, 0]
    return cond2, worst


def _windowed_magnitudes(A: DenseFn, xs: Sequence[int], a2: np.ndarray, pair: RegPair):
    """Yield (lo, hi, |((A^{+x} - alpha2(x)) psi2)^| over all characters) per block of xs.

    The cond2 kernel of the profiles, of check_regular_value and of the
    stability check, one row per x.  Each translate block is windowed in
    place and transformed by dft_many, so a block's temporaries are bounded
    by a few times TRANSLATE_BLOCK_BYTES, whatever len(xs) is.
    """
    psi = pair.psi2.psi.values
    for lo, hi, rows in translate_blocks(A.group, A.values, xs):
        rows -= a2[xs[lo:hi], None]
        rows *= psi
        yield lo, hi, np.abs(dft_many(A.group, rows))


def _screened_profile(A: DenseFn, state: "_PairState") -> RegProfile:
    """The state's profile: the kernel's decisions, the kernel run on undecided rows only.

    The coset screen decides rows without their own transform, each on the side
    of eps that the kernel's float64 values give it for all N characters.  With
    psi2 = 1_K/|K| + e (the state's cosets) and C = x + K, the row of x against
    1_K/|K| transforms to A(C)/|K| - alpha2(x) on K-perp and to gamma(-x)
    T_C(gamma)/|K| off it, T_C the transform of A 1_C; e moves each magnitude
    by at most spread(x) dev, where spread(x) = max(max A - alpha2(x),
    alpha2(x) - min A).  So one transform per coset screens its rows: A's own
    at K = G, none at K = {0}.  Each magnitude lies within M(x) = spread(x) dev
    + K(x) + r sqrt(N) ||A||_2 / |K| of its screened value, r from _rounding
    (whose factor 64 covers the roundings around a transform): the last term
    bounds the rounding of T_C, as ||A 1_C||_2 <= ||A||_2, and K(x) = r
    (sqrt(N) spread(x) ||psi2||_2 + 1) the kernel's.  The largest screened
    magnitude S(x) passes cond2 if S(x) < eps - M(x).  It fails it if S(x) >
    eps + M(x) and the largest screened magnitudes inside and outside perp are
    over 2 M(x) apart, so the worst character's side of perp is certain.  A
    decided row holds S(x) as cond2 and the screened argmax as worst;
    witnesses, where +-gamma tie, come from kernel rows.  The kernel, bitwise
    as in regular_value_profile, takes undecided rows, rows with M(x) >= eps
    (their cosets take no transform) and all rows of a state without cosets.
    """
    n, pair, perp = A.group.order, state.pair, state.perp
    hat = dft(A)
    cond1, a1, a2 = _local_densities(hat, pair)
    if state.cosets is None:
        return RegProfile(cond1, *_cond2_rows(A, range(n), a2, pair), a1, a2)
    labels, size, dev, kperp = state.cosets
    values, psi, eps = A.values, pair.psi2.psi.values, pair.eps
    spread = np.maximum(values.max() - a2, a2 - values.min())
    windowed = spread * math.sqrt(n * float(psi @ psi))  # K(x) = r (windowed + 1)
    transformed = math.sqrt(n * float(values @ values)) / size  # sqrt(N) ||A||_2 / |K|
    margin = spread * dev + _rounding(n) * (windowed + 1.0 + transformed)
    screenable = margin < eps
    total = values.copy() if size == 1 else np.zeros(n // size)  # A(C)
    inside, outside = np.full((2, n // size), -np.inf)  # off K-perp, per coset
    top = np.zeros(n // size, dtype=np.int64)
    # the cosets holding screenable rows; at K = G the one coset, at K = {0} none
    reps = np.flatnonzero(np.bincount(labels, screenable)) if 1 < size < n else labels[: size // n]
    step = max(1, TRANSLATE_BLOCK_BYTES // (8 * n))  # cosets per block of transforms
    for lo in range(0, reps.size, step):
        cs = reps[lo : lo + step]
        spectra = hat.values[None] if size == n else dft_many(
            A.group, np.where(labels == cs[:, None], values, 0.0))
        total[cs] = spectra[:, 0].real
        mags = np.abs(spectra) / size
        mags[:, kperp] = -np.inf
        top[cs] = np.argmax(mags, axis=1)
        inside[cs] = np.max(mags, axis=1, initial=-np.inf, where=perp)
        outside[cs] = np.max(mags, axis=1, initial=-np.inf, where=~perp)
    at = labels if 1 < size < n else slice(None)  # K = G broadcasts, K = {0} is per row
    at_k = np.abs(total[at] / size - a2)  # every magnitude on K-perp
    worst = np.where(at_k >= np.maximum(inside, outside)[at], 0, top[at])
    inside = np.maximum(inside[at], at_k) if np.any(kperp & perp) else inside[at]
    outside = np.maximum(outside[at], at_k) if np.any(kperp & ~perp) else outside[at]
    cond2 = np.maximum(inside, outside)
    apart = np.abs(inside - outside) > 2.0 * margin
    decided = screenable & ((cond2 < eps - margin) | ((cond2 > eps + margin) & apart))
    rows = np.flatnonzero(~decided)
    if rows.size:
        cond2[rows], worst[rows] = _cond2_rows(A, rows, a2, pair)
    return RegProfile(cond1, cond2, worst, a1, a2)


def check_regular_value(A: DenseFn, pair: RegPair, x: int) -> RegValueWitness:
    """Evaluate both regularity conditions at a single point."""
    return _regular_value(A, dft(A), pair, x)


def _regular_value(A: DenseFn, hat: Spectrum, pair: RegPair, x: int) -> RegValueWitness:
    """check_regular_value from a stored transform of A."""
    group = A.group
    idx = int(x)
    row = translate_indices(group, idx)
    a1 = convolve_spectra(hat, pair.psi1.psi_hat).values
    a2 = convolve_spectra(hat, pair.psi2.psi_hat).values
    cond1 = float(np.sum((a2[row] - a1[idx]) ** 2 * pair.psi1.psi.values))
    cond2, worst = _cond2_rows(A, [idx], a2, pair)
    return RegValueWitness(
        x_index=idx,
        cond1_lhs=cond1,
        cond2_lhs=float(cond2[0]),
        worst_char=group.character_at(int(worst[0])),
        regular=bool(cond1 <= pair.eps**2 and cond2[0] <= pair.eps),
    )


class _PairState:
    """One pair against the tracked sets: profiles, irregular counts, index (read off each a1).

    Each distinct set gets one screened profile (_screened_profile).  perp,
    the near-orthogonal set of psi2, and the cosets of ker R are fixed here,
    so the screen and the refinement read the same ones.
    """

    def __init__(self, As: Sequence[DenseFn], pair: RegPair):
        eps, n = pair.eps, pair.group.order
        self.As, self.pair = list(As), pair
        self.perp = pair.psi2.psi_hat.values.real >= eps / 6.0
        self.cosets = _cosets(pair)
        distinct = {id(A): A for A in self.As}
        profiles = {key: _screened_profile(A, self) for key, A in distinct.items()}
        self.profiles = [profiles[id(A)] for A in self.As]
        self.counts = [
            int(np.count_nonzero((p.cond1 > eps**2) | (p.cond2 > eps))) for p in self.profiles
        ]
        self.regular = all(c < eps * n for c in self.counts)
        self.index = float(sum(float(np.sum(p.a1 * p.a1)) / n for p in self.profiles))


def _rounding(n: int) -> float:
    """r = 64 log2(N) 2^-53 (log2 N >= 1): relative FFT error (Schatzman 1996, Percival 2003)."""
    return 64 * max(math.log2(n), 1.0) * 2.0**-53


def _cosets(pair: RegPair) -> "tuple[np.ndarray, int, float, np.ndarray] | None":
    """(coset label of each x, |K|, dev, K-perp mask) for K = ker R = {x : ||x||_R = 0}.

    dev = sum |psi2 - 1_K/|K||.  psi2^ is within dev of 1 on K-perp and of 0
    off it, and within r sqrt(N) ||psi2||_2 of its float64 value, so K-perp =
    {psi2^ > 1/2} while those add to less than 1/2; else None.  Labels number
    the cosets by the characters' numerators where 1 < |K| < N.
    """
    group, psi = pair.group, pair.psi2.psi.values
    n, kernel = group.order, norm_numerators(pair.chars) == 0
    size = int(np.count_nonzero(kernel))
    dev = float(np.sum(np.abs(psi - kernel / size)))
    if dev + _rounding(n) * math.sqrt(n * float(psi @ psi)) >= 0.5:
        return None
    labels = np.zeros(n, dtype=np.int64) if size > 1 else np.arange(n)
    if 1 < size < n:
        for gamma in pair.chars.chars:
            key = labels * group.exponent_lcm + _char_numerators(group, gamma)
            labels = np.unique(key, return_inverse=True)[1]
    return labels, size, dev, pair.psi2.psi_hat.values.real > 0.5


# ---------------------------------------------------------------------------
# covering lemma
# ---------------------------------------------------------------------------

def cover_by_translates(
    group: GroupSpec, U: np.ndarray | Sequence[int], kappa: float, R: FrequencySet
) -> tuple[list[np.ndarray], list[int]]:
    """Greedy cover of at least half of U by disjoint pieces of small translates.

    Each returned piece S_i sits inside (Bohr ball of radius kappa) + z_i with
    z_i in U; at most (2/kappa)^d pieces are produced.  All four postconditions
    are asserted.
    """
    if kappa <= 0:
        raise DomainMismatchError("kappa must be positive")
    u_idx = np.asarray(sorted(int(i) for i in U), dtype=np.int64)
    if u_idx.size == 0:
        raise DomainMismatchError("cover_by_translates needs a nonempty set")
    n = group.order
    lam = np.zeros(n)
    lam[bohr_set(R, kappa / 2.0)] = 1.0
    lam_hat = dft(DenseFn(group, lam))
    big_ball = norm_le_mask(R, kappa)
    neg = neg_index(group)

    remaining = np.zeros(n, dtype=bool)
    remaining[u_idx] = True
    target = u_idx.size / 2.0
    pieces: list[np.ndarray] = []
    centers: list[int] = []
    while remaining.sum() > target:
        counts = convolve_spectra(dft(DenseFn(group, remaining.astype(float))), lam_hat).values
        z = int(np.argmax(counts))
        ball_at_z = lam[translate_indices(group, int(neg[z]))] > 0.5
        piece = np.flatnonzero(remaining & ball_at_z)
        if piece.size == 0:
            raise InternalCheckError("covering step found an empty piece")
        center = int(piece[0])
        pieces.append(piece)
        centers.append(center)
        remaining[piece] = False
        shifted = translate_indices(group, int(neg[center]))
        if not np.all(big_ball[shifted[piece]]):
            raise InternalCheckError("piece escapes its translate")

    covered = u_idx.size - int(remaining.sum())
    if covered < target:
        raise InternalCheckError("cover fell below half of U")
    if kappa <= 2.0 and len(pieces) > _safe_pow(2.0 / kappa, R.d):
        raise InternalCheckError("piece count exceeded (2/kappa)^d")
    return pieces, centers


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------

def _safe_pow(base: float, exponent: int) -> float:
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def branch_decision(
    cond1: np.ndarray,
    cond2: np.ndarray,
    worst: np.ndarray,
    perp: np.ndarray,
    eps: float,
    k: int,
) -> dict:
    """Pick the refinement route from one set's regularity profile.

    Local-density failures (condition 1) at eps N / 2k or more points shrink
    the width.  Otherwise the sup-norm failures Z split on whether their
    witness characters sit in the near-orthogonal set of psi2: at least half
    aligned (ties included) keeps R and shrinks hard; else the escapers get
    covered by small translates and their witnesses join R.
    """
    n = cond1.shape[0]
    fail1 = int(np.count_nonzero(cond1 > eps**2))
    if fail1 >= eps * n / (2 * k):
        return {"branch": "width-shrink", "fail1": fail1}
    z_idx = np.flatnonzero(cond2 > eps)
    in_perp = perp[worst[z_idx]]
    aligned = int(in_perp.sum())
    if 2 * aligned >= z_idx.size:
        return {"branch": "aligned-witnesses", "z_idx": z_idx, "aligned": aligned}
    return {
        "branch": "new-characters",
        "z_idx": z_idx,
        "aligned": aligned,
        "escapers": z_idx[~in_perp],
    }


def _refine_pair_detailed(state: _PairState) -> tuple[_PairState, dict]:
    pair, counts = state.pair, state.counts
    eps, k = pair.eps, pair.k
    if state.regular:
        raise DomainMismatchError("cannot refine a regular pair")
    i = int(np.argmax(counts))
    cond1, cond2, worst = state.profiles[i][:3]
    info: dict = {
        "set": i,
        "per_set_irregular": counts,
        "cond1_failures": int(np.count_nonzero(cond1 > eps**2)),
        "cond2_failures": int(np.count_nonzero(cond2 > eps)),
        "index_before": state.index,
        "d": pair.d,
        "eta": pair.eta,
        "eta2": pair.eta2,
    }

    decision = branch_decision(cond1, cond2, worst, state.perp, eps, k)
    info["branch"] = decision["branch"]
    if decision["branch"] == "width-shrink":
        new_pair = pair.with_state(pair.chars, pair.eta2)
        info["witnesses"] = []
    elif decision["branch"] == "aligned-witnesses":
        new_eta = pair.const(-80) * eps**12 * pair.eta / (max(pair.d, 1) ** 2 * k**8)
        new_pair = pair.with_state(pair.chars, new_eta)
        info["witnesses"] = []
        info["aligned_count"] = decision["aligned"]
    else:
        u_set = decision["escapers"]
        kappa = eps * pair.eta2 / 60.0
        _, centers = cover_by_translates(pair.group, u_set, kappa, pair.chars)
        # a screened row's worst sits on the right side of perp, but +-gamma
        # tie there: the witnesses come from kernel rows
        _, witnesses = _cond2_rows(state.As[i], centers, state.profiles[i].a2, pair)
        new_chars = list(dict.fromkeys(pair.group.character_at(int(w)) for w in witnesses))
        extended = pair.chars.extend(new_chars)
        new_eta = pair.const(-50) * eps**6 * pair.eta2 / (max(extended.d, 1) * k**4)
        new_pair = pair.with_state(extended, new_eta)
        info["witnesses"] = [list(c.freqs) for c in new_chars]
        info["smoothing_l1"] = smoothing_l1(pair.psi2, new_pair.psi1)

    # a refinement to the same pair is a fixed point: its state is this one
    same = (new_pair.chars, new_pair.eta) == (pair.chars, pair.eta)
    new_state = state if same else _PairState(state.As, new_pair)
    info["index_after"] = new_state.index
    gain = new_state.index - state.index
    info["index_gain"] = gain
    target = pair.const(-10) * eps**3 / k
    info["gain_target"] = target

    d_eff = max(pair.d, 1)
    size_bound = _safe_pow(2.0 * d_eff * k / (pair.eta * eps), 60 * d_eff)
    info["size_bound_ok"] = new_pair.d <= size_bound
    info["width_bound_ok"] = new_pair.eta >= _safe_pow(pair.eta * eps / (2 * d_eff * k), 60 * d_eff)

    if (
        pair.mode == FAITHFUL
        and not pair.degenerate
        and not new_pair.degenerate
        and gain < target - 1e-12
    ):
        raise InternalCheckError(f"index gain {gain} below target {target}")
    return new_state, info


def _regularize(As: Sequence[DenseFn], start: RegPair, budget: int) -> tuple[_PairState, dict]:
    if budget < 1:
        raise DomainMismatchError("budget must be >= 1")
    group = As[0].group
    for A in As:
        if A.group != group:
            raise DomainMismatchError("sets on different groups")
    state = best = _PairState(As, start)
    steps: list[dict] = []
    for _ in range(budget):
        if state.regular:
            break
        state, info = _refine_pair_detailed(state)
        steps.append(info)
        if state.index >= best.index:
            best = state
    converged = state.regular
    if not converged:
        state = best
    return state, {
        "iterations": steps,
        "converged": converged,
        "budget_exhausted": not converged,
        "final": state.pair.describe() | {"per_set_irregular": state.counts},
    }


def regularize(
    As: Sequence[DenseFn],
    eps: float,
    budget: int,
    mode: str = FAITHFUL,
    scale: float = 1.0,
    seed_chars: Sequence[Character] = (),
) -> tuple[RegPair, dict]:
    """Iterate refinement from the trivial pair until regular or out of budget."""
    start = trivial_pair(As[0].group, len(As), eps, mode, scale, seed_chars)
    state, trace = _regularize(As, start, budget)
    return state.pair, trace


# ---------------------------------------------------------------------------
# weighted counting
# ---------------------------------------------------------------------------

def _weighted_functions(
    As: Sequence[DenseFn], pair: RegPair, xs: Sequence[int]
) -> list[DenseFn]:
    group = pair.group
    out = []
    k = len(As)
    for j, (A, x) in enumerate(zip(As, xs)):
        shifted = A.values[translate_indices(group, x)]
        weight = pair.psi1.psi_sqrt.values if j in (0, k - 1) else pair.psi2.psi.values
        out.append(DenseFn(group, shifted * weight))
    return out


def weighted_T(As: Sequence[DenseFn], pair: RegPair, xs: Sequence[int]) -> IneqReport:
    """Cutoff-weighted zero-sum count at a tuple of regular base points.

    The first and last slots carry psi1^(1/2), middle slots psi2; lhs is the
    value's distance from the product of the matching smoothed densities, rhs
    the tolerance 4 * 2^k * eps.  The hypothesis is that every base point is a
    regular value; the slots that are not are reported, not fatal.
    """
    group = pair.group
    if len(As) != pair.k:
        raise DomainMismatchError("pair was built for a different number of sets")
    idxs = [int(x) for x in xs]
    if len(idxs) != len(As):
        raise DomainMismatchError("need one base point per set")
    if outside := [x for x in idxs if not 0 <= x < group.order]:
        raise DomainMismatchError(f"base point {outside[0]} is outside [0, {group.order})")
    if np.any(np.sum([_coords_at(group.factors, x) for x in idxs], axis=0) % group.factors):
        raise DomainMismatchError("base points must sum to zero")

    hats = [dft(A) for A in As]
    irregular = [
        j for j, (A, hat, x) in enumerate(zip(As, hats, idxs))
        if not _regular_value(A, hat, pair, x).regular
    ]
    value = zero_sum_count(_weighted_functions(As, pair, idxs))
    k = len(As)
    prod = 1.0
    for j, (hat, x) in enumerate(zip(hats, idxs)):
        cutoff = pair.psi1 if j in (0, k - 1) else pair.psi2
        prod *= float(convolve_spectra(hat, cutoff.psi_hat).values[x])
    lhs, rhs = abs(value - prod), 4.0 * 2.0**k * pair.eps
    return IneqReport(
        part="weighted-count",
        lhs=lhs,
        rhs=rhs,
        holds=lhs <= rhs,
        hypothesis_ok=not irregular,
        details={"value": value, "alpha_product": prod, "irregular_slots": irregular},
    )


def check_uniform_weight_count(pair: RegPair, f: DenseFn, k: int) -> IneqReport:
    """|T(psi1^(1/2), psi2, ..., psi2, f psi1^(1/2)) - sum f psi1| <= 2^k eps."""
    if k < 2:
        raise DomainMismatchError("need k >= 2 slots")
    sup = float(np.max(np.abs(f.values)))
    fns = (
        [pair.psi1.psi_sqrt]
        + [pair.psi2.psi] * (k - 2)
        + [DenseFn(pair.group, f.values * pair.psi1.psi_sqrt.values)]
    )
    value = zero_sum_count(fns)
    center = float(np.sum(f.values * pair.psi1.psi.values))
    lhs = abs(value - center)
    rhs = 2.0**k * pair.eps
    return IneqReport(
        part="uniform-weight-count",
        lhs=lhs,
        rhs=rhs,
        holds=lhs <= rhs,
        hypothesis_ok=sup <= 1.0 + 1e-12,
        details={"value": value, "center": center, "k": k, "sup_f": sup},
    )


def _correlate(phi: DenseFn, h: DenseFn) -> np.ndarray:
    """sum_y phi(y) h(x + y) as an array over x."""
    reversed_phi = DenseFn(phi.group, phi.values[neg_index(phi.group)])
    return convolve(reversed_phi, h).values


def check_energy_difference(phi1: DenseFn, phi2: DenseFn, f: DenseFn) -> IneqReport:
    """Energy growth under smoothing, with the local variance identity.

    Verifies pointwise that sum_y (f2(x+y) - (f2*phi1)(x))^2 phi1(y) equals
    (f2^2 * phi1)(x) - ((f2*phi1)(x))^2 (exact for symmetric unit-mass phi1),
    then the inequality ||f2||^2 - ||f1||^2 >= double sum - 8 kappa N with
    kappa = ||phi1 * phi2 - phi1||_1.
    """
    group = f.group
    n = group.order
    kappa = float(np.sum(np.abs(convolve(phi1, phi2).values - phi1.values)))
    f1 = convolve(f, phi1)
    f2 = convolve(f, phi2)
    f2sq = DenseFn(group, f2.values**2)

    corr_f2 = _correlate(phi1, f2)
    corr_f2sq = _correlate(phi1, f2sq)
    mass = float(phi1.values.sum())
    smooth = convolve(f2, phi1).values
    identity_lhs = corr_f2sq - 2.0 * smooth * corr_f2 + smooth**2 * mass
    identity_rhs = convolve(f2sq, phi1).values - smooth**2
    identity_residue = float(np.max(np.abs(identity_lhs - identity_rhs)))

    energy_gap = float(np.sum(f2.values**2) - np.sum(f1.values**2))
    double_sum = float(
        np.sum(corr_f2sq - 2.0 * f1.values * corr_f2 + f1.values**2 * mass)
    )
    rhs = double_sum - 8.0 * kappa * n
    sup_f = float(np.max(np.abs(f.values)))
    symmetric = bool(np.allclose(phi1.values, phi1.values[neg_index(group)]))
    return IneqReport(
        part="energy-difference",
        lhs=rhs,
        rhs=energy_gap,
        holds=energy_gap >= rhs - 1e-9,
        hypothesis_ok=sup_f <= 1.0 + 1e-12,
        details={
            "kappa": kappa,
            "identity_residue": identity_residue,
            "energy_gap": energy_gap,
            "double_sum": double_sum,
            "phi1_symmetric": symmetric,
            "phi1_mass": mass,
            "sup_f": sup_f,
        },
    )


def check_witness_stability(A: DenseFn, pair: RegPair, x: int, chi: Character) -> IneqReport:
    """Large windowed coefficients persist across a small Bohr ball.

    Premise (the hypothesis): chi outside the near-orthogonal set of psi2 and
    coefficient at least eps at x.  Conclusion: at least eps/2 everywhere on
    the ball of radius eps * eta2 / 60 around x, so lhs is eps/2 and rhs the
    smallest coefficient over the ball.
    """
    group = A.group
    idx = int(x)
    eps = pair.eps
    a2 = alpha(A, pair.psi2).values
    chi_idx = chi.index
    hat2 = float(pair.psi2.psi_hat.values[chi_idx].real)
    radius = eps * pair.eta2 / 60.0
    ball = bohr_set(pair.chars, radius) if radius > 0 else np.array([0])
    ys = translate_indices(group, idx)[ball]  # ball[0] is the identity, so ys[0] = x
    values = np.zeros(ys.size)
    for lo, hi, mags in _windowed_magnitudes(A, ys, a2, pair):
        values[lo:hi] = mags[:, chi_idx]
    premise_coeff, least = float(values[0]), float(values.min())
    return IneqReport(
        part="witness-stability",
        lhs=eps / 2.0,
        rhs=least,
        holds=least >= eps / 2.0,
        hypothesis_ok=hat2 < eps / 6.0 and premise_coeff >= eps,
        details={"psi2_hat_at_chi": hat2, "premise_coeff": premise_coeff, "ball_size": int(ys.size)},
    )


# ---------------------------------------------------------------------------
# reduced sets and zero-sum removal
# ---------------------------------------------------------------------------

def _reduce(state: _PairState) -> list[DenseFn]:
    """Delete irregular and low-density members of each set.

    x in A_i is dropped when it is not a regular value or when either
    smoothed density alpha_{i,1}(x) or alpha_{i,2}(x) is at most 4 eps^{1/k};
    the loss is at most 10 k eps^{1/k} N per set for a regular pair.
    """
    eps, k = state.pair.eps, state.pair.k
    threshold = 4.0 * eps ** (1.0 / k)
    out = []
    for A, p in zip(state.As, state.profiles):
        keep = (p.cond1 <= eps**2) & (p.cond2 <= eps) & (p.a1 > threshold) & (p.a2 > threshold)
        out.append(DenseFn(A.group, A.values * keep))
    return out


def check_low_density_count(A: DenseFn, cutoff: BohrCutoff, rho: float) -> IneqReport:
    """At most rho N members of A can have smoothed density A * psi <= rho."""
    if rho <= 0:
        raise DomainMismatchError("rho must be positive")
    _indicator_required(A)
    smoothed = alpha(A, cutoff).values
    count = int(np.count_nonzero((A.values > 0.5) & (smoothed <= rho)))
    bound = rho * A.group.order
    return IneqReport(
        part="low-density-count",
        lhs=float(count),
        rhs=bound,
        holds=count <= bound,
        details={"rho": rho, "members": int(A.values.sum())},
    )


def exact_zero_sum_tuples(As: Sequence[DenseFn]) -> int:
    """Exact integer count of zero-sum tuples across indicator sets.

    The spectral count is rounded and checked against a worst-case float64
    error of 32 k log2(N) 2^-53 N^(k-1) for k transforms of 0/1 rows, their
    products and the sum (FFT error bounds: Schatzman 1996, Percival 2003).
    Where that bound reaches 1/2 no rounding is exact: ResourceBudgetError.
    """
    for A in As:
        _indicator_required(A)
    n, k = As[0].group.order, len(As)
    bound = 32 * k * math.log2(n) * 2.0**-53 * float(n) ** (k - 1)
    if bound >= 0.5:
        raise ResourceBudgetError(f"spectral count error bound {bound} leaves no exact integer")
    value = zero_sum_count(As)
    if abs(value - round(value)) > bound:
        raise InternalCheckError(f"spectral count {value} is off an integer by more than {bound}")
    return round(value)


def _strip_participants(As: Sequence[DenseFn]) -> DenseFn:
    """As[0] less every x in a zero-sum tuple: (As[1] * ... * As[k-1])(-x) > 0.

    Exact on (Z/2)^n, where the butterflies only add, subtract and scale by 2^-r.
    """
    conv = As[1]
    for A in As[2:]:
        conv = convolve(conv, A)
    completions = conv.values[neg_index(As[0].group)]
    return DenseFn(As[0].group, As[0].values * (np.round(completions) < 0.5))


def _removal_route(pipeline: str, schedule: Sequence[float], attempt, count, strip) -> tuple:
    """The schedule walk shared by triangle and zero-sum removal.

    attempt(eps) regularizes, reduces and counts exactly, giving (record,
    survivors, (residual, removed)); the first zero residual wins.  Else strip
    clears every element still in a tuple from the candidate with the fewest
    (residual, removed), in one pass (a tuple left was a tuple before), and
    count re-checks it.  Returns (survivors, certificate head).
    """
    attempts, candidates = [], []
    for eps in schedule:
        record, survivors, key = attempt(eps)
        attempts.append(record)
        candidates.append((key, eps, survivors))
        if key[0] == 0:
            break
    else:
        _, eps, survivors = min(candidates, key=lambda c: c[0])
        survivors = strip(survivors)
        if count(survivors) != 0:
            raise InternalCheckError("participant deletion left a zero-sum tuple")
        pipeline += "+participant-deletion"
    return survivors, {"pipeline": pipeline, "eps": eps, "attempts": attempts}


def zero_sum_removal(
    As: Sequence[DenseFn],
    eps: float,
    mode: str = SCALED,
    scale: float = 1.0,
    budget: int = 64,
    eps_schedule: "list[float] | None" = None,
) -> tuple[list[DenseFn], list[int], dict]:
    """Delete few elements from each set so no zero-sum tuple survives.

    Runs regularize + reduce per epsilon in the schedule and verifies the
    survivor count exactly; larger epsilons delete more aggressively (the
    density thresholds 4 eps^{1/k} eventually clear every set).  If no entry
    reaches zero, one pass removes from the first set every element that
    still completes a zero-sum tuple.  The certificate records each attempt,
    the removal bound 10 k eps^{1/k} N, and the coupling ratio
    3^k delta / eta2^{dk} against eps.
    """
    k = len(As)
    if k < 3:
        raise DomainMismatchError("zero-sum removal needs k >= 3 sets")
    group = As[0].group
    n = group.order
    initial = exact_zero_sum_tuples(As)
    density = initial / n ** (k - 1)

    def attempt(e: float):
        state, trace = _regularize(As, trivial_pair(group, k, e, mode, scale), budget)
        pair, reduced = state.pair, _reduce(state)
        removed = [int(A.values.sum() - B.values.sum()) for A, B in zip(As, reduced)]
        residual = exact_zero_sum_tuples(reduced)
        bound = 10.0 * k * e ** (1.0 / k) * n
        with np.errstate(over="ignore", divide="ignore"):
            eta2_power = pair.eta2 ** (pair.d * k) if pair.d else 1.0
            coupling = 3.0**k * density / eta2_power if eta2_power else math.inf
        return {
            "eps": e,
            "converged": trace["converged"],
            "d": pair.d,
            "eta": pair.eta,
            "eta2": pair.eta2,
            "removed": removed,
            "removal_bound": bound,
            "removal_bound_ok": all(r <= bound for r in removed),
            "residual_tuples": residual,
            "coupling_ratio": coupling,
            "coupling_ok": bool(coupling < e),
        }, reduced, (residual, sum(removed))

    schedule = list(eps_schedule) if eps_schedule else [eps, 0.2, 0.3, 0.45, 0.8, 1.5]
    reduced, cert = _removal_route("reduced-sets", schedule, attempt, exact_zero_sum_tuples,
                                   lambda Bs: [_strip_participants(Bs)] + Bs[1:])
    removed = [int(A.values.sum() - B.values.sum()) for A, B in zip(As, reduced)]
    cert |= {"initial_tuples": initial, "spectral_tuples": zero_sum_count(reduced)}
    return reduced, removed, cert
