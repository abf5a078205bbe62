"""Exact regularity pipeline on (Z/2)^n.

Subgroup-local Fourier analysis runs on the subgroup's own coordinates: a
translated restriction A_H^{+g} becomes a vector of length |H| indexed by
basis coefficients, and its transform is an exact Walsh-Hadamard transform.
Irregular cosets contribute witness characters whose annihilator refines the
subgroup, increasing the mean-square coset density ("index") by at least
eps^3 per step, which forces termination.  Each visited subgroup gets one
coset-spectra pass; its count, index, witnesses and reduced set are read from
that state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainMismatchError, InternalCheckError, checked_pow
from .groups import F2Subgroup, GroupSpec, f2_full, f2_nullspace
from .harmonic import (
    DenseFn,
    Spectrum,
    _indicator_required,
    wht_last_axis,
    zero_sum_count,
)
from .reg_general import _removal_route, _strip_participants, exact_zero_sum_tuples


def _require_f2(group: GroupSpec) -> int:
    if not group.is_f2:
        raise DomainMismatchError(f"operation requires (Z/2)^n, got {group}")
    return group.rank


def local_fourier(f: DenseFn, H: F2Subgroup, g: int) -> Spectrum:
    """Transform of the translated restriction on the subgroup's own dual.

    Entry u is sum over t of f(g + h_t) (-1)^{<t, u>}, read off the coset H + g
    in coefficient order t; entry 0 is the mass of f on the coset (= |A ∩ (H+g)|
    for an indicator).
    """
    _require_f2(f.group)
    local = f.values[H.cosets(np.array([int(g)]))[0]]
    return Spectrum(GroupSpec((2,) * H.dim), wht_last_axis(local))


def _coset_spectra(f: DenseFn, H: F2Subgroup) -> tuple[np.ndarray, np.ndarray]:
    """(coset reps, per-coset local spectra) for all cosets at once."""
    reps = H.coset_reps()
    return reps, wht_last_axis(f.values[H.cosets(reps)])


def _sup_nontrivial(spectra: np.ndarray) -> np.ndarray:
    if spectra.shape[-1] == 1:
        return np.zeros(spectra.shape[:-1])
    return np.max(np.abs(spectra[..., 1:]), axis=-1)


def is_regular_value_f2(f: DenseFn, H: F2Subgroup, g: int, eps: float) -> bool:
    """True iff every nontrivial local coefficient has modulus <= eps |H|."""
    spec = local_fourier(f, H, g).values.real
    return bool(_sup_nontrivial(spec[None, :])[0] <= eps * H.size)


class _CosetState:
    """One coset-spectra pass of f over H: reps, spectra, sups, masses, index.

    index is (1/N) sum_g (mass of f on H+g / |H|)^2; check(eps) counts the g
    failing regularity (a property of the coset of g) and passes iff count < eps N.
    """

    def __init__(self, f: DenseFn, H: F2Subgroup):
        self.f, self.H = f, H
        self.reps, self.spectra = _coset_spectra(f, H)
        self.sups = _sup_nontrivial(self.spectra)
        self.masses = self.spectra[:, 0]
        self.index = float(np.sum(self.masses**2)) / (f.group.order * H.size)

    def irregular(self, eps: float) -> np.ndarray:
        return self.sups > eps * self.H.size

    def check(self, eps: float) -> tuple[bool, int]:
        count = int(np.count_nonzero(self.irregular(eps))) * self.H.size
        return count < eps * self.f.group.order, count


def _witnesses(state: _CosetState, eps: float) -> list[int]:
    """Lifted witness characters from irregular cosets, strongest first.

    Per irregular coset the nontrivial coefficient of maximum modulus wins
    (ties to the least label); at most max(1, #cosets/2) cosets contribute,
    kept in decreasing order of their top coefficient.
    """
    irregular = np.flatnonzero(state.irregular(eps))
    order = np.lexsort((state.reps[irregular], -state.sups[irregular]))
    lifted: list[int] = []
    for c in irregular[order][: max(1, state.reps.size // 2)]:
        mags = np.abs(state.spectra[c])
        mags[0] = -1.0
        best = np.flatnonzero(mags == mags.max())[0]
        mask = sum(1 << p for j, p in enumerate(state.H.pivots) if (best >> j) & 1)
        if mask not in lifted:
            lifted.append(mask)
    return lifted


def _refine(state: _CosetState, eps: float) -> tuple[_CosetState, list[int]]:
    """The refined subgroup's state and the witnesses that cut it out."""
    if state.check(eps)[0]:
        raise DomainMismatchError("cannot refine a regular subgroup")
    lifted = _witnesses(state, eps)
    basis = state.H.annihilator().basis + tuple(lifted)
    refined = _CosetState(state.f, f2_nullspace(basis, state.f.group.rank))
    gain = refined.index - state.index
    if gain < eps**3 - 1e-9:
        raise InternalCheckError(
            f"index gain {gain} fell short of eps^3 = {eps**3}"
        )
    return refined, lifted


@dataclass
class F2RegReport:
    subgroup: F2Subgroup
    epsilon: float
    irregular_values: int
    index_trace: list[float]
    iterations: int
    state: _CosetState = field(repr=False, compare=False)  # the final subgroup's coset pass
    dims: list[int] = field(default_factory=list)
    irregular_counts: list[int] = field(default_factory=list)
    witnesses: list[list[int]] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "eps": self.epsilon,
            "dims": self.dims,
            "index_trace": self.index_trace,
            "irregular_counts": self.irregular_counts,
            "witnesses": self.witnesses,
            "iterations": self.iterations,
            "final_irregular_values": self.irregular_values,
        }


def regularize_f2(f: DenseFn, eps: float) -> F2RegReport:
    """Iterate refinement until the subgroup is eps-regular for f.

    Each step gains at least eps^3 of index, so at most floor(eps^-3) steps run.
    """
    n = _require_f2(f.group)
    if not 0.0 < eps < 0.5:
        raise DomainMismatchError("eps must lie in (0, 1/2)")
    max_steps = math.floor(checked_pow(eps, -3, "eps"))
    state = _CosetState(f, f2_full(n))
    trace = [state.index]
    dims = [state.H.dim]
    counts: list[int] = []
    witnesses: list[list[int]] = []
    iterations = 0
    while True:
        regular, count = state.check(eps)
        counts.append(count)
        if regular:
            break
        if iterations >= max_steps:
            raise InternalCheckError("iteration cap floor(eps^-3) exceeded")
        state, lifted = _refine(state, eps)
        witnesses.append(lifted)
        trace.append(state.index)
        dims.append(state.H.dim)
        iterations += 1
    return F2RegReport(
        subgroup=state.H,
        epsilon=eps,
        irregular_values=count,
        index_trace=trace,
        iterations=iterations,
        state=state,
        dims=dims,
        irregular_counts=counts,
        witnesses=witnesses,
    )


# ---------------------------------------------------------------------------
# counting and removal
# ---------------------------------------------------------------------------

def local_triangle_count(f: DenseFn, H: F2Subgroup, g1: int, g2: int, g3: int) -> float:
    """Number of (x1, x2, x3) in the three translated restrictions with zero sum.

    Computed from the subgroup-local spectra: |H|^{-1} sum_u of the product.
    """
    s1, s2, s3 = (local_fourier(f, H, g).values.real for g in (g1, g2, g3))
    return float(np.sum(s1 * s2 * s3)) / H.size


def removal_bound(eps: float, n: int) -> float:
    """3 eps^(1/3) N, the most reduced_set_f2 may delete at an eps-regular subgroup (N = |G|)."""
    return 3.0 * eps ** (1.0 / 3.0) * n


def reduced_set_f2(state: _CosetState, eps: float) -> DenseFn:
    """Delete from A = state.f the contents of every irregular or low-density coset of H = state.H.

    A coset is low-density when its intersection with A has at most
    (2 eps)^{1/3} |H| points.  The result loses at most 3 eps^{1/3} N elements
    when H is eps-regular for A.  It reads the state's coset pass.
    """
    A, H = state.f, state.H
    _indicator_required(A)
    bad = state.irregular(eps) | (state.masses <= (2.0 * eps) ** (1.0 / 3.0) * H.size)
    kept = A.values.copy()
    kept[H.cosets(state.reps[bad])] = 0.0
    return DenseFn(A.group, kept)


def triangle_count_exact(A: DenseFn) -> int:
    """Exact integer count of ordered triples (x, y, z) in A^3 with x+y+z = 0.

    The checked spectral rounding of `reg_general.exact_zero_sum_tuples`.
    """
    _require_f2(A.group)
    return exact_zero_sum_tuples([A, A, A])


def remove_triangles_f2(
    A: DenseFn, eps_schedule: "list[float] | None" = None
) -> tuple[DenseFn, int, dict]:
    """Remove elements until no zero-sum triple remains, reporting the route.

    Each schedule entry runs regularize + reduce and checks the survivor
    exactly; if none certifies triangle-freeness, every element still in a
    triangle of the best candidate is deleted (`reg_general._removal_route`).
    """
    _indicator_required(A)
    schedule = [0.02, 0.05, 0.1, 0.2, 0.3, 0.45] if eps_schedule is None else list(eps_schedule)
    n_total = A.group.order

    def attempt(eps: float):
        rep = regularize_f2(A, eps)
        reduced = reduced_set_f2(rep.state, eps)
        removed = int(A.values.sum() - reduced.values.sum())
        triangles = triangle_count_exact(reduced)
        bound = removal_bound(eps, n_total)
        return {
            "eps": eps,
            "subgroup_dim": rep.subgroup.dim,
            "iterations": rep.iterations,
            "removed": removed,
            "removal_bound": bound,
            "removal_bound_ok": removed <= bound,
            "residual_triangles": triangles,
        }, reduced, (triangles, removed)

    reduced, cert = _removal_route("reduced-set", schedule, attempt, triangle_count_exact,
                                   lambda B: _strip_participants([B, B, B]))
    removed = int(A.values.sum() - reduced.values.sum())
    cert |= {
        "spectral_triangles": zero_sum_count([reduced] * 3),
        "exact_triangles": 0,
        "removal_bound_ok": removed <= removal_bound(cert["eps"], n_total),
    }
    return reduced, removed, cert
