"""Pseudo-codewords from BFS tier profiles, pseudo-weights, and error laws.

A tier profile assigns (d_c - 1)^(-t) to every variable at tier 2t of a BFS
ordering; scaled by the largest feasible factor it lands inside the decoding
polytope and competes with the all-zeros codeword under AWGN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import _index, qfunc
from .lpdec import _odd_subset_gaps, _odd_subset_rows, _within_polytope
from .tanner import bfs_tiers

__all__ = [
    "PseudoCodeword",
    "PseudoweightBound",
    "canonical_profile",
    "max_scaling_alpha",
    "canonical_completion",
    "awgnc_pseudoweight",
    "pseudoweight_bound",
    "beats_zero",
    "single_pcw_error_prob",
    "wer_lower_bound",
]


@dataclass(frozen=True, eq=False)
class PseudoCodeword:
    """A point of the decoding polytope."""

    omega: np.ndarray

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=float)
        # one pass per bound; a NaN fails both tests and an infinity one
        if not (omega.min(initial=0.0) >= -1e-9 and omega.max(initial=0.0) <= 1 + 1e-9):
            raise ValueError("pseudo-codeword entries must be finite and lie in [0, 1]")
        object.__setattr__(self, "omega", omega)


def canonical_profile(g, tiers):
    """Unscaled tier-decay profile: (d_c - 1)^(-t) at tier 2t, root gets 1."""
    d_c = g.regular_check_degree
    if g.regular_var_degree is None or d_c is None:
        raise ValueError("tier profile requires a degree-regular graph")
    if d_c < 3:
        raise ValueError("tier profile requires check degree >= 3")
    t = (tiers.var_tier // 2).astype(float)
    return (1.0 / (d_c - 1)) ** t


def max_scaling_alpha(g, profile):
    """Largest alpha with alpha * profile inside the polytope, in closed form.

    The box rows give 1 / max(profile); a size-s odd subset with positive
    gap g_S = sum_S - sum_rest gives (s - 1) / g_S, and for each size the
    binding subset collects the s largest entries at the check (the gaps
    ``membership`` tests). Size-1 subsets scale with alpha on both sides, so
    they must already hold for the profile; a violation is reported as an
    error naming the lowest failing check. Both cut-offs are relative to
    max(profile), so the result scales exactly with the profile.

    The result is re-checked with ``membership``'s test of alpha * profile,
    on alpha times the profile's own sorted rows: rounding is monotone, so
    these are exactly the sorted rows of alpha * profile, and the profile is
    gathered and sorted once.
    """
    p = np.asarray(profile, dtype=float)
    if p.shape != (g.n,):
        raise ValueError(f"expected a length-{g.n} profile, got shape {p.shape}")
    if not np.isfinite(p).all() or (p < 0).any():
        raise ValueError("profile must be finite and non-negative")
    top = p.max()
    if top <= 0:
        raise ValueError("profile must have a positive entry")
    alpha = 1.0 / top
    failing = []
    groups = list(_odd_subset_rows(g, p))
    for checks, rows in groups:
        gaps = _odd_subset_gaps(rows)
        failing.extend(checks[gaps[0] > 1e-9 * top].tolist())
        # Sizes 3, 5, ...: size 2t + 1 binds at 2t / gap, least at the
        # largest gap, and division rounds monotonically.
        for t, gap in enumerate(gaps[1:].max(axis=1).tolist(), 1):
            if gap > 1e-12 * top:
                alpha = min(alpha, 2.0 * t / gap)
    if failing:
        raise ValueError(
            f"check {min(failing)}: size-1 odd-subset constraint fails for the profile "
            "(not a tier profile of a regular graph?)"
        )
    if not _within_polytope(alpha * p, ((checks, alpha * rows) for checks, rows in groups)):
        raise RuntimeError("scaled profile failed the membership re-check")
    return float(alpha)


def canonical_completion(g, root):
    """BFS tier profile at ``root`` scaled by its largest feasible factor.

    Returns (PseudoCodeword, alpha).
    """
    tiers = bfs_tiers(g, root)
    prof = canonical_profile(g, tiers)
    alpha = max_scaling_alpha(g, prof)
    return PseudoCodeword(alpha * prof), alpha


def _omega(w):
    return np.asarray(getattr(w, "omega", w), dtype=float)


def awgnc_pseudoweight(w):
    """||omega||_1^2 / ||omega||_2^2; equals Hamming weight on 0/1 vectors."""
    omega = _omega(w)
    if not omega.any():
        raise ValueError("pseudo-weight of the zero vector is undefined")
    l1 = np.abs(omega).sum()
    return float(l1 * l1 / (omega @ omega))


class PseudoweightBound(NamedTuple):
    beta: float
    beta_prime: float
    bound: float


def pseudoweight_bound(d_v, d_c, n):
    """Growth bound beta' * n^beta on the pseudo-weight of a tier completion.

    beta = log((d_v-1)^2) / log((d_v-1)(d_c-1)) < 1,
    beta' = (d_v (d_v - 1) / (d_v - 2))^2; requires 3 <= d_v < d_c. The
    degrees are read with ``operator.index``, so a float or a bool is a
    TypeError.
    """
    d_v, d_c = _index(d_v), _index(d_c)
    if not 3 <= d_v < d_c:
        raise ValueError(f"requires 3 <= d_v < d_c, got ({d_v}, {d_c})")
    beta = math.log((d_v - 1) ** 2) / math.log((d_v - 1) * (d_c - 1))
    beta_prime = (d_v * (d_v - 1) / (d_v - 2)) ** 2
    return PseudoweightBound(beta, beta_prime, beta_prime * float(n) ** beta)


def beats_zero(w, lamp):
    """True iff ``w`` scores strictly better than the all-zeros codeword,
    i.e. sum(omega_i * llr_i) < 0."""
    omega = _omega(w)
    lamp = np.asarray(lamp, dtype=float)
    if omega.shape != lamp.shape:
        raise ValueError("length mismatch between pseudo-codeword and LLR vector")
    return bool(omega @ lamp < 0.0)


def single_pcw_error_prob(w, sigma):
    """Exact probability that ``w`` beats the all-zeros codeword under AWGN.

    With +1 transmitted, sum(omega * (1 + z)) < 0 iff the Gaussian
    sum(omega * z) ~ N(0, sigma^2 ||omega||_2^2) falls below -||omega||_1,
    which is Q(sqrt(pseudoweight) / sigma).
    """
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    return qfunc(math.sqrt(awgnc_pseudoweight(w)) / sigma)


def wer_lower_bound(k_prime, beta, n):
    """Tail expression (1 - 1/t) (2 pi t)^(-1/2) exp(-t/2) with t = K' n^beta.

    K' is a caller-supplied SNR-dependent constant; beta must lie in (0, 1).
    """
    if not k_prime > 0:
        raise ValueError("k_prime must be positive")
    if not 0 < beta < 1:
        raise ValueError("beta must lie in (0, 1)")
    t = k_prime * float(n) ** beta
    return float((1.0 - 1.0 / t) * (2.0 * math.pi * t) ** -0.5 * math.exp(-t / 2.0))
