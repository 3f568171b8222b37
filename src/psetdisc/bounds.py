"""Closed-form discrepancy bounds, envelope constants, and their inversion.

All logarithms are natural (the harmonic estimate comes from int dt/t).

Per-family closed forms for the weighted star discrepancy (p prime, any
nonnegative weights):

    P:  (2/sqrt(p)) * max_u gamma_u (max u) (4 log p)^|u|
    Q:  (3/p)       * max_u gamma_u (max u) (6 log p)^|u|
    R:  (2/p)       * max_u gamma_u (max u) (4 log p)^|u|

These (prefactor, log coefficient, p-exponent) rows are written once, in
_FAMILY_FORM; thm1_bound and Thm2Params.envelope both read them.

For non-increasing summable product weights these collapse to dimension-free
envelopes c / p^(1/2-delta) (P) and c / p^(1-delta) (Q, R): with
Gamma_k = sum_{j>k} gamma_j and k0 the smallest k with Gamma_k < delta/(8e),
the subset maximum is at most 2 (4 Gamma_0 log p)^(k0+1) p^(delta/2), and the
envelope constant is the tight supremum

    c = sup_{x >= log 2} prefactor * (logc * Gamma_0 * x)^(k0+1) * e^(-x delta/2),

maximized in closed form at x* = 2(k0+1)/delta (clamped to >= log 2).  The
weaker summability condition sum gamma_j^t < infinity gives the same shape
with an extra factor s, tail norms Gamma_{k,t} = (sum_{j>k} gamma_j^t)^(1/t),
threshold delta/(8 e^t t), and envelope exponent h0 instead of k0+1.

Inverting the envelope yields the smallest certified point count for target
discrepancy eps: M = ceil((c/eps)^(2/(1-2 delta))) for P (1/(1-delta) for
Q/R), and Bertrand's postulate turns M into a prime p in [M, 2M).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from .config import InvariantError
from .numtheory import is_prime, next_prime
from .pointset import PSetKind
from .weights import (GeneralWeights, ProductWeights, Weights, _enumerate_subsets,
                      gamma_tail_sum)

_LOG2 = math.log(2.0)
_LN_FLOAT_MAX = math.log(sys.float_info.max)  # math.exp overflows past this

# kind -> (prefactor, log coefficient, 1/p exponent) of Theorem 1's closed
# form; Theorem 2's envelope for the kind is built from the same row
_FAMILY_FORM = {
    PSetKind.KOROBOV_P: (2.0, 4.0, 0.5),
    PSetKind.KOROBOV_Q: (3.0, 6.0, 1.0),
    PSetKind.HUA_WANG_R: (2.0, 4.0, 1.0),
}


@dataclass(frozen=True)
class BoundReport:
    value: float
    maximizing_subset: tuple[int, ...]
    constants: dict[str, float] = field(default_factory=dict)


def thm1_bound(kind: PSetKind, p: int, s: int, w: Weights) -> BoundReport:
    """Closed-form bound prefactor/p^e * max_u gamma_u (max u) (c log p)^|u|.

    For product weights the maximizing subset is found greedily in O(s):
    with m = max u fixed, including j < m is profitable exactly when
    gamma_j * c log p > 1, so scanning m with running prefix products of
    max(1, gamma_j c log p) is exhaustive-equivalent.  General weights are
    enumerated directly over their listed subsets.
    """
    if p < 2:
        raise ValueError(f"p must be a prime >= 2, got {p}")
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    prefactor, logc, exp = _FAMILY_FORM[kind]
    try:
        pref = prefactor / float(p) ** exp
    except OverflowError:  # p past the range of a float
        raise ValueError(f"p**{exp} in the bound does not fit a float") from None
    if not is_prime(p):  # after the float check, which refuses a p too long to test
        raise ValueError(f"p must be prime, got {p}")
    c = logc * math.log(p)

    best_term = 0.0
    best_u: tuple[int, ...] = (1,)
    if isinstance(w, ProductWeights):
        running = 1.0  # prod_{j<m} max(1, gamma_j c)
        included: list[int] = []
        for m_idx in range(1, s + 1):
            gm = w.gamma(m_idx)
            term = gm * c * m_idx * running
            if term > best_term:
                best_term = term
                best_u = tuple(included) + (m_idx,)
            fac = gm * c
            if fac > 1.0:
                included.append(m_idx)
                running *= fac
    elif isinstance(w, GeneralWeights):
        for u, g in _enumerate_subsets(s, w):
            term = g * u[-1] * c ** len(u)
            if term > best_term:
                best_term, best_u = term, u
    else:
        raise TypeError(f"unsupported weight model {type(w).__name__}")
    return BoundReport(value=pref * best_term, maximizing_subset=best_u,
                       constants={"prefactor": pref, "log_factor": c,
                                  "subset_term": best_term})


@dataclass(frozen=True)
class Thm2Params:
    """Envelope ingredients: threshold, tail index and tail norms."""
    delta: float
    part: int  # 1: summable weights; 2: sum gamma^t < inf, bound gains factor s
    k0: int
    gamma0: float        # Gamma_{0,t}
    gamma_tail_k0: float  # Gamma_{k0} (part 1) / Gamma_{k0,t} (part 2)
    threshold: float

    @property
    def power(self) -> int:
        """Exponent of the (base * log p) factor in the envelope."""
        return self.k0 + 1 if self.part == 1 else self.k0

    def envelope(self, kind: PSetKind) -> tuple[float, float]:
        """(constant, p-exponent) of the envelope for this family: the tight
        constant of its closed form, and its exponent less delta."""
        prefactor, log_coeff, exponent = _FAMILY_FORM[kind]
        try:
            const = envelope_constant(prefactor, log_coeff, self.gamma0, self.power,
                                      self.delta)
        except OverflowError:
            const = math.inf
        if not math.isfinite(const):
            raise ValueError(f"the envelope constant at k0={self.k0} (power "
                             f"{self.power}) does not fit a float")
        return const, exponent - self.delta


def envelope_constant(prefactor: float, log_coeff: float, base: float,
                      power: int, delta: float) -> float:
    """Tight sup over x >= log 2 of prefactor*(log_coeff*base*x)^power*e^(-x delta/2).

    The unclamped maximizer is x* = 2*power/delta; below log 2 the function
    is monotone on the domain and the supremum sits at the boundary.
    """
    if power == 0:
        x_hat = _LOG2
    elif base <= 0.0:
        return 0.0
    else:
        x_hat = max(2.0 * power / delta, _LOG2)
    return prefactor * (log_coeff * base * x_hat) ** power * math.exp(-x_hat * delta / 2.0)


def thm2_params(w: ProductWeights, delta: float, t: float | None = None) -> Thm2Params:
    """Compute the dimension-free envelope ingredients for product weights.

    Requires non-increasing gamma_j and a convergent tail sum (of gamma_j for
    part 1, of gamma_j^t for part 2 when t is given).  k0 is the smallest
    k >= 0 with Gamma_k < delta/(8e) (part 1) resp. Gamma_{k,t} <= the part-2
    threshold delta/(8 e^t t).  Gamma_k never increases with k (each dropped
    term is >= 0 and every float step is monotone), so doubling then
    bisecting finds that k in O(log k0) tail sums.  A t outside
    (0, ln(max float)], or one whose threshold is not a positive float,
    raises ValueError.
    """
    if not isinstance(w, ProductWeights):
        raise TypeError("envelope constants are defined for product weights")
    if not 0.0 < delta < 0.5:
        raise ValueError(f"delta must be in (0, 1/2), got {delta}")
    if not w.is_non_increasing():
        raise ValueError("product weights must be non-increasing for the envelope")
    if t is not None and not 0.0 < t <= _LN_FLOAT_MAX:
        raise ValueError(f"t must be in (0, {_LN_FLOAT_MAX!r}], got {t}")
    part = 1 if t is None else 2
    teff = 1.0 if t is None else float(t)
    threshold = delta / (8.0 * math.e) if part == 1 else delta / (8.0 * math.exp(teff) * teff)
    if not 0.0 < threshold < math.inf:
        raise ValueError(f"the threshold at t={t} is {threshold}, not a positive float")

    def tail(k: int) -> float:
        return gamma_tail_sum(w, k, teff)  # raises DivergenceError if divergent

    def above(g: float) -> bool:
        return g >= threshold if part == 1 else g > threshold

    gamma0 = tail(0)
    lo, hi, g_k = -1, 0, gamma0  # above at lo (none at -1), g_k = tail(hi)
    try:
        while above(g_k):
            lo, hi = hi, 2 * hi + 1
            g_k = tail(hi)
    except OverflowError:
        raise ValueError(f"the tail index k0 is at least 2**{lo.bit_length()}, "
                         f"past the range of a float") from None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        g_mid = tail(mid)
        if above(g_mid):
            lo = mid
        else:
            hi, g_k = mid, g_mid
    return Thm2Params(delta=delta, part=part, k0=hi, gamma0=gamma0,
                      gamma_tail_k0=g_k, threshold=threshold)


def thm2_bound(kind: PSetKind, p: int, s: int, params: Thm2Params) -> float:
    """Dimension-free envelope const/p^(1/2-delta) (P) or const/p^(1-delta)
    (Q, R); multiplied by s under the weaker part-2 summability."""
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    value = _thm2_value(kind, p, s, params)
    if not is_prime(p):  # after the float check, as in thm1_bound
        raise ValueError(f"p must be prime, got {p}")
    return value


def _thm2_value(kind: PSetKind, p: int, s: int, params: Thm2Params) -> float:
    """thm2_bound's value at p >= 2 and s >= 1, prime p unchecked."""
    const, exponent = params.envelope(kind)
    try:
        factor = float(s) if params.part == 2 else 1.0
        value = factor * const / float(p) ** exponent
    except OverflowError:  # s or p past the range of a float
        value = math.inf
    if not math.isfinite(value):
        raise ValueError("the envelope bound does not fit a float")
    return value


@dataclass(frozen=True)
class NMinResult:
    p: int
    m_target: int
    bound: float
    params: Thm2Params


def n_min_from_bound(kind: PSetKind, eps: float, s: int, w: ProductWeights,
                     delta: float, t: float | None = None) -> NMinResult:
    """Invert the envelope: the smallest certified modulus M with
    bound(M) <= eps, and the first prime p >= M (Bertrand: p < 2M).

    M = ceil((C/eps)^(2/(1-2 delta))) for P and ceil((C/eps)^(1/(1-delta)))
    for Q/R, where C is the envelope constant (times s under part 2).  A
    target whose 2M is past the range of a float raises ValueError before the
    prime search.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    params = thm2_params(w, delta, t)
    const, exponent = params.envelope(kind)
    inv_exp = 1.0 / exponent
    if const > 0.0:  # ln M from logs: refuse a 2M past float range before next_prime
        ln_m = inv_exp * (math.log(const) + (math.log(s) if params.part == 2 else 0.0)
                          - math.log(eps))
        if ln_m >= _LN_FLOAT_MAX - _LOG2:
            raise ValueError(f"the target modulus M = exp({ln_m:.6g}) is past the "
                             f"range of a float")
    if params.part == 2:
        const *= s
    if const <= eps:
        m_target = 1  # bound already below eps at any modulus
    else:
        # nudge up so float rounding can never land below the real target
        m_target = math.ceil((const / eps) ** inv_exp * (1.0 + 1e-12))
    p = next_prime(max(m_target, 1))
    # thm2_bound's value, without testing next_prime's p again (Baillie-PSW past 3.3e24)
    achieved = _thm2_value(kind, p, s, params)
    if achieved > eps:
        raise InvariantError(
            f"inverted bound {achieved} exceeds eps {eps} at p={p}")
    if m_target >= 2 and p >= 2 * m_target:
        raise InvariantError(f"prime {p} outside the Bertrand window [M, 2M)")
    return NMinResult(p=p, m_target=m_target, bound=achieved, params=params)
