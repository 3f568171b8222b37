"""Weight models for the weighted star discrepancy.

Two variants:

* ProductWeights -- a per-coordinate sequence gamma_1, gamma_2, ... given as
  a finite listed prefix plus a tail rule making the infinite part concrete
  (the dimension-free constants need true infinite tail sums, which a finite
  list cannot provide).  gamma_u = prod_{j in u} gamma_j.
* GeneralWeights -- an explicit map from coordinate subsets to nonnegative
  gamma_u; unlisted subsets default to 0, which removes them from every
  maximization.

Weights need not be <= 1; they must be finite and nonnegative.  Monotonicity of
product weights is enforced only where the dimension-free envelope constants
are requested (bounds.thm2_params), not here.

Weight-file format (UTF-8, line based, '#' starts a comment):

    line 1:        "product" | "general"
    product lines: "<j> <gamma_j>"  with j = 1, 2, 3, ... consecutively,
                   optional final "tail zero" | "tail geometric <r>"
                   | "tail powerlaw <a> <c>"   (gamma_j = c * j**-a)
    general lines: "<i1,i2,...> <gamma>"  with 1-based sorted indices
"""
from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, fields
from typing import Iterable, Union

import numpy as np

from .config import DEFAULT_CAPS, Caps, DivergenceError


class WeightFormatError(ValueError):
    """Malformed weight file; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class ZeroTail:
    pass


@dataclass(frozen=True)
class GeometricTail:
    ratio: float

    def __post_init__(self):
        if not 0.0 < self.ratio < 1.0:
            raise ValueError(f"geometric ratio must be in (0,1), got {self.ratio}")


@dataclass(frozen=True)
class PowerLawTail:
    exponent: float  # gamma_j = scale * j**-exponent
    scale: float

    def __post_init__(self):
        if not (0 < self.exponent < math.inf and 0 < self.scale < math.inf):
            raise ValueError("powerlaw tail needs finite exponent > 0 and scale > 0")


TailRule = Union[ZeroTail, GeometricTail, PowerLawTail]

# tail-rule name in the weight file -> its class; the class's fields are the
# rule's numbers, in file order
_TAILS = {"zero": ZeroTail, "geometric": GeometricTail, "powerlaw": PowerLawTail}


def _weight(value) -> float:
    """value as a float; every weight must be finite and nonnegative."""
    g = float(value)
    if not 0.0 <= g < math.inf:
        raise ValueError(f"weight must be finite and nonnegative, got {g!r}")
    return g


@dataclass(frozen=True)
class ProductWeights:
    gammas: tuple[float, ...] = ()
    tail: TailRule = field(default_factory=ZeroTail)

    def __post_init__(self):
        object.__setattr__(self, "gammas", tuple(_weight(g) for g in self.gammas))

    def gamma(self, j: int) -> float:
        """gamma_j for 1-based coordinate index j."""
        if j < 1:
            raise ValueError(f"coordinate index must be >= 1, got {j}")
        k = len(self.gammas)
        if j <= k:
            return self.gammas[j - 1]
        if isinstance(self.tail, ZeroTail):
            return 0.0
        if isinstance(self.tail, GeometricTail):
            anchor = self.gammas[-1] if self.gammas else 1.0
            return anchor * self.tail.ratio ** (j - k)
        return self.tail.scale * float(j) ** -self.tail.exponent

    def is_non_increasing(self) -> bool:
        """gamma_1 >= gamma_2 >= ... over the prefix and across the junction."""
        # every tail rule is non-increasing, so gamma_1..gamma_{k+1} decide (one if k = 0)
        gs = self.gammas + (self.gamma(len(self.gammas) + 1),)
        return all(a >= b for a, b in zip(gs, gs[1:]))


@dataclass(frozen=True)
class GeneralWeights:
    entries: dict[tuple[int, ...], float]

    def __post_init__(self):
        canon: dict[tuple[int, ...], float] = {}
        for u, g in self.entries.items():
            key = _canonical_subset(u)
            if key in canon:
                raise ValueError(f"duplicate subset {key}")
            canon[key] = _weight(g)
        object.__setattr__(self, "entries", canon)


Weights = Union[ProductWeights, GeneralWeights]


def _canonical_subset(u: Iterable[int]) -> tuple[int, ...]:
    idx = tuple(sorted(int(j) for j in u))
    if not idx:
        raise ValueError("subset must be nonempty")
    if idx[0] < 1:
        raise ValueError(f"subset indices must be >= 1, got {idx}")
    if len(set(idx)) != len(idx):
        raise ValueError(f"subset indices must be distinct, got {idx}")
    return idx


def gamma_of(w: Weights, u: Iterable[int]) -> float:
    """Weight gamma_u of a nonempty coordinate subset."""
    key = _canonical_subset(u)
    if isinstance(w, ProductWeights):
        out = 1.0
        for j in key:
            out *= w.gamma(j)
        return out
    return w.entries.get(key, 0.0)


def _enumerate_subsets(dim: int, w: Weights,
                       caps: Caps = DEFAULT_CAPS) -> list[tuple[tuple[int, ...], float]]:
    """(u, gamma_u) for the positive-weight subsets u of [dim], in
    deterministic order."""
    out = []
    if isinstance(w, ProductWeights):
        caps.check("max_subset_dim", dim)
        for mask in range(1, 1 << dim):
            u = tuple(j + 1 for j in range(dim) if mask >> j & 1)
            g = gamma_of(w, u)
            if g > 0:
                out.append((u, g))
        return out
    for u, g in sorted(w.entries.items()):
        if u[-1] > dim:
            raise ValueError(f"weight subset {u} out of range for dimension {dim}")
        if g > 0:
            out.append((u, g))
    return out


def _power_series_tail(q: float, start: int) -> float:
    """sum_{j >= start} j**-q for q > 1, certified to 1e-13 relative by a sandwich
    of integral bounds: trapezoid from below, midpoint-shifted integral from above."""
    partial = 0.0
    m = start
    block = max(1024, start)
    while True:
        lower = m ** (1.0 - q) / (q - 1.0) + 0.5 * m ** -q
        upper = (m - 0.5) ** (1.0 - q) / (q - 1.0)
        mid = 0.5 * (lower + upper)
        if upper - lower <= 1e-13 * (partial + mid) + 1e-300:
            return partial + mid
        j = np.arange(m, m + block, dtype=np.float64)
        partial += float(np.sum(j ** -q))
        m += block
        block *= 2


def gamma_tail_sum(w: ProductWeights, k: int, t: float = 1.0) -> float:
    """Tail norm Gamma_{k,t} = (sum_{j>k} gamma_j**t)**(1/t); Gamma_k at t=1.

    Exact closed form for zero/geometric tails; certified truncation for
    powerlaw tails (requires exponent*t > 1, else DivergenceError); a t too
    small for the float closed form raises ValueError.
    """
    if not isinstance(w, ProductWeights):
        raise TypeError("tail sums are defined for product weights only")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    kpre = len(w.gammas)
    total = sum(w.gammas[j - 1] ** t for j in range(k + 1, kpre + 1))
    start = max(k, kpre) + 1
    tail = w.tail
    if isinstance(tail, GeometricTail):
        anchor = w.gammas[-1] if w.gammas else 1.0
        if anchor > 0:
            rt = tail.ratio ** t
            if rt == 1.0:
                raise ValueError(f"t={t} is too small: the tail ratio**t rounds to 1")
            total += anchor ** t * tail.ratio ** (t * (start - kpre)) / (1.0 - rt)
    elif isinstance(tail, PowerLawTail):
        q = tail.exponent * t
        if q <= 1.0:
            raise DivergenceError(
                f"sum of gamma_j**t diverges: exponent*t = {q} <= 1")
        total += tail.scale ** t * _power_series_tail(q, start)
    try:
        return total ** (1.0 / t)
    except OverflowError:  # float ** float; a k past a float raises above, for thm2_params
        raise ValueError(f"t={t} is too small: the tail sum to the power 1/t "
                         f"does not fit a float") from None


def parse_weights(text: str) -> Weights:
    """Parse the weight-file format; malformed lines raise WeightFormatError."""
    mode = None
    prod_gammas: list[float] = []
    prod_tail: TailRule | None = None
    gen_entries: dict[tuple[int, ...], float] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:  # every check raises a ValueError; it is reported with the line number
            if mode is None:
                if line not in ("product", "general"):
                    raise ValueError(f"expected 'product' or 'general', got {line!r}")
                mode = line
            elif mode == "general":
                if len(parts) != 2:
                    raise ValueError(f"expected '<i1,i2,...> <gamma>', got {line!r}")
                idx = tuple(map(_parse_int, parts[0].split(",")))
                if list(idx) != sorted(set(idx)) or idx[0] < 1:
                    raise ValueError(f"indices must be 1-based, sorted, distinct: {parts[0]!r}")
                if idx in gen_entries:
                    raise ValueError(f"duplicate subset {parts[0]}")
                gen_entries[idx] = _weight(parts[1])
            elif parts[0] == "tail":
                if prod_tail is not None:
                    raise ValueError("duplicate tail rule")
                rule = _TAILS.get(parts[1]) if len(parts) > 1 else None
                if rule is None or len(parts) - 2 != len(fields(rule)):
                    raise ValueError(f"bad tail rule: {' '.join(parts[1:])!r}")
                prod_tail = rule(*map(float, parts[2:]))
            elif prod_tail is not None:
                raise ValueError("tail rule must be the final line")
            elif len(parts) != 2:
                raise ValueError(f"expected '<j> <gamma>', got {line!r}")
            elif (j := _parse_int(parts[0])) != len(prod_gammas) + 1:
                raise ValueError(f"indices must be consecutive from 1, "
                                 f"expected {len(prod_gammas) + 1}, got {j}")
            else:
                prod_gammas.append(_weight(parts[1]))
        except ValueError as exc:
            raise WeightFormatError(line_no, str(exc)) from None
    if mode is None:
        raise WeightFormatError(1, "empty weight file")
    if mode == "product":
        return ProductWeights(gammas=tuple(prod_gammas), tail=prod_tail or ZeroTail())
    return GeneralWeights(entries=gen_entries)


def _parse_int(tok: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ValueError(f"expected integer, got {tok!r}") from None


def serialize_weights(w: Weights) -> str:
    """Canonical text form; parse_weights(serialize_weights(w)) == w."""
    if isinstance(w, ProductWeights):
        lines = ["product"]
        lines += [f"{j} {g!r}" for j, g in enumerate(w.gammas, start=1)]
        name = next(name for name, rule in _TAILS.items() if isinstance(w.tail, rule))
        lines.append(" ".join(["tail", name, *map(repr, astuple(w.tail))]))
        return "\n".join(lines) + "\n"
    lines = ["general"]
    for u in sorted(w.entries):
        lines.append(f"{','.join(map(str, u))} {w.entries[u]!r}")
    return "\n".join(lines) + "\n"
