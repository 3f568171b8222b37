"""The three p-set families as exact rational point multisets.

All point sets live in [0,1)^s with coordinates n/M stored as integer
numerators over a common modulus M, never as floats: the exact-discrepancy
corner scan and the exponential sums both need exact coordinate identity.

Families (p prime):

* Korobov P:  x_n = ({n/p}, {n^2/p}, ..., {n^s/p}),        n = 0..p-1
* Korobov Q:  x_n = ({n/p^2}, {n^2/p^2}, ..., {n^s/p^2}),  n = 0..p^2-1
* Hua-Wang R: x_{a,k} = ({k/p}, {ak/p}, ..., {a^(s-1)k/p}), a,k = 0..p-1

R is a multiset (the union of all modulus-p Korobov lattices); duplicate
points are kept everywhere with multiplicity.
"""
from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CAPS, Caps
from .numtheory import is_prime, power_table


class PSetKind(enum.Enum):
    KOROBOV_P = "P"
    KOROBOV_Q = "Q"
    HUA_WANG_R = "R"

    def point_count(self, p: int) -> int:
        return p if self is PSetKind.KOROBOV_P else p * p

    def modulus(self, p: int) -> int:
        return p * p if self is PSetKind.KOROBOV_Q else p


def _fits_int64(a: np.ndarray) -> bool:
    """Whether every entry of a is an integer in int64's range."""
    ints = a.dtype.kind in "biu" or a.dtype == object and all(
        isinstance(v, (int, np.integer)) for v in a.flat)
    return ints and (a.dtype.kind in "bi" or -2**63 <= a.min() and a.max() < 2**63)


@dataclass(frozen=True, eq=False)
class RationalPointSet:
    """Multiset of points numerators[i]/modulus in [0,1)^dim."""

    modulus: int
    dim: int
    numerators: np.ndarray  # (n, dim) int64, read-only

    def __post_init__(self):
        if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool)
                   for v in (self.modulus, self.dim)):
            raise ValueError("modulus and dim must be integers")
        object.__setattr__(self, "modulus", int(self.modulus))
        object.__setattr__(self, "dim", int(self.dim))
        raw = np.asarray(self.numerators)
        if raw.size and not _fits_int64(raw):
            raise ValueError("numerators must be integers that fit int64")
        arr = np.ascontiguousarray(raw, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[1] != self.dim:
            raise ValueError(f"numerators must be (n, {self.dim}), got {arr.shape}")
        if self.modulus < 1 or self.dim < 1:
            raise ValueError("modulus and dim must be positive")
        if len(arr) == 0:
            raise ValueError("point set is empty")
        if arr.min() < 0 or arr.max() >= self.modulus:
            raise ValueError("numerators must lie in [0, modulus)")
        arr.setflags(write=False)
        object.__setattr__(self, "numerators", arr)

    @property
    def n(self) -> int:
        return len(self.numerators)

    def rows(self) -> list[tuple[int, ...]]:
        return [tuple(int(v) for v in row) for row in self.numerators]


def generate(kind: PSetKind, p: int, s: int,
             caps: Caps = DEFAULT_CAPS) -> RationalPointSet:
    """Construct one of the three p-set families exactly."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if s < 1:
        raise ValueError(f"dimension must be >= 1, got {s}")
    n_points = kind.point_count(p)
    caps.check("max_point_entries", n_points * s)
    m = kind.modulus(p)
    if kind in (PSetKind.KOROBOV_P, PSetKind.KOROBOV_Q):  # n = 0..M-1
        out = power_table(m, s, first_power=1)
    else:  # Hua-Wang R: rows ordered (a=0,k=0..p-1), (a=1,k=0..p-1), ...
        k = np.arange(p, dtype=np.int64)[:, None]
        out = (power_table(p, s, first_power=0)[:, None, :] * k % p).reshape(n_points, s)
    return RationalPointSet(modulus=m, dim=s, numerators=out)


def project(ps: RationalPointSet, u) -> RationalPointSet:
    """Keep the coordinates with (1-based) indices in u; multiset preserved."""
    idx = sorted(set(int(j) for j in u))
    if not idx:
        raise ValueError("projection subset must be nonempty")
    if idx[0] < 1 or idx[-1] > ps.dim:
        raise ValueError(f"subset {idx} out of range for dimension {ps.dim}")
    cols = [j - 1 for j in idx]
    return RationalPointSet(modulus=ps.modulus, dim=len(cols),
                            numerators=ps.numerators[:, cols])
