"""Quasi-Monte Carlo harness: equal-weight rules vs. the discrepancy bound.

The integrand family is multilinear, f(x) = prod_j (1 + c_j (x_j - 1/2)), so
the exact integral over the unit cube is 1 and the variation pairing with the
star discrepancy has the closed form

    V(f) = sum over nonempty u of prod_{j in u} |c_j| prod_{j notin u} (1 + |c_j|/2)
         = prod_j (1 + 3|c_j|/2) - prod_j (1 + |c_j|/2),

which makes the error inequality |estimate - 1| <= D* V(f) checkable exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bounds import thm1_bound
from .config import DEFAULT_CAPS, BudgetError, Caps
from .discrepancy import star_discrepancy_exact
from .pointset import PSetKind, RationalPointSet, generate
from .weights import ProductWeights


@dataclass(frozen=True)
class ProductIntegrand:
    coefficients: tuple[float, ...]

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coefficients)
        if not all(map(math.isfinite, coeffs)):
            raise ValueError(f"integrand coefficients must be finite, got {coeffs}")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def dim(self) -> int:
        return len(self.coefficients)

    def __call__(self, x):
        """f at one point (a float), or at each point of an array whose last
        axis holds the dim coordinates, such as an (n, dim) array."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1:] != (self.dim,):
            raise ValueError(f"integrand dim {self.dim} != point shape {x.shape}")
        out = 1.0
        for c, xj in zip(self.coefficients, np.moveaxis(x, -1, 0)):
            out *= 1.0 + c * (xj - 0.5)
        return out if np.ndim(out) else float(out)


def hk_variation(f: ProductIntegrand) -> float:
    """Closed-form variation prod(1 + 3|c|/2) - prod(1 + |c|/2)."""
    return (math.prod((1.0 + abs(c) + abs(c) / 2.0 for c in f.coefficients), start=1.0)
            - math.prod((1.0 + abs(c) / 2.0 for c in f.coefficients), start=1.0))


def qmc_integrate(ps: RationalPointSet, f: ProductIntegrand) -> tuple[float, float]:
    """(estimate, |estimate - 1|) of the equal-weight rule over ps.

    Points are floated from their exact numerators; accumulation is
    compensated (fsum) so the error column is trustworthy at 1e-14.
    """
    if f.dim != ps.dim:
        raise ValueError(f"integrand dim {f.dim} != point set dim {ps.dim}")
    estimate = math.fsum(f(ps.numerators / float(ps.modulus)).tolist()) / ps.n
    return estimate, abs(estimate - 1.0)


@dataclass(frozen=True)
class ConvergenceRow:
    p: int
    n: int
    estimate: float
    error: float
    dstar: float
    kh_bound: float
    bound_source: str  # "exact" | "thm1"


def convergence_table(kind: PSetKind, s: int, f: ProductIntegrand,
                      primes: Sequence[int],
                      caps: Caps = DEFAULT_CAPS) -> list[ConvergenceRow]:
    """One row per prime: estimate, error, D*, and the error bound D* V(f).

    Falls back to the closed-form bound with unit weights when the exact
    corner scan would blow the corner budget.
    """
    if f.dim != s:
        raise ValueError(f"integrand dim {f.dim} != s {s}")
    variation = hk_variation(f)
    rows = []
    for p in primes:
        ps = generate(kind, p, s, caps=caps)
        estimate, error = qmc_integrate(ps, f)
        try:
            dstar = star_discrepancy_exact(ps, caps=caps).value
            source = "exact"
        except BudgetError:
            unit = ProductWeights(gammas=(1.0,) * s)
            dstar = thm1_bound(kind, p, s, unit).value
            source = "thm1"
        rows.append(ConvergenceRow(p=p, n=ps.n, estimate=estimate, error=error,
                                   dstar=dstar, kh_bound=dstar * variation,
                                   bound_source=source))
    return rows
