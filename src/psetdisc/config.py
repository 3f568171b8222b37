"""Computational caps, the working-set budget and shared error types.

Every potentially explosive enumeration (corner grids, frequency-vector
sweeps, point-set materialization, the terms of one Korobov sum) is guarded
by a cap from the `Caps` record, and every guard goes through `Caps.check`,
so each refusal names the cap, the requested amount and the limit.  The
environment variable PSET_DISC_MAX_OPS replaces all three operation-count
caps with a single value; the subset-dimension guard is a structural limit
and stays fixed.

Memory is one working-set budget, WORK_BYTES = B, read at call time.  Each
engine holds its working arrays to a multiple of B: a korobov_sum leaf of B/32
terms (B); a phase sweep's chunk of k heads, 16*k*max(N, M) <= B, whose gather,
sums, bins and transform take B each and lemma 6's counts B/2; the exact scan's
count tables of B/(2*item bytes) corners a branch, B/256 boxes scored at once
and the sampled bound's batches of B/64 corners; the bitset counter of both,
4*B.  What does not shrink with B: the point set, its ranks and the power
tables; a phase sweep's axis table, kept while its M*N entries fit B, so up to
8*B bytes; and one slab row, never split, about 40*N + 16*M bytes.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

ENV_MAX_OPS = "PSET_DISC_MAX_OPS"


class BudgetError(Exception):
    """A configured computational cap would be exceeded."""


class DivergenceError(ValueError):
    """A weight tail sum does not converge."""


class InvariantError(RuntimeError):
    """An internal consistency check failed; indicates a bug, not bad input."""


WORK_BYTES = 1 << 19  # the working-set budget B of every engine; see above


@dataclass(frozen=True)
class Caps:
    max_point_entries: int = 10**7  # N*s entries per point set or Korobov sum
    max_corners: int = 10**9        # corner-count operations in the exact scan
    max_freq_vectors: int = 10**7   # frequency vectors per enumeration
    max_subset_dim: int = 20        # 2^s guard for subset enumeration

    def check(self, name: str, amount: int) -> None:
        """Raise BudgetError if amount exceeds the cap in field `name`."""
        limit = getattr(self, name)
        if amount > limit:
            raise BudgetError(f"{name}: requested {amount}, limit {limit}")

    @classmethod
    def from_env(cls) -> "Caps":
        raw = os.environ.get(ENV_MAX_OPS)
        if raw is None:
            return cls()
        try:
            n = int(raw)
        except ValueError:
            raise ValueError(f"{ENV_MAX_OPS} must be an integer, got {raw!r}") from None
        if n <= 0:
            raise ValueError(f"{ENV_MAX_OPS} must be positive, got {n}")
        return cls(max_point_entries=n, max_corners=n, max_freq_vectors=n)


DEFAULT_CAPS = Caps()
