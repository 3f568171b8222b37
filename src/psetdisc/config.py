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
sums, bins and transform take B each and lemma 6's counts B/2; the count
tables, which read whole grids only: the exact scan's of B/(2*item bytes)
corners a branch (B), and the weighted scan's of the full grid, held to the
same budget B; the exact scan's B/256 parts scored at once and the sampled
bound's batches of B/64 corners on every dtype, both scored in int64 or, past
N*M^s = 2^62, in float64 (Python integers only at the corners they rescore),
and the sampled bound's bucket index of B/8 bytes (B); the bitset counter of
both, 4*B: every level's columns of points, held while they fit 2*B, and in
2*B more a slice of words' outer ANDs over the axes of a lattice of levels
(the scan's parts' corners, or the sampled bound's corners) and, unless
held, its columns of those levels; a phase sweep's axis
tables, each kept while its M*G phases over G generators, int16 to M = 2^15,
fit B, and its root table of lattice runs, 16*d*M*M bytes, while it fits B.
What does not shrink with B: the point set, its ranks and the power tables,
one slab row, never split, about 40*N + 16*M bytes, and the exact scan's
floor of 16 boxes a batch, 16*2^min(s, 6) parts of 256 bytes, 256 KiB at most.
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
