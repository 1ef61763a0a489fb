"""Seed-derived random streams.

Every stochastic routine in the package draws from a generator returned by
``substream(seed, *tags)``: a PCG64 keyed on the integer seed plus a tuple of
integer stream tags, via numpy's SeedSequence. Identical (seed, tags) always
produce identical streams on any platform, and distinct tag tuples give
statistically independent streams, so results do not depend on call order or
scheduling.

One caveat inherited from SeedSequence: entropy shorter than its internal
pool is zero-padded, so tag tuples that differ only by trailing zeros (for
example ``(7,)`` and ``(7, 0)``) key the same stream. Callers must not rely
on trailing-zero tags for separation; every tag layout in this package keeps
a fixed tuple length per purpose instead. For example, the permutation
test draws its whole null from the one stream ``(seed, 30)``, which is also
the stream ``(seed, 30, 0)``; no layout here has a tag tuple that starts
with 30 and is longer.
"""

from __future__ import annotations

import numpy as np


def substream(seed: int, *tags: int) -> np.random.Generator:
    """Independent generator for the stream keyed by (seed, *tags)."""
    entropy = [int(seed)] + [int(t) for t in tags]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def derive_seed(seed: int, *tags: int) -> int:
    """Collapse (seed, *tags) into a fresh 64-bit seed for a child routine."""
    entropy = [int(seed)] + [int(t) for t in tags]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])
