"""Integer rescaling of exact-rational instances for fast inner loops.

Search code multiplies every processing time by the common denominator
and works in plain ints; ratios of scaled quantities are scale-free, so
results stay exact.
"""

from __future__ import annotations

import math

from .core import IdenticalInstance, Instance


def scaled_sizes(instance: Instance) -> tuple[list[list[int]], int]:
    """Return (sizes, scale): sizes[i][j] = p(machine i+1, job j+1) * scale."""
    identical = isinstance(instance, IdenticalInstance)
    rows = [instance.p] if identical else instance.p
    scale = math.lcm(1, *(q.denominator for row in rows for q in row))
    sizes = [[q.numerator * (scale // q.denominator) for q in row] for row in rows]
    return (sizes * instance.m if identical else sizes), scale
