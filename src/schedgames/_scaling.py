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
    if isinstance(instance, IdenticalInstance):
        values = instance.p
    else:
        values = [q for row in instance.p for q in row]
    scale = 1
    for q in values:
        scale = math.lcm(scale, q.denominator)
    if isinstance(instance, IdenticalInstance):
        row = [int(q * scale) for q in instance.p]
        return [row] * instance.m, scale
    return [[int(q * scale) for q in row] for row in instance.p], scale
