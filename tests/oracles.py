"""Independent brute-force oracles used to cross-check the library.

Everything here enumerates plainly with itertools and Fractions and
deliberately shares no code with the package's pruned searches.
"""

import itertools
from fractions import Fraction

from schedgames.core import IdenticalInstance, Schedule, load_profile


def brute_deviations(instance, schedule):
    """All profitable joint actions (every mover strictly improves), as
    assignment tuples, by full enumeration of m^n candidates."""
    old = load_profile(instance, schedule).loads
    out = []
    for joint in itertools.product(range(1, instance.m + 1), repeat=instance.n):
        if joint == schedule.assignment:
            continue
        new = load_profile(instance, Schedule(joint)).loads
        movers = [j for j in range(1, instance.n + 1) if joint[j - 1] != schedule.machine_of(j)]
        if not movers:
            continue
        if all(new[joint[j - 1] - 1] < old[schedule.machine_of(j) - 1] for j in movers):
            out.append(joint)
    return out


def _brute_ratios(instance, schedule, joint, old):
    """(min mover, max mover-or-improver, max damage or 1) of one deviation."""
    new = load_profile(instance, Schedule(joint)).loads
    mover_ratios = []
    improver_ratios = []
    damage_ratios = [Fraction(1)]
    for j in range(1, instance.n + 1):
        src = schedule.machine_of(j)
        dst = joint[j - 1]
        if src != dst:
            mover_ratios.append(old[src - 1] / new[dst - 1])
        elif new[src - 1] < old[src - 1]:
            improver_ratios.append(old[src - 1] / new[src - 1])
        elif new[src - 1] > old[src - 1]:
            damage_ratios.append(new[src - 1] / old[src - 1])
    return min(mover_ratios), max(mover_ratios + improver_ratios), max(damage_ratios)


def brute_measures(instance, schedule):
    """(ir_min, ir_max, dr_max) by direct evaluation of every profitable
    deviation, with bystander improvers counted for ir_max."""
    return tuple(value for value, _ in brute_measure_witnesses(instance, schedule))


def brute_measure_witnesses(instance, schedule):
    """For each of (ir_min, ir_max, dr_max): (value, lexicographically
    first deviation attaining it), the deviation None when the value is
    the default 1."""
    old = load_profile(instance, schedule).loads
    best = [(Fraction(1), None)] * 3
    for joint in brute_deviations(instance, schedule):
        for k, ratio in enumerate(_brute_ratios(instance, schedule, joint, old)):
            if ratio > best[k][0]:
                best[k] = (ratio, joint)
    return best


def brute_coalition_deviation(instance, schedule, coalition):
    """Lexicographically first joint action in which exactly the given
    jobs may move and every one of them strictly improves; None if none."""
    old = load_profile(instance, schedule).loads
    for joint in itertools.product(range(1, instance.m + 1), repeat=instance.n):
        if joint == schedule.assignment:
            continue
        outsiders = (j for j in range(1, instance.n + 1) if j not in coalition)
        if any(joint[j - 1] != schedule.machine_of(j) for j in outsiders):
            continue
        new = load_profile(instance, Schedule(joint)).loads
        if all(new[joint[j - 1] - 1] < old[schedule.machine_of(j) - 1] for j in coalition):
            return joint
    return None


def brute_optimal_makespan(instance):
    """Minimum makespan over every assignment."""
    best = None
    for joint in itertools.product(range(1, instance.m + 1), repeat=instance.n):
        span = load_profile(instance, Schedule(joint)).makespan
        if best is None or span < best:
            best = span
    return best


def brute_lex_min_vector(instance, jobs):
    """Lexicographically smallest sorted load vector over all assignments
    of the given jobs."""
    best = None
    for joint in itertools.product(range(instance.m), repeat=len(jobs)):
        loads = [Fraction(0)] * instance.m
        for j, i in zip(jobs, joint):
            loads[i] += instance.p[j - 1]
        vector = tuple(sorted(loads, reverse=True))
        if best is None or vector < best:
            best = vector
    return best


def greedy_resimulation(instance, order):
    """Reference least-loaded greedy: lowest-index tie-break."""
    loads = [Fraction(0)] * instance.m
    assignment = [0] * instance.n
    for j in order:
        target = loads.index(min(loads))
        assignment[j - 1] = target + 1
        loads[target] += instance.p[j - 1]
    return tuple(assignment)


def brute_structure(instance, before, after):
    """The structural facts of one deviation, read straight off the two
    schedules: the migration matrix, the flower centre (most loaded
    machine before, one touched by a migration first, then the lowest
    index; 1-based) and whether the migrations form a flower around it.
    On identical machines also the unit job (the highest-index smallest
    job on the centre) and the per-unit load each other machine sends to
    the centre (`incoming`) and keeps (`staying`), keyed by machine."""
    m, n = instance.m, instance.n
    src = [before.machine_of(j) - 1 for j in range(1, n + 1)]
    dst = [after.machine_of(j) - 1 for j in range(1, n + 1)]
    loads = [Fraction(0)] * m
    for j in range(n):
        loads[src[j]] += instance.processing_time(j + 1, src[j] + 1)
    edges = {(s, d) for s, d in zip(src, dst) if s != d}
    matrix = tuple(tuple(int((s, d) in edges) for d in range(m)) for s in range(m))
    touched = {i for edge in edges for i in edge}
    c = min(range(m), key=lambda i: (-loads[i], i not in touched, i))
    star = {(c, i) for i in range(m) if i != c} | {(i, c) for i in range(m) if i != c}
    out = {"migration": matrix, "center": c + 1, "flower": edges == star}
    if isinstance(instance, IdenticalInstance):
        on_center = [j for j in range(n) if src[j] == c]
        unit = min(instance.p[j] for j in on_center)
        out["unit_job"] = 1 + max(j for j in on_center if instance.p[j] == unit)
        out["incoming"], out["staying"] = {}, {}
        for i in range(m):
            if i != c:
                moved = [instance.p[j] for j in range(n) if src[j] == i and dst[j] == c]
                kept = [instance.p[j] for j in range(n) if src[j] == i and dst[j] == i]
                out["incoming"][i + 1] = sum(moved, Fraction(0)) / unit
                out["staying"][i + 1] = sum(kept, Fraction(0)) / unit
    return out
