"""Independent brute-force oracles used to cross-check the library.

Everything here enumerates plainly with itertools and Fractions and
deliberately shares no code with the package's pruned searches.
"""

import itertools
from fractions import Fraction

from schedgames.core import Schedule, load_profile


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
