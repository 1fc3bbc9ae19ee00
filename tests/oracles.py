"""Independent brute-force oracles used to cross-check the library.

Everything here enumerates plainly with itertools and Fractions, or
counts and maximizes with a plain dynamic program over integer loads, and
deliberately shares no code with the package's pruned searches.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from schedgames.core import (
    IdenticalInstance,
    Instance,
    Schedule,
    UnrelatedInstance,
    ValidationError,
    _check_index,
    load_profile,
    validate_schedule,
)


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


def brute_first_unresolved(m, n, order, share):
    """The lexicographically smallest joint action (1-based) whose rank is
    at least `share` of the m^n joint actions, the rank reading a joint
    action as a base-m number over the jobs in `order` (0-based, every
    job once), by full enumeration in itertools.product order."""
    def rank(joint):
        value = 0
        for j in order:
            value = value * m + joint[j] - 1
        return value

    need = share * m**n
    return next(
        joint for joint in itertools.product(range(1, m + 1), repeat=n) if rank(joint) >= need
    )


def dp_measures(instance, schedule):
    """(deviation_count, ir_min, ir_max, dr_max), as `brute_deviations`
    and `brute_measures` give them, by a forward DP over the jobs in index
    order.  Every size is scaled to an integer by the least common
    multiple of their denominators, so loads and costs are integers and a
    ratio of two of them is the ratio of the sizes they scale.  A state
    is the loads of the jobs placed so far, per machine the smallest and
    the largest start cost among the movers into it (None before any),
    and the set of machines a job stays on; each state keeps how many
    joint actions reach it.  Loads only grow, so a state is dropped once a
    machine's load reaches its smallest mover cost; every final state with
    a mover is profitable.  At the end a mover into machine i improves by
    its start cost over i's load, a job that stays on i by i's start load
    over its final load, so each final state gives all three ratios."""
    m, n = instance.m, instance.n
    sizes = [
        [Fraction(instance.processing_time(j, i)) for i in range(1, m + 1)]
        for j in range(1, n + 1)
    ]
    scale = math.lcm(1, *(size.denominator for row in sizes for size in row))
    sizes = [[int(size * scale) for size in row] for row in sizes]
    src = [schedule.machine_of(j) - 1 for j in range(1, n + 1)]
    old = [0] * m
    for row, i in zip(sizes, src):
        old[i] += row[i]
    none = (None,) * m
    states = {((0,) * m, none, none, 0): 1}
    for row, here in zip(sizes, src):
        cost = old[here]
        grown = {}
        for (loads, low, high, stay), count in states.items():
            for i in range(m):
                load = loads[i] + row[i]
                lo, hi, mask = low[i], high[i], stay
                if i == here:
                    mask |= 1 << i
                else:
                    lo = cost if lo is None else min(lo, cost)
                    hi = cost if hi is None else max(hi, cost)
                if lo is not None and load >= lo:
                    continue
                key = (
                    loads[:i] + (load,) + loads[i + 1 :],
                    low[:i] + (lo,) + low[i + 1 :],
                    high[:i] + (hi,) + high[i + 1 :],
                    mask,
                )
                grown[key] = grown.get(key, 0) + count
        states = grown
    total, ir_min, ir_max, dr_max = 0, Fraction(1), Fraction(1), Fraction(1)
    for (loads, low, high, stay), count in states.items():
        if low == none:
            continue
        total += count
        movers = [i for i in range(m) if low[i] is not None]
        stayers = [i for i in range(m) if stay >> i & 1]
        ir_min = max(ir_min, min(Fraction(low[i], loads[i]) for i in movers))
        gains = [Fraction(high[i], loads[i]) for i in movers]
        gains += [Fraction(old[i], loads[i]) for i in stayers if loads[i] < old[i]]
        ir_max = max([ir_max, *gains])
        dr_max = max(
            [dr_max, *(Fraction(loads[i], old[i]) for i in stayers if loads[i] > old[i])]
        )
    return total, ir_min, ir_max, dr_max


def brute_ratio_maps(instance, schedule, joint, old=None):
    """Per-job ratios of one joint action, keyed by job: (movers' old
    cost over new, stayers' old over new load where it drops, stayers'
    new over old load where it grows).  `old` is the start loads,
    computed here unless given."""
    if old is None:
        old = load_profile(instance, schedule).loads
    new = load_profile(instance, Schedule(joint)).loads
    mover, bystander, damage = {}, {}, {}
    for j in range(1, instance.n + 1):
        src = schedule.machine_of(j)
        dst = joint[j - 1]
        if src != dst:
            mover[j] = old[src - 1] / new[dst - 1]
        elif new[src - 1] < old[src - 1]:
            bystander[j] = old[src - 1] / new[src - 1]
        elif new[src - 1] > old[src - 1]:
            damage[j] = new[src - 1] / old[src - 1]
    return mover, bystander, damage


def _brute_ratios(instance, schedule, joint, old):
    """(min mover, max mover-or-improver, max damage or 1) of one deviation."""
    mover, bystander, damage = brute_ratio_maps(instance, schedule, joint, old)
    return (
        min(mover.values()),
        max([*mover.values(), *bystander.values()]),
        max([Fraction(1), *damage.values()]),
    )


def brute_improving_moves(instance, schedule):
    """Every strictly improving unilateral move as (job, machine, new
    cost), ascending by job then machine."""
    loads = load_profile(instance, schedule).loads
    moves = []
    for j in range(1, instance.n + 1):
        here = schedule.machine_of(j)
        for i in range(1, instance.m + 1):
            cost = loads[i - 1] + instance.processing_time(j, i)
            if i != here and cost < loads[here - 1]:
                moves.append((j, i, cost))
    return moves


def brute_non_improver(instance, before, after, members):
    """(job, old cost, new cost) of the lowest-index member whose cost
    does not strictly drop in the move, or None."""
    old = load_profile(instance, before).loads
    new = load_profile(instance, after).loads
    for j in sorted(members):
        cost = (old[before.machine_of(j) - 1], new[after.machine_of(j) - 1])
        if not cost[1] < cost[0]:
            return (j, *cost)
    return None


def brute_measures(instance, schedule):
    """(ir_min, ir_max, dr_max) by direct evaluation of every profitable
    deviation, with bystander improvers counted for ir_max."""
    return tuple(value for value, _ in brute_measure_witnesses(instance, schedule))


def brute_measure_witnesses(instance, schedule, deviations=None):
    """For each of (ir_min, ir_max, dr_max): (value, lexicographically
    first deviation attaining it), the deviation None when the value is
    the default 1.  `deviations` is `brute_deviations(instance,
    schedule)`, enumerated here unless given."""
    old = load_profile(instance, schedule).loads
    best = [(Fraction(1), None)] * 3
    if deviations is None:
        deviations = brute_deviations(instance, schedule)
    for joint in deviations:
        for k, ratio in enumerate(_brute_ratios(instance, schedule, joint, old)):
            if ratio > best[k][0]:
                best[k] = (ratio, joint)
    return best


def brute_coalition_deviations(instance, schedule, coalition):
    """Every joint action, in lexicographic order, in which exactly the
    given jobs may move and every one of them strictly improves."""
    old = load_profile(instance, schedule).loads
    for joint in itertools.product(range(1, instance.m + 1), repeat=instance.n):
        if joint == schedule.assignment:
            continue
        outsiders = (j for j in range(1, instance.n + 1) if j not in coalition)
        if any(joint[j - 1] != schedule.machine_of(j) for j in outsiders):
            continue
        new = load_profile(instance, Schedule(joint)).loads
        if all(new[joint[j - 1] - 1] < old[schedule.machine_of(j) - 1] for j in coalition):
            yield joint


def brute_coalition_deviation(instance, schedule, coalition):
    """Lexicographically first joint action in which exactly the given
    jobs may move and every one of them strictly improves; None if none."""
    return next(brute_coalition_deviations(instance, schedule, coalition), None)


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


def brute_lex_min_assignment(instance, k):
    """Machines of the k longest jobs (ties by ascending index), in that
    order: the first restricted-growth labelling in itertools.product
    order whose sorted load vector is lexicographically smallest, with
    machines renumbered 1.. by first use in ascending job index."""
    jobs = sorted(range(1, instance.n + 1), key=lambda j: (-instance.p[j - 1], j))[:k]
    best = None
    for joint in itertools.product(range(instance.m), repeat=k):
        if any(joint[t] > max(joint[:t], default=-1) + 1 for t in range(k)):
            continue
        loads = [Fraction(0)] * instance.m
        for j, i in zip(jobs, joint):
            loads[i] += instance.p[j - 1]
        vector = tuple(sorted(loads, reverse=True))
        if best is None or vector < best[0]:
            best = (vector, joint)
    first = {}
    for _, label in sorted(zip(jobs, best[1])):
        first.setdefault(label, len(first) + 1)
    return tuple(first[label] for label in best[1])


def fraction_size_order(instance):
    """Reference size order: job indices by non-increasing `Fraction`
    size, ties by ascending index."""
    return sorted(range(1, instance.n + 1), key=lambda j: (-instance.p[j - 1], j))


def greedy_resimulation(instance, order):
    """Reference least-loaded greedy: lowest-index tie-break."""
    loads = [Fraction(0)] * instance.m
    assignment = [0] * instance.n
    for j in order:
        target = loads.index(min(loads))
        assignment[j - 1] = target + 1
        loads[target] += instance.p[j - 1]
    return tuple(assignment)


@dataclass(frozen=True)
class InducedInstance:
    """Restriction of an instance to the jobs sitting on a machine subset.

    `jobs[k-1]` is the original index of sub-instance job k (original
    relative order preserved); `machines[i-1]` is the original index of
    sub-instance machine i (ascending).
    """

    instance: Instance
    jobs: tuple[int, ...]
    machines: tuple[int, ...]

    def induced_schedule(self, schedule: Schedule) -> Schedule:
        """Translate an assignment of the original jobs into sub-instance labels."""
        rank = {orig: k for k, orig in enumerate(self.machines, start=1)}
        return Schedule(tuple(rank[schedule.machine_of(j)] for j in self.jobs))


def induced_instance(instance, schedule, machine_subset):
    """Sub-instance holding exactly the jobs scheduled on the given machines."""
    validate_schedule(instance, schedule)
    subset = list(machine_subset)
    if not subset:
        raise ValidationError("machine subset must be nonempty")
    for i in subset:
        _check_index(i, instance.m, "machine")
    chosen = set(subset)
    subset = sorted(chosen)
    jobs = tuple(j for j in range(1, instance.n + 1) if schedule.machine_of(j) in chosen)
    if isinstance(instance, IdenticalInstance):
        sub = IdenticalInstance(m=len(subset), p=tuple(instance.p[j - 1] for j in jobs))
    else:
        sub = UnrelatedInstance(
            m=len(subset),
            p=tuple(tuple(instance.p[i - 1][j - 1] for j in jobs) for i in subset),
        )
    return InducedInstance(instance=sub, jobs=jobs, machines=tuple(subset))


def brute_structure(instance, before, after):
    """The structural facts of one deviation, read straight off the two
    schedules: the flower centre (most loaded machine before, one touched
    by a migration first, then the lowest index; 1-based) and whether the
    migrations form a flower around it.
    On identical machines also the unit job (the highest-index smallest
    job on the centre) and the per-unit load each other machine sends to
    the centre (`incoming`) and keeps (`staying`), keyed by machine.
    `receivers_send` says every machine that receives a migrant also sends
    one; `outer_up` that every other machine ends heavier, and
    `center_down` that the centre ends lighter than each of them."""
    m, n = instance.m, instance.n
    src = [before.machine_of(j) - 1 for j in range(1, n + 1)]
    dst = [after.machine_of(j) - 1 for j in range(1, n + 1)]
    loads = [Fraction(0)] * m
    new = [Fraction(0)] * m
    for j in range(n):
        loads[src[j]] += instance.processing_time(j + 1, src[j] + 1)
        new[dst[j]] += instance.processing_time(j + 1, dst[j] + 1)
    edges = {(s, d) for s, d in zip(src, dst) if s != d}
    touched = {i for edge in edges for i in edge}
    c = min(range(m), key=lambda i: (-loads[i], i not in touched, i))
    star = {(c, i) for i in range(m) if i != c} | {(i, c) for i in range(m) if i != c}
    others = [i for i in range(m) if i != c]
    out = {
        "center": c + 1,
        "flower": edges == star,
        "receivers_send": {d for _, d in edges} <= {s for s, _ in edges},
        "outer_up": all(new[i] > loads[i] for i in others),
        "center_down": all(new[c] < new[i] for i in others),
    }
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
