"""Every search frees its working set when it returns or raises.

Both recursive kernels (`scan_deviations` and `_canonical_search`) build
a closure that calls itself.  Unless the kernel drops that self-reference,
each call leaves a reference cycle holding the scan's lists, its context
and the caller's leaf closure (so every `Deviation` it collected) for the
cycle collector.  With the collector off, one public call must leave
nothing for `gc.collect()` to find, on every exit path of a search.
"""

import gc
import random

import pytest

from schedgames.core import (
    BudgetExceededError,
    IdenticalInstance,
    Schedule,
    instance_to_dict,
    schedule_to_dict,
)
from schedgames.equilibria import enumerate_profitable_deviations, is_strong
from schedgames.experiments import SweepConfig, bound_sweep, replay_violation
from schedgames.measures import ir_min, measure_report
from schedgames.schedulers import PtasConfig, lex_min_assignment, lpt, optimal_makespan, ptas
from schedgames.witnesses import reduce_partition_identical, search_extremal_lpt

# a start that is not an equilibrium: many profitable deviations
_rng = random.Random(11)
UNSTABLE = IdenticalInstance(m=3, p=tuple(_rng.choices(range(1, 21), k=9)))
UNSTABLE_START = Schedule(tuple(_rng.choices((1, 2, 3), k=9)))
# no half-sum split (every subset sum is 0 or 2 mod 3, the half-sum 1 mod 3),
# so the reduction's start schedule is strong
NO_SPLIT = reduce_partition_identical((3, 6, 9, 12, 15, 5))
# a half-sum split, so the start schedule is not strong; machines 2 and 3
# carry the same gadget pair, so both of is_strong's scans skip mirror
# branches
SPLIT = reduce_partition_identical((3, 4, 7, 5, 8, 7))
# LPT's makespan is 11 where 9 is optimal, so the makespan search runs
MAKESPAN = IdenticalInstance(m=3, p=(5, 5, 4, 4, 3, 3, 3))


def _budget_stop(search, **kwargs):
    """Run a search that must stop on its budget; return what it carried."""
    try:
        search(**kwargs)
    except BudgetExceededError as exc:
        return exc.nodes, exc.best
    raise AssertionError("the search finished within its budget")


def _strong(instance, schedule):
    assert is_strong(instance, schedule).holds


def _optimal_makespan_stop():
    nodes, best = _budget_stop(optimal_makespan, instance=MAKESPAN, node_budget=5)
    assert best is not None


def _sweep(scheduler, m, n, trials, budget=10**6):
    return bound_sweep(
        SweepConfig(
            seed=1, trials=trials, m_range=(m, m), n_range=(n, n), p_max=20,
            scheduler=scheduler, budget=budget,
        )
    )


def _budget_stopped_sweep():
    assert _sweep("ls", 3, 9, 2, budget=50).inconclusive


def _replay():
    instance = IdenticalInstance(m=3, p=(5, 4, 3, 3, 2, 2, 1))
    payload = {
        "scheduler": "lpt",
        "check": "lpt-ir_max",
        "instance": instance_to_dict(instance),
        "schedule": schedule_to_dict(lpt(instance)),
    }
    replay_violation(payload)


PATHS = [
    pytest.param(lambda: is_strong(UNSTABLE, UNSTABLE_START), id="is_strong-found"),
    pytest.param(
        lambda: _strong(NO_SPLIT.instance, NO_SPLIT.start_schedule), id="is_strong-strong"
    ),
    pytest.param(
        lambda: _budget_stop(
            is_strong,
            instance=NO_SPLIT.instance,
            schedule=NO_SPLIT.start_schedule,
            node_budget=100,
        ),
        id="is_strong-budget",
    ),
    pytest.param(
        lambda: is_strong(SPLIT.instance, SPLIT.start_schedule), id="is_strong-mirrors"
    ),
    pytest.param(
        lambda: _budget_stop(
            is_strong,
            instance=SPLIT.instance,
            schedule=SPLIT.start_schedule,
            node_budget=200,
        ),
        id="is_strong-mirrors-budget",
    ),
    pytest.param(
        lambda: is_strong(UNSTABLE, UNSTABLE_START, coalition=[1, 2, 3]),
        id="is_strong-coalition",
    ),
    pytest.param(lambda: ir_min(UNSTABLE, UNSTABLE_START), id="ir_min"),
    pytest.param(lambda: measure_report(UNSTABLE, UNSTABLE_START), id="measure_report"),
    pytest.param(
        lambda: measure_report(UNSTABLE, UNSTABLE_START, node_budget=50),
        id="measure_report-budget",
    ),
    pytest.param(
        lambda: enumerate_profitable_deviations(UNSTABLE, UNSTABLE_START), id="enumerate"
    ),
    pytest.param(
        lambda: enumerate_profitable_deviations(UNSTABLE, UNSTABLE_START, node_budget=50),
        id="enumerate-budget",
    ),
    pytest.param(lambda: optimal_makespan(MAKESPAN), id="optimal_makespan"),
    pytest.param(_optimal_makespan_stop, id="optimal_makespan-budget"),
    pytest.param(lambda: lex_min_assignment(MAKESPAN, 7), id="lex_min_assignment"),
    pytest.param(lambda: ptas(MAKESPAN, PtasConfig(epsilon="1/2")), id="ptas"),
    pytest.param(lambda: _sweep("lpt", 4, 8, 5), id="sweep-lpt"),
    # three-machine equilibria: the structural predicates run on every leaf
    pytest.param(lambda: _sweep("random-ne", 3, 8, 3), id="sweep-equilibria"),
    pytest.param(_budget_stopped_sweep, id="sweep-budget"),
    pytest.param(_replay, id="replay_violation"),
    pytest.param(lambda: search_extremal_lpt(3, "ir_max", "1.55"), id="search_extremal_lpt"),
]


@pytest.mark.parametrize("call", PATHS)
def test_search_leaves_no_cyclic_garbage(call):
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        call()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
