from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import identical_instances, rationals
from oracles import (
    brute_lex_min_assignment,
    brute_lex_min_vector,
    brute_optimal_makespan,
    fraction_size_order,
    greedy_resimulation,
    induced_instance,
)
from schedgames.core import (
    BudgetExceededError,
    IdenticalInstance,
    Schedule,
    UnrelatedInstance,
    ValidationError,
    load_profile,
)
from schedgames.equilibria import is_nash, is_strong
from schedgames.experiments import random_instance
from schedgames.schedulers import (
    PtasConfig,
    lex_min_assignment,
    list_schedule,
    lpt,
    optimal_makespan,
    ptas,
    size_ordered_jobs,
)


def loads_of(instance, schedule):
    return sorted(load_profile(instance, schedule).loads, reverse=True)


# --- lpt ---------------------------------------------------------------


def test_lpt_rounded_benchmark_instance():
    instance = IdenticalInstance(m=3, p=("1.633", "1.633", "1.367", "1.266", "1", "1", "1"))
    assert loads_of(instance, lpt(instance)) == [
        Fraction(3633, 1000),
        Fraction(2633, 1000),
        Fraction(2633, 1000),
    ]


def test_lpt_spreads_equal_jobs():
    instance = IdenticalInstance(m=3, p=(2, 2, 2))
    assert loads_of(instance, lpt(instance)) == [2, 2, 2]


def test_lpt_greedy_trace():
    instance = IdenticalInstance(m=3, p=(5, 5, 3, 3, 2, 2))
    schedule = lpt(instance)
    assert loads_of(instance, schedule) == [7, 7, 6]
    assert schedule.assignment == greedy_resimulation(instance, size_ordered_jobs(instance))


@given(identical_instances(min_m=1, max_m=4, max_n=7))
def test_lpt_matches_reference_greedy_on_sorted_order(instance):
    assert lpt(instance).assignment == greedy_resimulation(
        instance, size_ordered_jobs(instance)
    )


@given(identical_instances(min_m=1, max_m=4, max_n=7))
def test_lpt_output_is_equilibrium(instance):
    assert is_nash(instance, lpt(instance)).holds


@given(identical_instances(min_m=2, max_m=4, min_n=1, max_n=7), st.data())
def test_lpt_is_subset_preserving(instance, data):
    schedule = lpt(instance)
    subset = data.draw(st.sets(st.integers(1, instance.m), min_size=1, max_size=instance.m))
    induced = induced_instance(instance, schedule, subset)
    assert lpt(induced.instance).assignment == induced.induced_schedule(schedule).assignment


@given(identical_instances(min_m=1, max_m=3, max_n=6))
def test_lpt_meets_four_thirds_makespan_bound(instance):
    bound = Fraction(4, 3) - Fraction(1, 3 * instance.m)
    opt = optimal_makespan(instance).value
    assert load_profile(instance, lpt(instance)).makespan <= bound * opt


def test_lpt_rejects_unrelated_machines():
    instance = UnrelatedInstance(m=2, p=((1, 2), (2, 1)))
    with pytest.raises(ValidationError, match="identical machines"):
        lpt(instance)


# --- list_schedule -----------------------------------------------------


def test_list_schedule_traps_unit_job_with_long_job():
    instance = IdenticalInstance(m=2, p=(1, 1, 10))
    schedule = list_schedule(instance, (1, 2, 3))
    assert load_profile(instance, schedule).loads == (11, 1)


def test_list_schedule_sorted_order_equals_lpt():
    instance = IdenticalInstance(m=3, p=(4, 1, 3, 3, 2))
    assert (
        list_schedule(instance, size_ordered_jobs(instance)).assignment
        == lpt(instance).assignment
    )


def test_list_schedule_arrival_order_trace():
    instance = IdenticalInstance(m=3, p=("0.8", "0.9", "1", "2", "10", "2", "3"))
    order = tuple(range(1, 8))
    assert list_schedule(instance, order).assignment == greedy_resimulation(instance, order)


def test_list_schedule_rejects_non_permutation():
    instance = IdenticalInstance(m=2, p=(1, 2, 3))
    # 1.0 and True compare equal to job 1, so a permutation check alone lets them in
    for order in ((1, 2, 2), (1, 2), (1.0, 2, 3), (True, 2, 3), ("1", 2, 3), (None, 2, 3)):
        with pytest.raises(ValidationError, match="permutation"):
            list_schedule(instance, order)


# sizes with many ties, several of them equal only as rationals
TIED_SIZES = st.sampled_from(
    [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(3, 2), Fraction(2)]
)


@given(
    st.one_of(
        identical_instances(max_n=10, sizes=TIED_SIZES),
        identical_instances(max_n=10, sizes=rationals(max_value=3, max_denominator=4)),
    )
)
def test_size_order_matches_a_fraction_sort(instance):
    assert size_ordered_jobs(instance) == fraction_size_order(instance)


@given(identical_instances(min_m=1, max_m=3, max_n=6), st.randoms(use_true_random=False))
def test_list_schedule_meets_two_approximation(instance, rnd):
    order = list(range(1, instance.n + 1))
    rnd.shuffle(order)
    schedule = list_schedule(instance, order)
    bound = 2 - Fraction(1, instance.m)
    assert load_profile(instance, schedule).makespan <= bound * optimal_makespan(instance).value


# --- lex_min_assignment ------------------------------------------------


def test_lex_min_spreads_three_jobs():
    instance = IdenticalInstance(m=3, p=(5, 5, 3))
    partial = lex_min_assignment(instance, 3)
    assert tuple(sorted(partial.loads, reverse=True)) == (5, 5, 3)


def test_lex_min_benchmark_vector():
    instance = IdenticalInstance(m=3, p=(5, 5, 3, 3, 2, 2))
    partial = lex_min_assignment(instance, 6)
    vector = tuple(sorted(partial.loads, reverse=True))
    assert vector == (7, 7, 6)
    assert vector == brute_lex_min_vector(instance, range(1, 7))


def test_lex_min_empty_prefix():
    instance = IdenticalInstance(m=2, p=(1, 2))
    partial = lex_min_assignment(instance, 0)
    assert partial.jobs == () and partial.machines == ()


def test_lex_min_rejects_bad_k():
    instance = IdenticalInstance(m=2, p=(1, 2))
    with pytest.raises(ValidationError):
        lex_min_assignment(instance, 3)
    with pytest.raises(ValidationError):
        lex_min_assignment(instance, -1)
    # a bool k was read as 0 or 1
    with pytest.raises(ValidationError):
        lex_min_assignment(instance, True)


def test_lex_min_budget_error_names_bound():
    instance = IdenticalInstance(m=3, p=(1,) * 8)
    with pytest.raises(BudgetExceededError, match="3\\^8"):
        lex_min_assignment(instance, 8, node_budget=10)


def test_canonical_search_decides_up_to_its_job_limit():
    # one frame per job placed: 500 run into the budget, 501 are rejected
    # up front instead of overflowing the stack
    for k in (500, 501):
        instance = IdenticalInstance(m=2, p=(1,) * k)
        if k == 500:
            with pytest.raises(BudgetExceededError):
                lex_min_assignment(instance, k, node_budget=10**4)
        else:
            with pytest.raises(ValidationError, match="2\\^501 .*at most 500 jobs, got 501"):
                lex_min_assignment(instance, k, node_budget=10**4)
    # LPT is one short of the lower bound, so the makespan search runs
    deep = IdenticalInstance(m=2, p=(3, 3) + (2,) * 497)
    assert optimal_makespan(deep).value == 500
    deeper = IdenticalInstance(m=2, p=(3, 3) + (2,) * 1003)
    with pytest.raises(ValidationError, match="makespan search handles at most 500 jobs"):
        optimal_makespan(deeper)
    with pytest.raises(ValidationError, match="at most 500 jobs, got 1005"):
        lex_min_assignment(deeper, 1005)


# Smallest node budget that finishes each m = 4, k = 8 prefix; the
# canonical enumeration without cuts needs 3,771 on every one of them, and
# with the cuts but a first limit of the total size 108, 1,255 and 1,172.
PINNED_LEX_MIN_NODES = {
    (5,) * 8: 44,
    (20, 19, 17, 15, 12, 11, 9, 7): 26,
    (13, 11, 7, 5, 3, 2, 1, 1): 101,
}


@pytest.mark.parametrize("sizes", list(PINNED_LEX_MIN_NODES))
def test_lex_min_node_count_is_pinned(sizes):
    instance = IdenticalInstance(m=4, p=sizes)
    budget = PINNED_LEX_MIN_NODES[sizes]
    lex_min_assignment(instance, 8, node_budget=budget)
    with pytest.raises(BudgetExceededError):
        lex_min_assignment(instance, 8, node_budget=budget - 1)


# Smallest node budget that finishes the prefix search of ptas on a random
# instance, (seed, m, n, p_max), at epsilon; a first limit of the total
# size needed 10,842 and 1,755,253.
PINNED_PTAS_NODES = {
    ((1, 4, 12, 20), Fraction(1, 3)): 280,
    ((0, 5, 16, 20), Fraction(1, 3)): 3371,
}


@pytest.mark.parametrize(
    "case", list(PINNED_PTAS_NODES), ids=lambda c: "seed{}-m{}-n{}".format(*c[0][:3])
)
def test_ptas_prefix_node_count_is_pinned(case):
    draw, eps = case
    instance = random_instance(*draw)
    budget = PINNED_PTAS_NODES[case]
    ptas(instance, PtasConfig(epsilon=eps, node_budget=budget))
    with pytest.raises(BudgetExceededError):
        ptas(instance, PtasConfig(epsilon=eps, node_budget=budget - 1))


def test_lex_min_of_twenty_unit_jobs_finishes_within_200_nodes():
    # equal jobs start no lower than their predecessor's machine; without
    # that rule these 20 unit jobs took 131,735 nodes (174 with it)
    instance = IdenticalInstance(m=2, p=(1,) * 20)
    result = lex_min_assignment(instance, 20, node_budget=200)
    assert result.loads == (10, 10)


# m = 5 too, where starting the limit at the greedy makespan cuts the most
@given(
    st.one_of(
        identical_instances(min_m=1, max_m=4, max_n=7, sizes=st.integers(1, 20)),
        identical_instances(min_m=1, max_m=4, max_n=7),
        identical_instances(
            min_m=1, max_m=4, max_n=7, sizes=st.sampled_from([Fraction(1), Fraction(3, 2), 2])
        ),
        identical_instances(min_m=5, max_m=5, max_n=6, sizes=st.integers(1, 20)),
        identical_instances(
            min_m=5, max_m=5, max_n=6, sizes=st.sampled_from([Fraction(1), Fraction(3, 2), 2])
        ),
    )
)
def test_lex_min_assignment_matches_exhaustive_oracle(instance):
    for k in range(instance.n + 1):
        assert lex_min_assignment(instance, k).machines == brute_lex_min_assignment(instance, k)


@given(identical_instances(min_m=1, max_m=3, min_n=0, max_n=6))
def test_lex_min_matches_exhaustive_oracle(instance):
    k = instance.n
    partial = lex_min_assignment(instance, k)
    chosen = size_ordered_jobs(instance)[:k]
    assert tuple(sorted(partial.loads, reverse=True)) == brute_lex_min_vector(instance, chosen)


@given(identical_instances(min_m=2, max_m=3, min_n=1, max_n=5))
def test_lex_min_prefix_is_strong_on_its_subinstance(instance):
    partial = lex_min_assignment(instance, instance.n)
    by_job = dict(zip(partial.jobs, partial.machines))
    schedule = Schedule(tuple(by_job[j] for j in range(1, instance.n + 1)))
    assert is_strong(instance, schedule).holds


# --- ptas --------------------------------------------------------------


def test_ptas_all_jobs_in_prefix_is_optimal():
    instance = IdenticalInstance(m=3, p=(5, 5, 3, 3, 2, 2))
    schedule = ptas(instance, PtasConfig(epsilon=Fraction(1, 100)))  # k >= n
    assert load_profile(instance, schedule).makespan == optimal_makespan(instance).value
    assert loads_of(instance, schedule) == [7, 7, 6]


def test_ptas_two_machine_benchmark():
    instance = IdenticalInstance(m=2, p=(3, 3, 2, 2, 2))
    schedule = ptas(instance, PtasConfig(epsilon=Fraction(1)))  # k = 2
    assert loads_of(instance, schedule) == [7, 5]
    assert optimal_makespan(instance).value == 6


def test_ptas_rejects_nonpositive_epsilon():
    with pytest.raises(ValidationError):
        PtasConfig(epsilon=Fraction(0))
    with pytest.raises(ValidationError):
        PtasConfig(epsilon=Fraction(-1, 2))


@pytest.mark.parametrize(
    "epsilon", ["1/0", "abc", 0.5], ids=["zero-denominator", "not-a-number", "float"]
)
def test_ptas_parses_epsilon_as_exact_rational(epsilon):
    with pytest.raises(ValidationError):
        PtasConfig(epsilon=epsilon)


def test_ptas_budget_error():
    instance = IdenticalInstance(m=3, p=(1,) * 9)
    with pytest.raises(BudgetExceededError):
        ptas(instance, PtasConfig(epsilon=Fraction(1, 3), node_budget=20))


@pytest.mark.parametrize("budget", [0, -5, True])
@pytest.mark.parametrize(
    "search",
    [
        lambda instance, b: ptas(instance, PtasConfig(epsilon=1, node_budget=b)),
        lambda instance, b: optimal_makespan(instance, node_budget=b),
        lambda instance, b: lex_min_assignment(instance, 4, node_budget=b),
    ],
    ids=["ptas", "optimal_makespan", "lex_min_assignment"],
)
def test_searches_reject_a_budget_that_is_not_a_positive_int(search, budget):
    # a bad budget is bad input, not a search that ran out of nodes
    instance = IdenticalInstance(m=3, p=(7, 5, 4, 4, 3, 2, 2, 1))
    with pytest.raises(ValidationError, match="node budget must be positive"):
        search(instance, budget)


def test_ptas_prefix_size():
    config = PtasConfig(epsilon=Fraction(1, 2))
    assert config.prefix_size(m=3, n=100) == 6
    assert config.prefix_size(m=3, n=4) == 4


@given(
    st.one_of(
        identical_instances(min_m=1, max_m=4, max_n=7),
        identical_instances(min_m=5, max_m=5, max_n=6, sizes=st.integers(1, 20)),
    ),
    st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(3, 4), Fraction(2)]),
)
def test_ptas_is_the_lex_min_prefix_then_greedy(instance, eps):
    # the scheme: the oracle's lex-min assignment of the k longest jobs,
    # then each other job, in size order, on the least loaded machine
    # (lowest index on ties)
    order = fraction_size_order(instance)
    k = PtasConfig(epsilon=eps).prefix_size(instance.m, instance.n)
    assignment = [0] * instance.n
    loads = [Fraction(0)] * instance.m
    for j, i in zip(order[:k], brute_lex_min_assignment(instance, k)):
        assignment[j - 1] = i
        loads[i - 1] += instance.p[j - 1]
    for j in order[k:]:
        i = loads.index(min(loads))
        assignment[j - 1] = i + 1
        loads[i] += instance.p[j - 1]
    assert ptas(instance, PtasConfig(epsilon=eps)).assignment == tuple(assignment)


@given(
    identical_instances(min_m=2, max_m=3, max_n=7),
    st.sampled_from([Fraction(1), Fraction(1, 2)]),
)
@settings(max_examples=40)
def test_ptas_meets_makespan_bound_and_equilibrium(instance, eps):
    schedule = ptas(instance, PtasConfig(epsilon=eps))
    opt = optimal_makespan(instance).value
    assert load_profile(instance, schedule).makespan <= (1 + eps) * opt
    assert is_nash(instance, schedule).holds


@given(
    identical_instances(min_m=2, max_m=3, min_n=1, max_n=6),
    st.sampled_from([Fraction(1), Fraction(1, 2)]),
    st.data(),
)
@settings(max_examples=40)
def test_ptas_stays_near_optimal_on_every_machine_subset(instance, eps, data):
    schedule = ptas(instance, PtasConfig(epsilon=eps))
    subset = data.draw(st.sets(st.integers(1, instance.m), min_size=1, max_size=instance.m))
    induced = induced_instance(instance, schedule, subset)
    induced_span = load_profile(
        induced.instance, induced.induced_schedule(schedule)
    ).makespan
    assert induced_span <= (1 + eps) * optimal_makespan(induced.instance).value


# --- optimal_makespan --------------------------------------------------


def test_optimal_makespan_benchmark():
    instance = IdenticalInstance(m=3, p=(5, 5, 3, 2, 3, 2))
    result = optimal_makespan(instance)
    assert result.value == 7
    assert loads_of(instance, result.schedule) == [7, 7, 6]


def test_optimal_makespan_single_job():
    instance = IdenticalInstance(m=3, p=(9,))
    assert optimal_makespan(instance).value == 9


def test_optimal_makespan_two_machines():
    instance = IdenticalInstance(m=2, p=(3, 3, 2, 2, 2))
    assert optimal_makespan(instance).value == 6
    # the leaf that meets ceil(12 / 2) = 6 ends the whole search; a stop
    # in that leaf's frame alone left the frames above counting nodes
    # past this budget
    assert optimal_makespan(instance, node_budget=8).value == 6


def test_optimal_makespan_keeps_its_first_optimal_leaf():
    # a later leaf whose makespan only ties the incumbent must not
    # replace it, so the schedule returned is fixed
    instance = IdenticalInstance(m=3, p=(8, 4, 2, 4, 4, 9, 9, 5))
    result = optimal_makespan(instance)
    assert result.value == 16
    assert result.schedule.assignment == (1, 2, 3, 1, 1, 3, 2, 3)


# Smallest node budget that finishes each makespan search, with the
# optimum; the first four stop at the lower bound, the last proves an
# optimum above it.
PINNED_MAKESPAN_NODES = {
    (3, (5, 5, 4, 4, 3, 3, 3)): (26, 9),
    (3, (12, 11, 10, 9, 8, 7, 6, 5, 4)): (221, 24),
    (4, (7, 7, 6, 6, 5, 5, 4, 4, 4)): (140, 12),
    (4, (11, 10, 9, 8, 7, 6, 5, 4, 3, 3)): (25, 17),
    (4, (6, 6, 6, 6, 5, 5)): (11, 11),
}


@pytest.mark.parametrize("case", list(PINNED_MAKESPAN_NODES), ids=str)
def test_optimal_makespan_node_count_is_pinned(case):
    m, sizes = case
    budget, value = PINNED_MAKESPAN_NODES[case]
    instance = IdenticalInstance(m=m, p=sizes)
    assert optimal_makespan(instance, node_budget=budget).value == value
    with pytest.raises(BudgetExceededError):
        optimal_makespan(instance, node_budget=budget - 1)


def test_optimal_makespan_budget_error_carries_best():
    # greedy warm start (makespan 9) beats neither lower bound (8), so
    # the search has to run and trips the tiny budget
    instance = IdenticalInstance(m=2, p=(4, 3, 3, 3, 3))
    with pytest.raises(BudgetExceededError) as info:
        optimal_makespan(instance, node_budget=3)
    best = info.value.best
    assert best is not None
    assert load_profile(instance, best.schedule).makespan == best.value
    assert best.schedule == lpt(instance) and best.value == 9


@given(identical_instances(min_m=1, max_m=3, min_n=1, max_n=7))
def test_optimal_makespan_warm_start_is_lpt(instance):
    # one node is too few for any leaf, so a budget stop hands back the
    # warm start; without a stop, LPT already met the lower bound
    greedy = lpt(instance)
    try:
        result = optimal_makespan(instance, node_budget=1)
    except BudgetExceededError as exc:
        assert exc.best.schedule == greedy
        assert exc.best.value == load_profile(instance, greedy).makespan
    else:
        assert result.value == load_profile(instance, greedy).makespan


@given(identical_instances(min_m=1, max_m=3, max_n=6))
def test_optimal_makespan_matches_exhaustive_oracle(instance):
    result = optimal_makespan(instance)
    expected = brute_optimal_makespan(instance) if instance.n else Fraction(0)
    assert result.value == expected
    assert load_profile(instance, result.schedule).makespan == result.value
