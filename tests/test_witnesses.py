from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from schedgames.core import ValidationError, load_profile
from schedgames.equilibria import is_nash, is_strong, profitable_deviation
from schedgames.measures import check_flower, deviation_stats, measure_report
from schedgames.schedulers import lpt
from schedgames.witnesses import (
    figure1,
    figure3,
    figure9,
    footnote5,
    ls_examples,
    partition_oracle,
    reduce_partition_identical,
    reduce_partition_unrelated,
    search_extremal_lpt,
)


def test_all_generators_start_from_equilibria():
    artifacts = [
        figure1(),
        figure3(Fraction(3, 2)),
        figure3(7, m=4),
        figure9(),
        footnote5(Fraction(1, 4)),
    ]
    for artifact in artifacts:
        assert is_nash(artifact.instance, artifact.schedule).holds


def test_figure1_values():
    art = figure1()
    assert art.instance.p == (5, 5, 3, 2, 3, 2)
    assert load_profile(art.instance, art.schedule).loads == (10, 5, 5)
    assert not is_strong(art.instance, art.schedule).holds
    stats = deviation_stats(art.instance, art.schedule, art.deviation.after)
    assert set(stats.mover_improvement.values()) == {Fraction(5, 4)}
    assert check_flower(art.instance, art.schedule, art.deviation.after)


def test_figure3_rejects_degenerate_ratio():
    with pytest.raises(ValidationError):
        figure3(1)
    with pytest.raises(ValidationError):
        figure3(Fraction(1, 2))
    with pytest.raises(ValidationError):
        figure3(2, m=2)


@given(
    st.fractions(
        min_value=Fraction(11, 10), max_value=Fraction(20), max_denominator=40
    ),
    st.integers(3, 4),
)
@settings(max_examples=25)
def test_figure3_family_measures(r, m):
    art = figure3(r, m=m)
    assert is_nash(art.instance, art.schedule).holds
    report = measure_report(art.instance, art.schedule)
    # the unit jobs improve by exactly r; below r = 5/4 the long jobs'
    # ratio 4r/(4r-1) takes over the maximum
    assert report.ir_max == max(r, 4 * r / (4 * r - 1))
    assert report.dr_max == (4 * r - 1) / (2 * r)
    if m == 3:
        # with inert extra machines the move cannot touch all of them,
        # so the flower pattern is specific to three machines
        assert check_flower(art.instance, art.schedule, art.deviation.after)


def test_figure9_lpt_reproduction_and_structure():
    art = figure9()
    assert art.schedule.assignment == lpt(art.instance).assignment
    loads = sorted(load_profile(art.instance, art.schedule).loads, reverse=True)
    assert loads == [Fraction(3633, 1000), Fraction(2633, 1000), Fraction(2633, 1000)]
    after = sorted(load_profile(art.instance, art.deviation.after).loads, reverse=True)
    assert after == [Fraction(3266, 1000), Fraction(3266, 1000), Fraction(2367, 1000)]
    stats = deviation_stats(art.instance, art.schedule, art.deviation.after)
    target = Fraction(111237, 100000)  # 1/2 + sqrt(6)/4, rounded
    for ratio in stats.mover_improvement.values():
        assert abs(ratio - target) < Fraction(1, 1000)
    assert check_flower(art.instance, art.schedule, art.deviation.after)


def test_footnote5_improvement_is_reciprocal_eps():
    art = footnote5(Fraction(1, 10))
    report = measure_report(art.instance, art.schedule)
    assert report.ir_min == 10
    stats = deviation_stats(art.instance, art.schedule, art.deviation.after)
    assert set(stats.mover_improvement.values()) == {Fraction(10)}


def test_footnote5_rejects_boundary_eps():
    with pytest.raises(ValidationError):
        footnote5(1)
    with pytest.raises(ValidationError):
        footnote5(0)


def test_ls_example_loads_and_ratio():
    imp, _ = ls_examples(10, Fraction(1, 10))
    assert load_profile(imp.instance, imp.schedule).loads == (11, 1)
    # the certified deviation is the move of job 1 alone to machine 2
    (job,) = imp.deviation.migrants
    machine = imp.deviation.after.machine_of(job)
    assert (job, machine) == (1, 2) and imp.deviation.coalition == {1}
    stats = deviation_stats(imp.instance, imp.schedule, imp.deviation.after)
    assert stats.min_improvement == Fraction(11, 2)
    before = load_profile(imp.instance, imp.schedule)
    assert before.load(imp.schedule.machine_of(job)) / (
        before.load(machine) + imp.instance.p[job - 1]
    ) == Fraction(11, 2)


def test_ls_example_sorted_order_equals_lpt():
    instance = ls_examples(10, Fraction(1, 10))[0].instance
    # sorted arrival order reproduces the non-greedy-trap schedule
    from schedgames.schedulers import list_schedule, size_ordered_jobs

    assert (
        list_schedule(instance, size_ordered_jobs(instance)).assignment
        == lpt(instance).assignment
    )


@given(st.integers(3, 60))
@settings(max_examples=15)
def test_ls_damage_example_scales_with_long_job(x):
    _, damage = ls_examples(x, Fraction(1, 10))
    assert damage.deviation is None
    report = measure_report(damage.instance, damage.schedule)
    # the bystander sharing the long job's target machine suffers
    # proportionally to x
    assert report.dr_max >= Fraction(10 * x + 10 - 2, 58)


def test_ls_examples_validation():
    with pytest.raises(ValidationError):
        ls_examples(1, Fraction(1, 10))
    with pytest.raises(ValidationError):
        ls_examples(10, Fraction(1, 2))


# --- partition oracle -----------------------------------------------------


def test_partition_oracle_finds_half():
    assert partition_oracle([3, 3, 4, 4]) == (3, 4)


def test_partition_oracle_exhausts_small_case():
    assert partition_oracle([3, 3, 3, 5]) is None


def test_partition_oracle_odd_total():
    assert partition_oracle([1]) is None


@given(st.lists(st.integers(1, 30), min_size=1, max_size=10))
def test_partition_oracle_witness_is_valid_half(values):
    witness = partition_oracle(values)
    total = sum(values)
    if witness is None:
        if total % 2 == 0:
            # cross-check with direct enumeration
            import itertools

            half = total // 2
            assert not any(
                sum(combo) == half
                for k in range(len(values) + 1)
                for combo in itertools.combinations(values, k)
            )
    else:
        assert sum(witness) * 2 == total
        pool = list(values)
        for v in witness:
            pool.remove(v)


def test_partition_oracle_rejects_bad_input():
    with pytest.raises(ValidationError):
        partition_oracle([0, 3])
    with pytest.raises(ValidationError):
        partition_oracle([2.5])


# --- reductions -------------------------------------------------------------


def test_identical_reduction_with_split_is_not_strong():
    art = reduce_partition_identical([3, 3, 4, 4])
    assert art.expected_se is False and art.partition_witness == (3, 4)
    assert load_profile(art.instance, art.start_schedule).loads == (14, 11, 11)
    result = is_strong(art.instance, art.start_schedule)
    assert not result.holds
    after = load_profile(art.instance, result.witness.after)
    assert sorted(after.loads) == [10, 13, 13]


def test_identical_reduction_without_split_is_strong():
    art = reduce_partition_identical([3, 3, 3, 5])
    assert art.expected_se is True
    assert is_strong(art.instance, art.start_schedule).holds


def test_identical_reduction_rejects_odd_total_and_small_values():
    with pytest.raises(ValidationError):
        reduce_partition_identical([3, 4])
    with pytest.raises(ValidationError):
        reduce_partition_identical([2, 2])
    with pytest.raises(ValidationError):
        reduce_partition_identical([3, 3, 4, 4], m=2)


@pytest.mark.parametrize(
    "build",
    [lambda m: figure3(2, m=m), lambda m: reduce_partition_identical([3, 3, 4, 4], m=m)],
    ids=["figure3", "reduce_partition_identical"],
)
@pytest.mark.parametrize("m", [4.0, True])
def test_witnesses_take_an_int_machine_count_only(build, m):
    # m=4.0 was a TypeError from the padding arithmetic
    with pytest.raises(ValidationError, match="machine count must be an int"):
        build(m)


def test_identical_reduction_extra_machines():
    art = reduce_partition_identical([3, 3, 4, 4], m=5)
    assert art.instance.m == 5
    loads = load_profile(art.instance, art.start_schedule).loads
    assert loads == (14, 11, 11, 14, 14)
    assert is_nash(art.instance, art.start_schedule).holds
    assert not is_strong(art.instance, art.start_schedule).holds


def test_unrelated_reduction_balanced_start():
    art = reduce_partition_unrelated([3, 4, 5, 6, 6], Fraction(1, 5))
    loads = load_profile(art.instance, art.start_schedule).loads
    assert loads == (25, 25)  # both equal 2B + n*eps
    assert art.expected_se is False
    result = is_strong(art.instance, art.start_schedule)
    assert not result.holds
    after = load_profile(art.instance, result.witness.after)
    assert sorted(after.loads) == [Fraction(122, 5), Fraction(123, 5)]  # 24.4, 24.6


def test_unrelated_reduction_without_split_is_strong():
    art = reduce_partition_unrelated([3, 4, 5], Fraction(1, 5))
    assert art.expected_se is True
    assert is_strong(art.instance, art.start_schedule).holds


def test_unrelated_reduction_validates_eps():
    with pytest.raises(ValidationError):
        reduce_partition_unrelated([3, 4, 5, 6, 6], Fraction(1, 4))  # 1/(n-1) = 1/4
    with pytest.raises(ValidationError):
        reduce_partition_unrelated([3, 3], 0)


def test_identical_reduction_rejects_a_half_sum_below_three():
    with pytest.raises(ValidationError, match="^half-sum must be at least 3, got 2$"):
        reduce_partition_identical([4])


@pytest.mark.parametrize(
    "values, message",
    [
        ([0, 2], "^reduction inputs must be positive integers, got 0$"),
        ([3, -3], "^reduction inputs must be positive integers, got -3$"),
        ([4], "^needs at least two input integers$"),
        ([3, 4], "^total size must be even, got 7$"),
    ],
)
def test_unrelated_reduction_rejects_bad_inputs(values, message):
    with pytest.raises(ValidationError, match=message):
        reduce_partition_unrelated(values, Fraction(1, 10))


@given(st.lists(st.integers(3, 8), min_size=4, max_size=5))
@settings(max_examples=30)
# the conservation cut keeps this split's leaves in index order only if it
# counts the room of a machine whose mover ceiling exceeds its load plus
# the work still due there by just 1
@example([5, 3, 3, 5])
def test_reduction_equivalence_on_random_multisets(values):
    if sum(values) % 2:
        values = values + [values[0] % 2 + 3]  # nudge the total even
    if sum(values) % 2:
        return
    art = reduce_partition_identical(values)
    assert is_strong(art.instance, art.start_schedule).holds == art.expected_se
    art_u = reduce_partition_unrelated(values, Fraction(1, len(values)))
    assert is_strong(art_u.instance, art_u.start_schedule).holds == art_u.expected_se


# --- extremal search ----------------------------------------------------------


def test_extremal_search_validates_arguments():
    with pytest.raises(ValidationError):
        search_extremal_lpt(2, "ir_max", Fraction(3, 2))
    with pytest.raises(ValidationError):
        search_extremal_lpt(3, "makespan", Fraction(3, 2))


@pytest.mark.parametrize("budget", [0, -5, True])
def test_extremal_search_rejects_a_budget_that_is_not_a_positive_int(budget):
    # 0 and True both returned found=False without a word
    with pytest.raises(ValidationError, match="node budget must be positive"):
        search_extremal_lpt(3, "ir_max", Fraction(3, 2), node_budget=budget)


def test_extremal_search_reaches_modest_improvement_target():
    result = search_extremal_lpt(3, "ir_max", Fraction(3, 2))
    assert result.found
    assert Fraction(3, 2) <= result.value <= Fraction(5, 3)
    assert result.schedule.assignment == lpt(result.instance).assignment
    # re-verify from first principles
    stats = deviation_stats(result.instance, result.schedule, result.deviation.after)
    assert stats.max_improvement == result.value


def test_extremal_search_reaches_modest_damage_target():
    result = search_extremal_lpt(3, "dr_max", Fraction(13, 10))
    assert result.found
    assert Fraction(13, 10) <= result.value < Fraction(3, 2)
    stats = deviation_stats(result.instance, result.schedule, result.deviation.after)
    assert stats.max_damage == result.value


def test_extremal_search_approaches_the_sharp_limits():
    # witnesses exist arbitrarily close to 5/3 and 3/2; the finer
    # perturbations in the candidate grid get past 1.6 and 1.45
    improvement = search_extremal_lpt(3, "ir_max", Fraction(16, 10))
    assert improvement.found and Fraction(16, 10) <= improvement.value <= Fraction(5, 3)
    damage = search_extremal_lpt(3, "dr_max", Fraction(145, 100))
    assert damage.found and Fraction(145, 100) <= damage.value < Fraction(3, 2)


def test_extremal_search_gives_up_on_impossible_target():
    result = search_extremal_lpt(3, "dr_max", Fraction(2), node_budget=30000)
    assert not result.found
    assert result.value < Fraction(3, 2)
    assert result.budget_charged <= 30000


@pytest.mark.parametrize(
    "measure, target, nodes", [("ir_max", "1.55", 428), ("dr_max", "1.40", 548)]
)
def test_extremal_search_charges_the_nodes_its_scans_visit(measure, target, nodes):
    result = search_extremal_lpt(3, measure, Fraction(target))
    assert result.found and result.budget_charged == nodes


def test_extremal_search_reaches_target_on_four_machines():
    # each 8-job candidate costs far less than 4^8 nodes to scan
    result = search_extremal_lpt(4, "ir_max", Fraction(155, 100), node_budget=100_000)
    assert result.found and result.value == Fraction(61, 39)
    assert result.budget_charged <= 100_000
    stats = deviation_stats(result.instance, result.schedule, result.deviation.after)
    assert stats.max_improvement == result.value


def test_extremal_search_charge_on_four_machines_is_pinned():
    # 618 nodes is the smallest budget that reaches 61/39
    result = search_extremal_lpt(4, "ir_max", Fraction(155, 100), node_budget=100_000)
    assert result.found and result.budget_charged == 618
    short = search_extremal_lpt(4, "ir_max", Fraction(155, 100), node_budget=617)
    assert not short.found and short.budget_charged == 617


def test_reduction_artifact_deviation_matches_construction():
    # rebuild the known coalition move for inputs with a split: the two
    # mid jobs return to machine 1 and the inputs spread over 2 and 3
    art = reduce_partition_identical([3, 3, 4, 4])
    before = art.start_schedule
    after_assignment = (2, 3, 3, 2, 1, 1, 2, 3)  # 3+4 to each side, B-2 pair home
    after = profitable_deviation(art.instance, before, type(before)(after_assignment))
    stats = deviation_stats(art.instance, before, after.after)
    assert set(stats.mover_improvement.values()) == {
        Fraction(14, 13),
        Fraction(11, 10),
    }
