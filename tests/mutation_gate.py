"""Mutation gate: every cut of the two search kernels, the deviation scan
and the canonical-assignment search of the schedulers, the deviation
scan's skip of branches that mirror interchangeable machines, the greedy
first limit of the lex-min prefix search, the enumeration's scan order
and budget-stop cutoff, and every fast path of the measures (the leaf
screen, the witness tie-break and `ir_min`'s seeded ratio floor) must be
caught by the tests when it is broken.  There are 32 mutants: 23
correctness and 9 performance mutants.

    python tests/mutation_gate.py

Each mutant is one textual edit of one module of `src/schedgames`.  For
each, the gate copies `src` to a temporary directory, applies the edit
(its target text must occur exactly once, or the gate fails), and runs a
named subset of the tests against the copy, under the derandomized
`mutants` Hypothesis profile of `tests/conftest.py`.

- A correctness mutant can change a verdict, a witness, a count, a
  measure or a reported node count, so `ORACLES`, the tests that check
  results against brute-force oracles or leaf by leaf, must fail.
- A performance mutant only loosens a cut, skips a shortcut or changes
  the order of a scan whose results its contract fixes in either order,
  so `ORACLES` must still pass and `PINS`, the tests that pin node
  counts, must fail.  A mutant that passes `PINS`
  goes unseen, and one that fails `ORACLES` changed a result: it is a
  correctness mutant.

Before any mutant, the unmutated copy must pass both subsets.  The gate
needs pytest and hypothesis, like the tests; it exits 0 when every mutant
is killed and 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ORACLES = (
    "tests/test_measures.py::test_leaf_screen_never_underestimates",
    "tests/test_measures.py::test_min_improvement_read_off_caps_matches_movers_and_oracle",
    "tests/test_measures.py::test_size_ordered_report_keeps_the_oracle_witnesses",
    "tests/test_measures.py::test_measures_match_brute_force_oracle",
    "tests/test_measures.py::test_ir_min_seed_keeps_the_smallest_tying_witness",
    "tests/test_equilibria.py::test_a_stop_at_the_first_leaf_returns_the_nodes_up_to_it",
    "tests/test_equilibria.py::test_enumeration_matches_unpruned_oracle",
    "tests/test_equilibria.py::test_budget_stop_has_seen_exactly_the_representatives_it_resolved",
    "tests/test_twin_orbits.py::test_enumeration_matches_oracle_in_order",
    "tests/test_twin_orbits.py::test_enumeration_budget_stop_is_oracle_prefix",
    "tests/test_twin_orbits.py::test_measure_report_matches_oracle",
    "tests/test_twin_orbits.py::test_is_strong_witness_is_oracle_minimum",
    "tests/test_twin_orbits.py::test_coalition_deviation_matches_oracle",
    "tests/test_conservation_cut.py::test_cut_keeps_every_profitable_leaf_of_an_equilibrium",
    "tests/test_conservation_cut.py::test_cut_keeps_every_leaf_of_seeded_equilibria",
    "tests/test_witnesses.py::test_reduction_equivalence_on_random_multisets",
    "tests/test_schedulers.py::test_lex_min_assignment_matches_exhaustive_oracle",
    "tests/test_schedulers.py::test_lex_min_matches_exhaustive_oracle",
    "tests/test_schedulers.py::test_optimal_makespan_matches_exhaustive_oracle",
    "tests/test_schedulers.py::test_ptas_is_the_lex_min_prefix_then_greedy",
)
PINS = (
    "tests/test_twin_orbits.py::test_partition_family_node_count_is_pinned",
    "tests/test_twin_orbits.py::test_partition_split_node_count_is_pinned",
    "tests/test_twin_orbits.py::test_enumeration_finishing_budget_is_pinned",
    "tests/test_conservation_cut.py::test_lpt_measure_report_node_count_is_pinned",
    "tests/test_conservation_cut.py::test_tightened_cut_keeps_every_leaf",
    "tests/test_measures.py::test_partition_reduction_measure_nodes_are_pinned",
    "tests/test_measures.py::test_ir_min_finishing_budget_is_pinned",
    "tests/test_schedulers.py::test_lex_min_node_count_is_pinned",
    "tests/test_schedulers.py::test_optimal_makespan_node_count_is_pinned",
    "tests/test_schedulers.py::test_ptas_prefix_node_count_is_pinned",
)

KERNEL, MEASURES, SCHEDULERS = "equilibria.py", "measures.py", "schedulers.py"
CORRECTNESS, PERFORMANCE = "correctness", "performance"

# name: (kind, module, target text, replacement)
MUTANTS = {
    "cap-cut-admits-ties": (
        CORRECTNESS, KERNEL, "if new_load >= cap:", "if new_load > cap:",
    ),
    "conservation-cuts-zero-shortfall": (
        CORRECTNESS, KERNEL,
        "                    if short > 0:\n                        continue",
        "                    if short >= 0:\n                        continue",
    ),
    "tops-one-lower": (
        CORRECTNESS, KERNEL, "tops[i] = cj - 1", "tops[i] = cj - 2",
    ),
    "tops-ignore-a-gain-of-one": (
        CORRECTNESS, KERNEL, "if top > 0:", "if top > 1:",
    ),
    "ratio-floor-cuts-ties": (
        CORRECTNESS, KERNEL,
        "if cap * floor[1] < new_load * floor[0]:",
        "if cap * floor[1] <= new_load * floor[0]:",
    ),
    "rest-min-takes-max": (
        CORRECTNESS, KERNEL, "rest_min += min(column)", "rest_min += max(column)",
    ),
    "room-keeps-the-cap": (
        CORRECTNESS, KERNEL,
        "if old_cap == infinity else old_cap - 1",
        "if old_cap == infinity else old_cap",
    ),
    "twin-start-one-lower": (
        CORRECTNESS, KERNEL, "starts[assign[twin]]", "starts[assign[twin] - 1]",
    ),
    "stop-drops-its-count": (
        CORRECTNESS, KERNEL, "stop.nodes = nodes", "pass",
    ),
    # a mirror branch is skipped only while both machines hold just their
    # placed residents; past that, swapping the machines changes the prefix
    "mirror-skip-ignores-loads-and-caps": (
        CORRECTNESS, KERNEL,
        "if loads[k2] == held == loads[k1] and caps[k2] == infinity == caps[k1]",
        "if True",
    ),
    # exhaustive scans count, measure and list every leaf, mirrors included
    "mirror-rule-in-exhaustive-scans": (
        CORRECTNESS, KERNEL, "    first=False,\n) -> int:", "    first=True,\n) -> int:",
    ),
    # machines of equal rows and start loads whose residents differ are no
    # mirrors of each other
    "mirror-pairs-ignore-residents": (
        CORRECTNESS, KERNEL, "if residents[k1] == residents[k2]:", "if True:",
    ),
    "witness-scan-keeps-size-order": (
        CORRECTNESS, KERNEL,
        "scan_deviations(ctx, budget=node_budget - nodes, on_leaf=grab, first=True)",
        "scan_deviations(ctx, budget=node_budget - nodes, on_leaf=grab, by_size=True, first=True)",
    ),
    # scanning small jobs first changes which joint actions a budget stop
    # has resolved
    "size-order-ascending": (
        CORRECTNESS, KERNEL,
        "return sorted(ctx.free, key=own.__getitem__, reverse=True)",
        "return sorted(ctx.free, key=own.__getitem__)",
    ),
    # a cutoff read in index order off a stop of the scan by size keeps
    # deviations the scan never resolved, or drops ones it met
    "cutoff-ranks-by-index": (
        CORRECTNESS, KERNEL,
        "_first_unresolved(_scan_order(ctx, by_size), ctx.m, share)",
        "_first_unresolved(ctx.free, ctx.m, share)",
    ),
    # orbit members and representatives past the cutoff break the prefix
    "stop-keeps-every-deviation-met": (
        CORRECTNESS, KERNEL,
        "found = [d for d in found if d.after.assignment < cutoff]",
        "pass",
    ),
    "bump-prefers-larger-leaf": (
        CORRECTNESS, MEASURES, "assign < slot[2]", "assign > slot[2]",
    ),
    "screen-skips-ties": (
        CORRECTNESS, MEASURES,
        "if inum * high[1] >= high[0] * iden or dnum * harm[1] >= harm[0] * dden:",
        "if inum * high[1] > high[0] * iden or dnum * harm[1] > harm[0] * dden:",
    ),
    "screen-bounds-movers-by-cap": (
        CORRECTNESS, MEASURES,
        "if top * iden > inum * load:\n                    inum, iden = top, load",
        "if cap * iden > inum * load:\n                    inum, iden = cap, load",
    ),
    # a seed ratio that no single move attains can stand as ir_min's value
    "ir-min-seed-inflated": (
        CORRECTNESS, MEASURES,
        "_bump(slot, cost0[j], cost, move)",
        "_bump(slot, cost0[j] + 1, cost, move)",
    ),
    "limit-cuts-ties": (
        CORRECTNESS, SCHEDULERS, "if load + size > limit:", "if load + size >= limit:",
    ),
    # a first limit below the greedy makespan cuts the answer wherever
    # greedy already attains the smallest largest load
    "lex-min-limit-below-greedy": (
        CORRECTNESS, SCHEDULERS,
        "max(greedy_loads), node_budget",
        "max(greedy_loads) - 1, node_budget",
    ),
    "twin-start-one-higher": (
        CORRECTNESS, SCHEDULERS,
        "labels[t - 1] if t and size == sizes[t - 1] else 0",
        "labels[t - 1] + 1 if t and size == sizes[t - 1] else 0",
    ),
    "leave-is-zero": (
        PERFORMANCE, KERNEL,
        "leave = column[oj] if caps[oj] == infinity else 0",
        "leave = 0",
    ),
    "pend-dropped": (
        PERFORMANCE, KERNEL, "pend[oj] += column[oj]", "pend[oj] += 0",
    ),
    "tops-count-equal-sizes": (
        PERFORMANCE, KERNEL,
        "if size < cj and tops[i] < cj - 1 and i != oj:",
        "if size <= cj and tops[i] < cj - 1 and i != oj:",
    ),
    # the enumeration by index, its cutoff read in the same order: the same
    # contract on more nodes
    "enumeration-by-index": (
        PERFORMANCE, KERNEL, "by_size = True", "by_size = False",
    ),
    # scans that stop at their first leaf visit the mirror branches too: the
    # same first leaf on more nodes
    "mirror-rule-off": (
        PERFORMANCE, KERNEL,
        "mirrors = _mirror_rows(ctx, free) if first and not members_fixed else [None] * len(free)",
        "mirrors = [None] * len(free)",
    ),
    "equal-load-siblings-kept": (
        PERFORMANCE, SCHEDULERS,
        "            if load in seen:\n                continue\n",
        "",
    ),
    "lex-min-limit-starts-at-total": (
        PERFORMANCE, SCHEDULERS, "max(greedy_loads), node_budget", "sum(sizes), node_budget",
    ),
    "twin-starts-at-zero": (
        PERFORMANCE, SCHEDULERS,
        "labels[t - 1] if t and size == sizes[t - 1] else 0",
        "0",
    ),
    "ir-min-seed-dropped": (
        PERFORMANCE, MEASURES, "_bump(slot, cost0[j], cost, move)", "pass",
    ),
}


def run_tests(src: Path, tests) -> bool:
    """Whether `tests` pass with the package imported from `src`."""
    # no bytecode cache: a mutant and the next could share a size and a
    # modification second, and the second would run the first's bytecode
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]),
        PYTHONDONTWRITEBYTECODE="1",
    )
    where = subprocess.run(
        [sys.executable, "-c", "import schedgames; print(schedgames.__file__)"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()
    if not Path(where).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"mutation gate: imported schedgames from {where}, not {src}")
    command = [
        sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
        "--hypothesis-profile=mutants", *tests,
    ]
    return subprocess.run(command, cwd=ROOT, env=env, capture_output=True).returncode == 0


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if not run_tests(src, ORACLES + PINS):
            print("mutation gate: the unmutated source fails the subset")
            return 1
        survivors = []
        for name, (kind, module, target, replacement) in MUTANTS.items():
            path = src / "schedgames" / module
            original = path.read_text()
            found = original.count(target)
            if found != 1:
                print(f"{name}: target occurs {found} times in {module}, not once", flush=True)
                survivors.append(name)
                continue
            path.write_text(original.replace(target, replacement))
            try:
                if kind == CORRECTNESS:
                    outcome = "SURVIVED" if run_tests(src, ORACLES) else "killed"
                elif not run_tests(src, ORACLES):
                    outcome = "CHANGED A RESULT"
                else:
                    outcome = "SURVIVED" if run_tests(src, PINS) else "killed"
            finally:
                path.write_text(original)
            print(f"{name}: {kind} mutant {outcome}", flush=True)
            if outcome != "killed":
                survivors.append(name)
    print(f"mutation gate: {len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
