#!/usr/bin/env python3
"""Record in expected.json the result digests of the first MIN_ITEMS items
of every workload, for the given seeds (default: 0 to 20 and the held-out
seed).  A run compares its first items with these and counts each
mismatch as a failed item, so a change that alters any verdict, ratio or
witness shows.  Rerun this only after a change meant to alter results,
and review the diff.

    python3 schedbench/record_expected.py [seed ...]
"""

from __future__ import annotations

import json
import sys

import run
from workloads import WORKLOADS


def main(argv) -> int:
    seeds = [int(a) for a in argv] or [*range(21), run.HELD_OUT_SEED]
    path = run.BENCH / "expected.json"
    recorded = json.loads(path.read_text())
    pkg = run.load_package()
    for name, workload in WORKLOADS.items():
        for seed in seeds:
            items = workload.build(pkg, workload.draw(seed, run.MIN_ITEMS))
            outcomes = run.run_pass(workload, pkg, items, 0, run.MIN_ITEMS)
            failed = [k for k, o in enumerate(outcomes) if o.failure is not None]
            if failed:
                raise SystemExit(f"{name} seed {seed}: items {failed} failed; nothing recorded")
            recorded.setdefault(name, {})[str(seed)] = "".join(o.digest for o in outcomes)
            print(name, seed, "recorded")
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
