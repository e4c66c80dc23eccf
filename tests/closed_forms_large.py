"""The closed-form outcomes of `test_closed_forms.py` on paths past its
tier-1 limits: D = S = {1..k} up to n = 24 for k = 1, 31 for k = 2 and 40
for k = 3.

Not collected by pytest (no `test_` prefix); it takes minutes. Run it as

    PYTHONPATH=src python tests/closed_forms_large.py

It prints one line per board (k, n, the outcome the Grundy recurrence
gives, the one the solver finds, search nodes and seconds) and exits 1 if
any board disagrees.
"""

from __future__ import annotations

import sys
import time

from distance_games import SearchStats, gen_path, outcome

from test_closed_forms import PATH_LIMITS, grundy, impartial_outcome, interval

LARGE_LIMITS = {1: 24, 2: 31, 3: 40}


def main() -> int:
    mismatches = 0
    for k, top in LARGE_LIMITS.items():
        for n in range(PATH_LIMITS[k] + 1, top + 1):
            expected = impartial_outcome(grundy(k, n) != 0)
            stats = SearchStats()
            start = time.perf_counter()
            found = outcome(gen_path(n), interval(k), stats=stats)
            seconds = time.perf_counter() - start
            mismatches += found is not expected
            print(f"k={k} n={n} expected={expected.value} found={found.value} "
                  f"nodes={stats.nodes} seconds={seconds:.2f}", flush=True)
    print(f"{mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
