"""Build perfbench/su4_pool.json, the recipe seeds the shoot-su4 workload draws from.

Each recipe seed in range(RECIPE_SEEDS) is shot once with t_max = 3.0.  Seeds
whose shot raises or fails certification are listed as excluded, with the
reason: the workload must be one on which no operation fails at the commit
that defines it.  The kept seeds are listed in order of the sample count
of the returned trajectory (the length of the second integration pass,
which sets most of the cost), so the benchmark can sample them evenly
across the cost range.

    python3 perfbench/vet_su4.py
"""

from __future__ import annotations

import json
import logging

import inputs
from qbrach.solvers import shoot
from qbrach.verify import Tolerances, certify
from workloads import POOL_PATH

RECIPE_SEEDS = 200


def main() -> None:
    logging.getLogger("qbrach").setLevel(logging.ERROR)
    kept, excluded = [], {}
    for seed in range(RECIPE_SEEDS):
        problem, h0, m0 = inputs.su4_problem(seed)
        try:
            sol = shoot(problem, h0, m0, inputs.SU4_T_MAX)
        except Exception as exc:  # every failure class excludes the seed
            excluded[str(seed)] = f"{type(exc).__name__}: {exc}"
            continue
        report = certify(sol.trajectory, Tolerances.integrated(), renormalized=True)
        if not (sol.report.passed and report.passed):
            excluded[str(seed)] = "certification failed"
            continue
        kept.append([seed, sol.trajectory.n_samples, round(sol.T / inputs.SU4_T_MAX, 4)])
    kept.sort(key=lambda row: (row[1], row[0]))
    doc = {
        "recipe_seeds": RECIPE_SEEDS,
        "t_max": inputs.SU4_T_MAX,
        "columns": ["recipe_seed", "samples", "T/t_max"],
        "by_samples": kept,
        "excluded": excluded,
    }
    POOL_PATH.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    print(f"kept {len(kept)}, excluded {len(excluded)}")


if __name__ == "__main__":
    main()
