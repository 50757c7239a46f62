"""One benchmark per paper table and figure.

``pytest benchmarks/bench_experiments.py --benchmark-only`` runs every
id in ``repro.experiments.ALL_EXPERIMENTS`` (select one with
``-k 'test_experiment[fig9]'``); ``python
benchmarks/bench_experiments.py fig9 [ID ...]`` runs the named ids
without pytest.  Either way each table is printed and persisted under
``benchmarks/results/`` (see ``_harness.py``).
"""

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from _harness import main_experiment, run_experiment  # noqa: E402
from repro.experiments import ALL_EXPERIMENTS  # noqa: E402


@pytest.mark.parametrize("exp_id", list(ALL_EXPERIMENTS))
def test_experiment(benchmark, exp_id):
    run_experiment(benchmark, exp_id)


if __name__ == "__main__":
    targets = sys.argv[1:]
    unknown = [t for t in targets if t not in ALL_EXPERIMENTS]
    if not targets or unknown:
        sys.exit(f"usage: python {sys.argv[0]} ID [ID ...]; ids: "
                 f"{', '.join(ALL_EXPERIMENTS)}")
    for exp_id in targets:
        main_experiment(exp_id)
