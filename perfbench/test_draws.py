"""The benchmark's draws match the test suite's at the acceptance seeds.

Run with `python3 -m pytest perfbench/test_draws.py` from the root of
the repository.
"""

import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import conftest  # noqa: E402
import draws  # noqa: E402
import inproc  # noqa: E402
from gbeq.classes import format_instance  # noqa: E402
from gbeq.transforms import format_transform  # noqa: E402

DRAWS = {**inproc.SWEEP_HEAVY, **inproc.SWEEP_LIGHT}


def _formatted(f, g, inst):
    return format_transform(f), format_transform(g), format_instance(inst)


@pytest.mark.parametrize("family", sorted(DRAWS))
def test_sweep_draws_match_conftest(family):
    """Every draw a sweep workload runs, against conftest's."""
    ours = random.Random(draws.ACCEPTANCE_SEEDS[family])
    theirs = random.Random(draws.ACCEPTANCE_SEEDS[family])
    for _ in range(DRAWS[family]):
        mine = draws.draw_sweep(family, ours)
        f = conftest.draw_transform(family, theirs)
        g = conftest.draw_transform(family, theirs)
        inst = conftest.draw_instance(conftest.INSTANCE_CLASS[family], theirs)
        assert _formatted(*mine) == _formatted(f, g, inst)


def test_acceptance_seeds_match():
    from test_acceptance import GROUPOID_SEEDS

    assert draws.ACCEPTANCE_SEEDS == GROUPOID_SEEDS

