import json
from pathlib import Path

import numpy as np
import pytest

from kforms import IntervalSet, ResidueRing

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def locked():
    return json.loads((FIXTURES / "locked_constants.json").read_text())


@pytest.fixture
def no_table(monkeypatch):
    """Fail the test if a ring builds a q-long table: every table is built
    from the unit mask."""
    def refuse(ring):
        raise AssertionError(f"a q-long table of the ring mod {ring.q} was built")

    monkeypatch.setattr(ResidueRing, "unit_mask", property(refuse))


def random_interval(rng: np.random.Generator, q: int, max_len: int | None = None) -> IntervalSet:
    top = max_len if max_len is not None else q
    return IntervalSet(int(rng.integers(-q, q)), int(rng.integers(1, top + 1)))
