"""Chaos-suite fixtures.

The whole suite is deterministic: every fault injector is seeded from
``TIX_CHAOS_SEED`` (default 1234), so a failing run replays exactly by
exporting the same seed.  CI pins the seed; set a different one locally
to explore other fault schedules.
"""

import os

import pytest


@pytest.fixture(scope="session")
def chaos_seed() -> int:
    return int(os.environ.get("TIX_CHAOS_SEED", "1234"))

